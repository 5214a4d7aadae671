"""Enumeration of parking sorted configurations and the generating-function
identities tying their degree/rank distribution to parallelogram polyominoes.

The tables come in two equivalent parameterizations: (degree, rank) and the
pair (xpara, ypara) = ((m-1)(n-1)+rank-degree, rank+1), whose joint
distribution is symmetric and has a product-form generating function over all
shapes at once.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import accumulate, combinations_with_replacement

from .core import Configuration, GraphShape, SandpileError
from .cylindric import boundary_sets, xpara, ypara
# rank_parking_sorted is not called here: kmnbench/gfcheck.py's traced run wraps it
from .rank import rank_parking_sorted, rank_sweep, row_gaps
from .series import SeriesRing, TruncatedSeries

ENUMERATION_GUARD = 10**8


@dataclass(frozen=True)
class ParkingFamily:
    """Every parking sorted partial configuration of one shape."""

    shape: GraphShape
    configs: tuple[Configuration, ...]


@dataclass(frozen=True)
class PolyominoWeights:
    """How polyomino cells are weighted in a series: the cell variable takes
    the area, optionally shifted by +-height per row (that realizes the
    substitutions h -> q*h and h -> h/q without negative exponents, since a
    polyomino's area is at least its height)."""

    cell_var: str
    height_offset: int = 0
    width_var: str = "w"
    height_var: str = "h"


# ---------------------------------------------------------------------------
# enumeration and the two tables


def _require_enumerable(shape: GraphShape, who: str) -> None:
    """Refuse the shapes whose sorted stable candidates (a-parts times
    b-parts with first b-value 0) outnumber ENUMERATION_GUARD."""
    m, n = shape.m, shape.n
    candidates = math.comb(n - 1 + m - 1, m - 1) * math.comb(m + n - 2, n - 1)
    if candidates > ENUMERATION_GUARD:
        raise SandpileError(f"{who}: {candidates} candidates exceed the guard")


def enumerate_parking_sorted(shape: GraphShape) -> ParkingFamily:
    """All parking sorted partial configurations: sorted stable parts with
    first b-value 0, filtered by row gaps <= 1."""
    m, n = shape.m, shape.n
    _require_enumerable(shape, "enumerate_parking_sorted")
    configs = []
    for a in combinations_with_replacement(range(n), m - 1):
        for tail in combinations_with_replacement(range(m), n - 1):
            b = (0,) + tail
            if max(row_gaps(a, b, n)) <= 1:
                configs.append(Configuration(shape, a, None, b))
    return ParkingFamily(shape, tuple(configs))


def parking_gap_vectors(m: int, n: int) -> Counter:
    """Row-gap vectors of the parking sorted configurations of K_{m,n}, each
    with the number of configurations that have it.

    A row-by-row transfer over the pairs (c_i, b_i) of red column and
    b-value: the red columns rise from c_1 = 0 to at most m - 1, the b-values
    rise from b_1 = 0 and parking keeps b_i <= c_i, so every gap
    r_i = b_i + 1 - c_i is at most 1.  A gap prefix fixes the last
    d = c - b = 1 - r, so a prefix's state is the count of its
    configurations by last red column.  The next row with d' = 1 - r' takes
    any c' >= c, and b' >= b means c <= c' - max(0, d' - d): its counts are
    prefix sums of the old ones, shifted right by max(0, d' - d).  Each
    entry keeps its gap and the index of the prefix it extends, and the
    vectors are read back along these links at the end, so no prefix is
    copied row by row (that would cost O(n^2) on K_{1,n}).  No configuration
    is built and no candidate filtered; the shapes refused are those
    ``enumerate_parking_sorted`` refuses.
    """
    _require_enumerable(GraphShape(m, n), "parking_gap_vectors")
    gaps, counts = [1], [(1,) + (0,) * (m - 1)]  # row 1: c_1 = b_1 = 0
    rows = []  # for rows 2..n: each entry's gap and the index of its prefix
    for _ in range(n - 1):
        next_gaps, links, grown = [], [], []
        for index, (gap, by_column) in enumerate(zip(gaps, counts)):
            d = 1 - gap
            sums = tuple(accumulate(by_column))
            for d2 in range(m):
                lag = max(0, d2 - d)
                if not sums[m - 1 - lag]:
                    break  # every larger d2 lags further and is empty too
                next_gaps.append(1 - d2)
                links.append(index)
                grown.append((0,) * lag + sums[: m - lag])
        rows.append((next_gaps, links))
        gaps, counts = next_gaps, grown
    entries = range(len(gaps))
    columns = []
    for row, links in reversed(rows):
        columns.append([row[e] for e in entries])
        entries = [links[e] for e in entries]
    columns.append([1] * len(gaps))
    return Counter(dict(zip(zip(*reversed(columns)), map(sum, counts))))


def degree_rank_table(
    shape: GraphShape, degree_window: tuple[int, int]
) -> dict[tuple[int, int], int]:
    """Counts of full parking sorted configurations by (degree, rank), the
    sink running over the given inclusive degree window.

    The a- and b-values with row gaps r sum to g - D, g = (m-1)(n-1) and
    D = n - sum r, so sink s has degree g - D + s: each gap vector from
    ``parking_gap_vectors`` sweeps the sinks lo - g + D .. hi - g + D once
    with ``rank_sweep``, weighted by its multiplicity.
    """
    lo, hi = degree_window
    m, n = shape.m, shape.n
    counts: dict[tuple[int, int], int] = {}
    for gaps, mult in parking_gap_vectors(m, n).items():
        ranks = rank_sweep(gaps, lo - (m - 1) * (n - 1) + n - sum(gaps), hi - lo + 1)
        for key in zip(range(lo, hi + 1), ranks):
            counts[key] = counts.get(key, 0) + mult
    return counts


def xy_table(shape: GraphShape, ring: SeriesRing) -> TruncatedSeries:
    """Generating function of (xpara, ypara) over all full parking sorted
    configurations, truncated to the ring's x/y caps.

    Each gap vector r from ``parking_gap_vectors`` adds its multiplicity at
    (xpara, ypara) = (rank + D - sink, rank + 1), D = n - sum r, for each
    sink of one window, swept by ``rank_sweep``.  Both statistics are sums
    of positive parts (see ``rank_sweep``), so >= 0, and ypara - xpara =
    sink + 1 - D: a pair within the caps has -cap_x <= sink + 1 - D <= cap_y,
    so every contributing sink lies in D - cap_x - 1 .. D + cap_y - 1.
    """
    ix, iy = ring.index("x"), ring.index("y")
    cap_x, cap_y = ring.caps[ix], ring.caps[iy]
    coeffs: dict[tuple[int, int], int] = {}
    for gaps, mult in parking_gap_vectors(shape.m, shape.n).items():
        low = shape.n - sum(gaps) - cap_x - 1
        # at sink low + j, xpara = rank + D - sink = rank + cap_x + 1 - j
        for j, rank in enumerate(rank_sweep(gaps, low, cap_x + cap_y + 1)):
            xp = rank + cap_x + 1 - j
            if xp <= cap_x and rank < cap_y:
                coeffs[(xp, rank + 1)] = coeffs.get((xp, rank + 1), 0) + mult
    out: dict[tuple[int, ...], int] = {}
    for (xp, yp), c in coeffs.items():
        key = [0] * len(ring.variables)
        key[ix] = xp
        key[iy] = yp
        out[tuple(key)] = c
    return ring.from_coeffs(out)


# ---------------------------------------------------------------------------
# parallelogram polyominoes: column-transfer dynamic program


def polyomino_counts(
    area_cap: int, width_cap: int, height_cap: int
) -> dict[tuple[int, int, int], int]:
    """Counts by (area, width, height) of parallelogram polyominoes, built
    column by column; a column of height c may be followed by one of height
    c2 raised by anything in [max(0, c2-c), c2-1]."""
    result: dict[tuple[int, int, int], int] = {}
    states: dict[int, dict[tuple[int, int], int]] = {}
    for c in range(1, min(height_cap, area_cap) + 1):
        states[c] = {(c, c): 1}
    for w in range(1, width_cap + 1):
        for table in states.values():
            for (area, height), cnt in table.items():
                key = (area, w, height)
                result[key] = result.get(key, 0) + cnt
        if w == width_cap:
            break
        nxt: dict[int, dict[tuple[int, int], int]] = {}
        for c, table in states.items():
            for c2 in range(1, height_cap + 1):
                target = nxt.setdefault(c2, {})
                for rise in range(max(0, c2 - c), c2):
                    for (area, height), cnt in table.items():
                        area2, height2 = area + c2, height + rise
                        if area2 > area_cap or height2 > height_cap:
                            continue
                        key2 = (area2, height2)
                        target[key2] = target.get(key2, 0) + cnt
        states = {c: t for c, t in nxt.items() if t}
    return result


def polyomino_series(weights: PolyominoWeights, ring: SeriesRing) -> TruncatedSeries:
    """Polyomino generating function under the given weighting."""
    cell_cap = ring.caps[ring.index(weights.cell_var)]
    width_cap = ring.caps[ring.index(weights.width_var)]
    height_cap = ring.caps[ring.index(weights.height_var)]
    area_cap = cell_cap + (height_cap if weights.height_offset < 0 else 0)
    counts = polyomino_counts(area_cap, width_cap, height_cap)
    out: dict[tuple[int, ...], int] = {}
    for (area, width, height), cnt in counts.items():
        cell_exp = area + weights.height_offset * height
        key = [0] * len(ring.variables)
        key[ring.index(weights.cell_var)] = cell_exp
        key[ring.index(weights.width_var)] = width
        key[ring.index(weights.height_var)] = height
        out[tuple(key)] = out.get(tuple(key), 0) + cnt
    return ring.from_coeffs(out)


def l_series(ring: SeriesRing, qv: str = "q", wv: str = "w", hv: str = "h") -> TruncatedSeries:
    """The alternating double series whose quotient reproduces the polyomino
    counts: sum over (j,k) of (-1)^(j+k) w^j h^k q^C(j+k+1,2) / ((q)_k (q)_j)."""
    wcap = ring.caps[ring.index(wv)]
    hcap = ring.caps[ring.index(hv)]
    qcap = ring.caps[ring.index(qv)]
    total = ring.zero()
    for j in range(wcap + 1):
        for k in range(hcap + 1):
            e = (j + k + 1) * (j + k) // 2
            if e > qcap:
                continue
            term = ring.monomial({qv: e, wv: j, hv: k}, (-1) ** (j + k))
            total = total + term / (_pochhammer(ring, k, qv) * _pochhammer(ring, j, qv))
    return total


def _pochhammer(ring: SeriesRing, k: int, qv: str) -> TruncatedSeries:
    """(q)_k = prod_{i=1..k} (1 - q^i); the empty product for k = 0."""
    out = ring.one()
    for i in range(1, k + 1):
        out = out * (ring.one() - ring.monomial({qv: i}))
    return out


def polyomino_series_via_l(
    ring: SeriesRing, qv: str = "q", wv: str = "w", hv: str = "h"
) -> TruncatedSeries:
    """q*w*h * L(qw, qh) / L(w, h), the closed-form route to the counts."""
    ell = l_series(ring, qv, wv, hv)
    twisted = ell.absorb_into(qv, (wv, hv))
    return ring.monomial({qv: 1, wv: 1, hv: 1}) * twisted / ell


# ---------------------------------------------------------------------------
# boundary configurations: direct enumeration vs closed forms


def boundary_series_direct(
    mmax: int, nmax: int, ring: SeriesRing
) -> tuple[TruncatedSeries, TruncatedSeries]:
    """Sum of x^xpara y^ypara w^m h^n over positive (respectively negative)
    boundary configurations, found shape by shape from the boundary sinks."""
    plus: dict[tuple[int, ...], int] = {}
    minus: dict[tuple[int, ...], int] = {}
    ix, iy = ring.index("x"), ring.index("y")
    iw, ih = ring.index("w"), ring.index("h")
    for m in range(1, mmax + 1):
        for n in range(1, nmax + 1):
            for u in enumerate_parking_sorted(GraphShape(m, n)).configs:
                bnd = boundary_sets(u)
                for acc, sinks in ((plus, bnd.s_plus), (minus, bnd.s_minus)):
                    for s in sinks:
                        v = u.with_sink(s)
                        key = [0] * len(ring.variables)
                        key[ix] = xpara(v)
                        key[iy] = ypara(v)
                        key[iw] = m
                        key[ih] = n
                        acc[tuple(key)] = acc.get(tuple(key), 0) + 1
    return ring.from_coeffs(plus), ring.from_coeffs(minus)


def boundary_series_closed(ring: SeriesRing) -> tuple[TruncatedSeries, TruncatedSeries]:
    """The same two series from the polyomino decomposition of boundary
    pairs."""
    one = ring.one()
    w, h = ring.var("w"), ring.var("h")
    hx = ring.monomial({"h": 1, "x": 1})
    hw = ring.monomial({"h": 1, "w": 1})
    xw = ring.monomial({"x": 1, "w": 1})
    px = polyomino_series(PolyominoWeights("x"), ring)
    py = polyomino_series(PolyominoWeights("y"), ring)
    pxt = polyomino_series(PolyominoWeights("x", height_offset=1), ring)
    pyt = polyomino_series(PolyominoWeights("y", height_offset=-1), ring)

    minus_den = (one - w) * (one - h - w - px - py)
    minus = px * py / minus_den

    plus_num = (
        (one - hx - w) * hw
        + (w - h) * pxt * pyt
        + (one - hx - w + xw) * h * pyt
        - hw * pxt
    )
    plus_den = (one - w) * (one - w - hx - pyt - pxt)
    plus = plus_num / plus_den
    return plus, minus


# ---------------------------------------------------------------------------
# the main generating-function identity


@dataclass(frozen=True)
class GfReport:
    """Outcome of a coefficientwise comparison of two series.

    ``per_shape`` counts the compared coefficients by (m, n), the w- and
    h-exponents; ``phase_seconds`` holds the wall time of each phase.  Both
    stay empty for a bare ``compare_series``; ``verify_gf`` fills them.
    """

    ok: bool
    entries_checked: int
    mismatch_exponents: dict[str, int] | None = None
    lhs_value: int | None = None
    rhs_value: int | None = None
    per_shape: dict[tuple[int, int], int] = field(default_factory=dict)
    phase_seconds: dict[str, float] = field(default_factory=dict)

    def describe(self) -> str:
        if self.ok:
            lines = [f"PASS ({self.entries_checked} coefficients compared)"]
        else:
            lines = [
                f"FAIL at {self.mismatch_exponents}: "
                f"lhs={self.lhs_value} rhs={self.rhs_value}"
            ]
        if self.phase_seconds:
            lines.append(
                "seconds: "
                + ", ".join(f"{name} {sec:.3f}" for name, sec in self.phase_seconds.items())
            )
        if self.per_shape:
            ms = sorted({m for m, _ in self.per_shape})
            ns = sorted({n for _, n in self.per_shape})
            lines.append("coefficients compared per shape (row m, column n):")
            lines.append("      " + "".join(f"{f'n={n}':>7}" for n in ns))
            for m in ms:
                row = "".join(f"{self.per_shape.get((m, n), 0):>7}" for n in ns)
                lines.append(f"  {f'm={m}':<4}{row}")
        return "\n".join(lines)


def compare_series(lhs: TruncatedSeries, rhs: TruncatedSeries) -> GfReport:
    if lhs.ring != rhs.ring:
        raise SandpileError("compare_series: rings differ")
    keys = sorted(set(lhs.coeffs) | set(rhs.coeffs), key=lambda k: (sum(k), k))
    names = lhs.ring.variables
    for key in keys:
        lv, rv = lhs.coeffs.get(key, 0), rhs.coeffs.get(key, 0)
        if lv != rv:
            return GfReport(False, len(keys), dict(zip(names, key)), lv, rv)
    return GfReport(True, len(keys))


def family_series(mmax: int, nmax: int, ring: SeriesRing) -> TruncatedSeries:
    """Sum over shapes of the xpara/ypara table times w^m h^n (the left-hand
    side of the main identity, exact for all w,h exponents within caps)."""
    total = ring.zero()
    for m in range(1, mmax + 1):
        for n in range(1, nmax + 1):
            table = xy_table(GraphShape(m, n), ring)
            total = total + table * ring.monomial({"w": m, "h": n})
    return total


def gf_closed_form(ring: SeriesRing) -> TruncatedSeries:
    """(1-xy)(hw - P(x)P(y)) / ((1-x)(1-y)(1-h-w-P(x)-P(y)))."""
    one = ring.one()
    x, y, w, h = ring.var("x"), ring.var("y"), ring.var("w"), ring.var("h")
    px = polyomino_series(PolyominoWeights("x"), ring)
    py = polyomino_series(PolyominoWeights("y"), ring)
    numer = (one - x * y) * (h * w - px * py)
    denom = (one - x) * (one - y) * (one - h - w - px - py)
    return numer / denom


def verify_gf(mmax: int, nmax: int, cap_x: int, cap_y: int) -> GfReport:
    """Compare the enumerated family series against the closed form on every
    coefficient with w-exponent <= mmax, h-exponent <= nmax and x/y exponents
    within the caps; the report carries the per-shape coverage and the time
    of each phase."""
    ring = SeriesRing(("x", "y", "w", "h"), (cap_x, cap_y, mmax, nmax))
    t0 = time.perf_counter()
    lhs = family_series(mmax, nmax, ring)
    t1 = time.perf_counter()
    rhs = gf_closed_form(ring)
    t2 = time.perf_counter()
    report = compare_series(lhs, rhs)
    t3 = time.perf_counter()
    iw, ih = ring.index("w"), ring.index("h")
    per_shape = Counter((k[iw], k[ih]) for k in set(lhs.coeffs) | set(rhs.coeffs))
    return replace(
        report,
        per_shape=dict(sorted(per_shape.items())),
        phase_seconds={"family series": t1 - t0, "closed form": t2 - t1, "comparison": t3 - t2},
    )


# ---------------------------------------------------------------------------
# CSV dumps in the table layouts used throughout


def degree_rank_csv(table: dict[tuple[int, int], int], degree_window: tuple[int, int]) -> str:
    lo, hi = degree_window
    ranks = sorted({r for _, r in table})
    lines = ["r\\d," + ",".join(str(d) for d in range(lo, hi + 1))]
    for r in ranks:
        row = [str(table.get((d, r), 0)) for d in range(lo, hi + 1)]
        lines.append(f"{r}," + ",".join(row))
    return "\n".join(lines) + "\n"


def xy_csv(series: TruncatedSeries) -> str:
    ring = series.ring
    cap_x = ring.caps[ring.index("x")]
    cap_y = ring.caps[ring.index("y")]
    lines = ["y\\x," + ",".join(str(x) for x in range(cap_x + 1))]
    for yv in range(cap_y + 1):
        row = [str(series.coefficient({"x": xv, "y": yv})) for xv in range(cap_x + 1)]
        lines.append(f"{yv}," + ",".join(row))
    return "\n".join(lines) + "\n"
