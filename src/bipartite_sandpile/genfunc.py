"""Enumeration of parking sorted configurations and the generating-function
identities tying their degree/rank distribution to parallelogram polyominoes.

The tables come in two equivalent parameterizations: (degree, rank) and the
pair (xpara, ypara) = ((m-1)(n-1)+rank-degree, rank+1), whose joint
distribution is symmetric and has a product-form generating function over all
shapes at once.  Both tables and the family series are counted by a row
transfer of polynomial size (``_row_transfer``), which builds no
configuration; enumeration stays as the reference and for the direct side of
the boundary identities.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import combinations_with_replacement

from .core import Configuration, GraphShape, SandpileError
from .cylindric import boundary_sets, xpara, ypara
# rank_parking_sorted is not called here: kmnbench/gfcheck.py's traced run wraps it
from .rank import rank_parking_sorted, row_gaps
from .series import SeriesRing, TruncatedSeries

ENUMERATION_GUARD = 10**8  # candidates enumerate_parking_sorted filters
TRANSFER_GUARD = 10**9  # table cells the row transfer may handle (_parking_counts)


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
    polyomino's area is at least its height).  Width and height are always
    the ring's "w" and "h"."""

    cell_var: str
    height_offset: int = 0


# ---------------------------------------------------------------------------
# enumeration


def enumerate_parking_sorted(shape: GraphShape) -> ParkingFamily:
    """All parking sorted partial configurations: sorted stable parts with
    first b-value 0, filtered by row gaps <= 1.  Refuses the shapes whose
    candidates (a-parts times b-parts) outnumber ENUMERATION_GUARD."""
    m, n = shape.m, shape.n
    candidates = math.comb(n - 1 + m - 1, m - 1) * math.comb(m + n - 2, n - 1)
    if candidates > ENUMERATION_GUARD:
        raise SandpileError(f"enumerate_parking_sorted: {candidates} candidates exceed the guard")
    configs = []
    for a in combinations_with_replacement(range(n), m - 1):
        for tail in combinations_with_replacement(range(m), n - 1):
            b = (0,) + tail
            if max(row_gaps(a, b, n)) <= 1:
                configs.append(Configuration(shape, a, None, b))
    return ParkingFamily(shape, tuple(configs))


# ---------------------------------------------------------------------------
# the row transfer and the two tables read from it


class _Cells:
    """A table of counts by (xpara, ypara) within the caps, packed into one
    int: cell x * (cap_y + 1) + y holds its count in a slot of ``bits``
    bits, so the sum of two tables is one int addition.  A slot never
    carries into the next one as long as no count formed exceeds ``bound``.
    """

    def __init__(self, cap_x: int, cap_y: int, bound: int) -> None:
        self.size = bound.bit_length() // 8 + 1  # bytes per slot
        self.bits = 8 * self.size
        self.cap_x, self.width = cap_x, cap_y + 1
        self.cells = (cap_x + 1) * self.width
        self.block = self.width * self.bits  # the cells of one xpara
        self.whole = (1 << (self.cells * self.bits)) - 1
        repunit = self.whole // ((1 << self.block) - 1)  # one low slot per block
        # keep[t]: the cells with ypara <= cap_y - t, which may take t more
        self.keep = [((1 << ((self.width - t) * self.bits)) - 1) * repunit for t in range(self.width)]

    def step(self, table: int, t: int) -> int:
        """Add t^+ to ypara and (-t)^+ to xpara of every count, dropping the
        counts that pass a cap."""
        if t == 0 or not table:
            return table
        if t > 0:
            return (table & self.keep[t]) << (t * self.bits) if t < self.width else 0
        return (table << (-t * self.block)) & self.whole if -t <= self.cap_x else 0

    def unpack(self, table: int) -> dict[tuple[int, int], int]:
        """The non-zero counts of a table, keyed (xpara, ypara)."""
        size = self.size
        raw = table.to_bytes(self.cells * size, "little")
        out = {}
        for key in range(self.cells):
            count = int.from_bytes(raw[key * size : (key + 1) * size], "little")
            if count:
                out[divmod(key, self.width)] = count
        return out


def _prefix_sums(tables: list[int], m: int) -> list[int]:
    """For every state (c', b') the sum of the tables of the states (c, b)
    with c <= c' and b <= b'.  States are listed (0,0), (1,0), (1,1), (2,0),
    ..., (m-1,m-1)."""
    out: list[int] = []
    columns: list[int] = []  # columns[b]: the sum for (c, b) at the current c
    total = 0  # every state of the rows 0..c
    states = iter(tables)
    for c in range(m):
        row = 0  # states (c, 0..b)
        for b in range(c):
            row += next(states)
            columns[b] += row
            out.append(columns[b])
        # every state (c'', b'') with c'' <= c has b'' <= c: (c, c) takes them all
        total += row + next(states)
        columns.append(total)
        out.append(total)
    return out


def _row_transfer(m: int, q: int, rows: int, cells: _Cells):
    """For n = 1..rows, the tables of the states of row n that are past the
    phase switch: together, the counts of parking sorted configurations of
    K_{m,n} with sink + 1 = nQ + R, Q = q and 0 <= R < n, by (xpara, ypara)
    within the caps.  Stops once every table is empty.

    A parking sorted configuration is a sequence of states (c_i, b_i), red
    column and b-value of row i, with 0 <= b_i <= c_i <= m - 1: the red
    columns and the b-values rise from c_1 = b_1 = 0, parking is b_i <= c_i
    (row gap r_i = b_i + 1 - c_i <= 1), and the red columns fix the a-part.
    Write d_i = c_i - b_i = 1 - r_i and k_i = Q + [i < R] for the labels the
    rank loop visits in row i (0-based).  The rank is sum (k_i - d_i)^+ - 1
    and sum k_i = sink + 1, so ypara = rank + 1 = sum (k_i - d_i)^+ and
    xpara = rank + D - sink = sum (d_i - k_i)^+ with D = sum d_i: row i adds
    (d_i - k_i)^+ to xpara and (k_i - d_i)^+ to ypara.  Neither ever falls,
    so a count past a cap is dropped for good.

    A phase bit tells the rows before R (k = Q + 1) from the rest (k = Q);
    a path switches once, at row R.  Since k_i depends on Q and on i < R
    but not on n, one run serves every n.  Only the states past the switch
    are read: a path still before it at row n would have R = n, that is
    sink + 1 = n(Q + 1) + 0, which the run of Q + 1 counts with R = 0.  The
    next row's state (c', b') follows any (c, b) with c <= c' and b <= b',
    so its table, before the row's own statistics, is a prefix sum of the
    previous row.

    Every count formed is of pairs (configuration of the first i rows,
    switch row in 0..i) with i <= rows, so at most (rows + 1) times the
    Narayana number of K_{m,rows}; ``cells`` must be built with that bound.
    """
    ds = [c - b for c in range(m) for b in range(c + 1)]
    empty = [0] * (len(ds) - 1)
    before = [cells.step(1, q + 1)] + empty  # row 1 is the state (0, 0)
    after = [cells.step(1, q)] + empty
    yield after
    for _ in range(rows - 1):
        if not any(before) and not any(after):
            return
        sums_before, sums_after = _prefix_sums(before, m), _prefix_sums(after, m)
        before = [cells.step(t, q + 1 - d) for t, d in zip(sums_before, ds)]
        after = [cells.step(s + t, q - d) for s, t, d in zip(sums_before, sums_after, ds)]
        yield after


def _narayana(m: int, n: int) -> int:
    """The number of parking sorted partial configurations of K_{m,n}."""
    k = m + n - 1
    return math.comb(k, m) * math.comb(k, m - 1) // k


def _q_values(m: int, rows: range, band: tuple[int, int]) -> range:
    """The Q whose runs can end, at some n in rows, with ypara - xpara =
    sink + 1 - D = nQ + R - D in the band; 0 <= R < n and
    0 <= D <= (n - 1)(m - 1), since d_1 = 0."""
    lo, hi = band
    first = min(-((n - 1 - lo) // n) for n in rows)
    return range(first, max((hi + (n - 1) * (m - 1)) // n for n in rows) + 1)


def _parking_counts(
    who: str, ms: range, rows: range, band: tuple[int, int], cap_x: int, cap_y: int
) -> dict[tuple[int, int], dict[tuple[int, int], int]]:
    """For each m in ms and n in rows, the counts of full parking sorted
    configurations of K_{m,n} by (xpara, ypara) within the caps, from one
    ``_row_transfer`` per (m, Q) over rows[-1] rows.  Counts with
    ypara - xpara outside the band may be missing.

    Refuses, before any work, when the size of that work, rows times Q
    values times (c, b) states times cells within the caps, summed over m,
    exceeds TRANSFER_GUARD."""
    runs = sum(len(_q_values(m, rows, band)) * m * (m + 1) // 2 for m in ms)
    work = rows[-1] * runs * (cap_x + 1) * (cap_y + 1)
    if work > TRANSFER_GUARD:
        raise SandpileError(f"{who}: {work} transfer steps exceed the guard")
    out = {}
    for m in ms:
        cells = _Cells(cap_x, cap_y, (rows[-1] + 1) * _narayana(m, rows[-1]))
        totals = {n: 0 for n in rows}
        for q in _q_values(m, rows, band):
            for n, tables in enumerate(_row_transfer(m, q, rows[-1], cells), 1):
                if n in totals:
                    totals[n] += sum(tables)
        out.update({(m, n): cells.unpack(total) for n, total in totals.items()})
    return out


def degree_rank_table(
    shape: GraphShape, degree_window: tuple[int, int]
) -> dict[tuple[int, int], int]:
    """Counts of full parking sorted configurations by (degree, rank), the
    sink running over the given inclusive degree window.

    Every degree has one configuration per parking sorted partial one.
    Below degree 0 the rank is -1 and above 2g - 2 it is degree - g,
    g = (m-1)(n-1) (Riemann-Roch).  The part low..high of the window inside
    0..2g-2 is read off one transfer: (degree, rank) =
    (g - 1 - xpara + ypara, ypara - 1), and the window is its band on
    ypara - xpara.  There rank <= degree / 2 (Clifford's theorem, which
    Riemann-Roch gives for graphs as for curves), so every count lies within
    the caps xpara = g - degree + rank <= g - ceil(low / 2) and
    ypara <= floor(high / 2) + 1.
    """
    lo, hi = degree_window
    m, n = shape.m, shape.n
    g = (m - 1) * (n - 1)
    narayana = _narayana(m, n)
    counts = {(d, -1): narayana for d in range(lo, min(hi, -1) + 1)}
    counts.update({(d, d - g): narayana for d in range(max(lo, 2 * g - 1, 0), hi + 1)})
    low, high = max(lo, 0), min(hi, 2 * g - 2)
    if low <= high:
        band, cap_x, cap_y = (low - g + 1, high - g + 1), g - (low + 1) // 2, high // 2 + 1
        table = _parking_counts("degree_rank_table", range(m, m + 1), range(n, n + 1), band,
                                cap_x, cap_y)[m, n]
        for (xp, yp), c in table.items():
            if low <= g - 1 - xp + yp <= high:
                counts[g - 1 - xp + yp, yp - 1] = c
    return counts


def xy_table(shape: GraphShape, ring: SeriesRing) -> TruncatedSeries:
    """Generating function of (xpara, ypara) over all full parking sorted
    configurations, truncated to the ring's x/y caps, from the row transfer
    (see ``_row_transfer``)."""
    ix, iy = ring.index("x"), ring.index("y")
    cap_x, cap_y = ring.caps[ix], ring.caps[iy]
    m, n = shape.m, shape.n
    table = _parking_counts("xy_table", range(m, m + 1), range(n, n + 1), (-cap_x, cap_y),
                            cap_x, cap_y)[m, n]
    out: dict[tuple[int, ...], int] = {}
    for (xp, yp), c in table.items():
        key = [0] * len(ring.variables)
        key[ix] = xp
        key[iy] = yp
        out[tuple(key)] = c
    return TruncatedSeries(ring, out)


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
    width_cap = ring.caps[ring.index("w")]
    height_cap = ring.caps[ring.index("h")]
    area_cap = cell_cap + (height_cap if weights.height_offset < 0 else 0)
    counts = polyomino_counts(area_cap, width_cap, height_cap)
    out: dict[tuple[int, ...], int] = {}
    for (area, width, height), cnt in counts.items():
        cell_exp = area + weights.height_offset * height
        key = [0] * len(ring.variables)
        key[ring.index(weights.cell_var)] = cell_exp
        key[ring.index("w")] = width
        key[ring.index("h")] = height
        out[tuple(key)] = out.get(tuple(key), 0) + cnt
    return ring.from_coeffs(out)


def l_series(ring: SeriesRing) -> TruncatedSeries:
    """The alternating double series whose quotient reproduces the polyomino
    counts: sum over (j,k) of (-1)^(j+k) w^j h^k q^C(j+k+1,2) / ((q)_k (q)_j)."""
    wcap = ring.caps[ring.index("w")]
    hcap = ring.caps[ring.index("h")]
    qcap = ring.caps[ring.index("q")]
    total = ring.zero()
    for j in range(wcap + 1):
        for k in range(hcap + 1):
            e = (j + k + 1) * (j + k) // 2
            if e > qcap:
                continue
            term = ring.monomial({"q": e, "w": j, "h": k}, (-1) ** (j + k))
            total = total + term / (_pochhammer(ring, k) * _pochhammer(ring, j))
    return total


def _pochhammer(ring: SeriesRing, k: int) -> TruncatedSeries:
    """(q)_k = prod_{i=1..k} (1 - q^i); the empty product for k = 0."""
    out = ring.one()
    for i in range(1, k + 1):
        out = out * (ring.one() - ring.monomial({"q": i}))
    return out


def polyomino_series_via_l(ring: SeriesRing) -> TruncatedSeries:
    """q*w*h * L(qw, qh) / L(w, h), the closed-form route to the counts."""
    ell = l_series(ring)
    twisted = ell.absorb_into("q", ("w", "h"))
    return ring.monomial({"q": 1, "w": 1, "h": 1}) * twisted / ell


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
    pairs.  Each is divided by its denominator's two factors in turn, the
    long one first and 1 - w last: a division sweep costs the quotient's keys
    times the divisor's tail terms."""
    one = ring.one()
    w, h = ring.var("w"), ring.var("h")
    hx = ring.monomial({"h": 1, "x": 1})
    hw = ring.monomial({"h": 1, "w": 1})
    xw = ring.monomial({"x": 1, "w": 1})
    px = polyomino_series(PolyominoWeights("x"), ring)
    py = polyomino_series(PolyominoWeights("y"), ring)
    pxt = polyomino_series(PolyominoWeights("x", height_offset=1), ring)
    pyt = polyomino_series(PolyominoWeights("y", height_offset=-1), ring)

    minus = px * py / (one - h - w - px - py) / (one - w)
    plus_num = (
        (one - hx - w) * hw
        + (w - h) * pxt * pyt
        + (one - hx - w + xw) * h * pyt
        - hw * pxt
    )
    plus = plus_num / (one - w - hx - pyt - pxt) / (one - w)
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
    """Coefficientwise comparison; a mismatch reports the differing key of
    lowest total degree, ties broken by the exponent tuple."""
    if lhs.ring != rhs.ring:
        raise SandpileError("compare_series: rings differ")
    left, right = lhs.coeffs, rhs.coeffs
    if left == right:
        return GfReport(True, len(left))
    keys = left.keys() | right.keys()
    differing = [key for key in keys if left.get(key, 0) != right.get(key, 0)]
    if not differing:
        return GfReport(True, len(keys))
    key = min(differing, key=lambda k: (sum(k), k))
    exponents = dict(zip(lhs.ring.variables, key))
    return GfReport(False, len(keys), exponents, left.get(key, 0), right.get(key, 0))


def family_series(mmax: int, nmax: int, ring: SeriesRing) -> TruncatedSeries:
    """Sum over shapes of the xpara/ypara table times w^m h^n (the left-hand
    side of the main identity, exact for all w,h exponents within caps): one
    row transfer per (m, Q) over nmax rows gives every n <= nmax.  Shapes
    past the w or h cap are not counted, and the transfer keeps only the
    non-zero counts within the x/y caps, so the series is built directly."""
    ix, iy, iw, ih = (ring.index(v) for v in ("x", "y", "w", "h"))
    cap_x, cap_y = ring.caps[ix], ring.caps[iy]
    mmax, nmax = min(mmax, ring.caps[iw]), min(nmax, ring.caps[ih])
    if mmax < 1 or nmax < 1:
        return ring.zero()
    tables = _parking_counts("family_series", range(1, mmax + 1), range(1, nmax + 1),
                             (-cap_x, cap_y), cap_x, cap_y)
    out: dict[tuple[int, ...], int] = {}
    for (m, n), table in tables.items():
        for (xp, yp), c in table.items():
            key = [0] * len(ring.variables)
            key[ix], key[iy], key[iw], key[ih] = xp, yp, m, n
            out[tuple(key)] = c
    return TruncatedSeries(ring, out)


def gf_closed_form(ring: SeriesRing) -> TruncatedSeries:
    """(1-xy)(hw - P(x)P(y)) / ((1-x)(1-y)(1-h-w-P(x)-P(y))), built one (x, y)
    exponent slice at a time, with no series product or division.

    Write Z = (hw - P(x)P(y)) / (1-h-w-P(x)-P(y)) as the sum of Z_ij x^i y^j,
    each Z_ij a table over (w, h), and P_a for the table of the polyominoes
    of area a.  The denominator is linear in the polyomino factor, so the
    x^i y^j coefficient of denominator times Z gives

        (1-h-w) Z_ij = N_ij + sum_{a=1..i} P_a Z_{i-a,j} + sum_{b=1..j} P_b Z_{i,j-b}

    with N_00 = hw, N_ij = -P_i P_j for i, j >= 1 and N_ij = 0 otherwise.
    Dividing a table s by 1-h-w is one running-sum pass,
    z[w,h] = s[w,h] + z[w-1,h] + z[w,h-1].  Numerator and denominator are
    symmetric in x <-> y, so Z_ij = Z_ji: a slice is copied from its mirror
    wherever that lies within the caps, which may differ.  The prefactor
    (1-xy)/((1-x)(1-y)) has coefficient 1 exactly on the two axes, so the
    x^i y^j slice of the result is F_ij = sum_{k<=i} Z_kj + sum_{l<j} Z_il,
    two running sums over the slices.
    """
    ix, iy, iw, ih = (ring.index(v) for v in ("x", "y", "w", "h"))
    cap_x, cap_y, cap_w, cap_h = (ring.caps[i] for i in (ix, iy, iw, ih))
    # a (w, h) table is a flat list with cell (w, h) at w * stride + h; every
    # term has w, h >= 1, so row and column 0 stay 0
    stride = cap_h + 1
    size = (cap_w + 1) * stride
    cells = [(w, h, w * stride + h) for w in range(1, cap_w + 1) for h in range(1, cap_h + 1)]
    poly: list[list[tuple[int, int, int, int]]] = [[] for _ in range(max(cap_x, cap_y) + 1)]
    for (a, pw, ph), c in polyomino_counts(len(poly) - 1, cap_w, cap_h).items():
        poly[a].append((pw, ph, pw * stride + ph, c))
    # z[i][j]: the non-zero cells (w, h, index, value) of Z_ij by rising w
    z: list[list[list]] = [[[] for _ in range(cap_y + 1)] for _ in range(cap_x + 1)]
    for i in range(cap_x + 1):
        for j in range(cap_y + 1):
            if j < i <= cap_y:
                z[i][j] = z[j][i]
                continue
            table = [0] * size
            if i == j == 0 and cells:
                table[stride + 1] = 1  # N_00 = hw
            elif i and j:  # N_ij = -P_i P_j
                for pw, ph, off, c in poly[i]:
                    for qw, qh, off2, d in poly[j]:
                        if pw + qw <= cap_w and ph + qh <= cap_h:
                            table[off + off2] -= c * d
            earlier = [(poly[a], z[i - a][j]) for a in range(1, i + 1)]
            earlier += [(poly[b], z[i][j - b]) for b in range(1, j + 1)]
            for terms, known in earlier:
                for pw, ph, off, c in terms:
                    max_w, max_h = cap_w - pw, cap_h - ph
                    for w, h, k, v in known:
                        if w > max_w:
                            break
                        if h <= max_h:
                            table[k + off] += c * v
            found = []
            for w, h, k in cells:
                v = table[k] = table[k] + table[k - stride] + table[k - 1]
                if v:
                    found.append((w, h, k, v))
            z[i][j] = found
    out: dict[tuple[int, ...], int] = {}
    key = [0] * len(ring.variables)
    columns = [[0] * size for _ in range(cap_y + 1)]  # columns[j]: sum of Z_kj, k <= i
    for i in range(cap_x + 1):
        row = [0] * size  # sum of Z_il, l < j
        key[ix] = i
        for j in range(cap_y + 1):
            column = columns[j]
            for _, _, k, v in z[i][j]:
                column[k] += v
            key[iy] = j
            for w, h, k in cells:
                c = column[k] + row[k]
                if c:
                    key[iw], key[ih] = w, h
                    out[tuple(key)] = c
            for _, _, k, v in z[i][j]:
                row[k] += v
    return TruncatedSeries(ring, out)


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
    per_shape = Counter((k[iw], k[ih]) for k in lhs.coeffs.keys() | rhs.coeffs.keys())
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
