"""Cylindric diagrams: the rank loop's cell labels on the rolled strip.

For a parking sorted configuration the rank loop visits one cell per sink
unit; rolling the periodic diagram into an n-row strip puts the cell labelled
s at column u_{b_{t+1}} + q, row t, where s = qn + t by floor division.  The
red path cuts the strip into a left and a right component; the rank counts
visited right cells, and the pair of statistics below refines that count.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Configuration, SandpileError, degree
from .rank import is_parking_sorted, rank_parking_sorted, row_gaps
from .series import SeriesRing, TruncatedSeries


@dataclass(frozen=True)
class CylCell:
    """One labelled cell of the rolled strip."""

    s: int
    column: int
    row: int
    side: str  # "left" or "right" of the red cut


@dataclass(frozen=True)
class BoundarySets:
    """Sink values where consecutive labels switch sides: s_plus collects the
    left-to-right switches, s_minus the right-to-left ones.  Along the whole
    label line they interleave and |s_plus| = |s_minus| + 1."""

    s_plus: tuple[int, ...]
    s_minus: tuple[int, ...]


def _require_parking(u: Configuration, who: str) -> None:
    if not is_parking_sorted(u):
        raise SandpileError(f"{who} expects a parking sorted configuration")


def label_cells(u: Configuration, labels) -> list[CylCell]:
    """The cells carrying these labels, each with its side of the red cut:
    label s = qn + t sits in row t at column b_t + q, which is right of the
    red cut exactly when q >= 1 - r_t for the row gap r_t."""
    _require_parking(u, "label_cells")
    b, n = u.b, u.shape.n
    gaps = row_gaps(u.a, b, n)
    cells = []
    for s in labels:
        q, t = divmod(s, n)
        cells.append(CylCell(s, b[t] + q, t, "right" if q + gaps[t] >= 1 else "left"))
    return cells


def label_cell(u: Configuration, s: int) -> CylCell:
    """The cell carrying label s, with its side of the red cut."""
    return label_cells(u, (s,))[0]


def rank_via_cylindric(u: Configuration) -> int:
    """Rank as -1 plus the number of right-side labels in [0, sink]."""
    visited = label_cells(u, range(u.require_sink() + 1))
    return sum(cell.side == "right" for cell in visited) - 1


def xpara(u: Configuration) -> int:
    """Unvisited left cells; equals (m-1)(n-1) + rank - degree.  u must be
    full and parking sorted; rank_parking_sorted checks both."""
    m, n = u.shape.m, u.shape.n
    return (m - 1) * (n - 1) + rank_parking_sorted(u) - degree(u)


def ypara(u: Configuration) -> int:
    """Visited right cells; equals rank + 1.  u must be full and parking
    sorted; rank_parking_sorted checks both."""
    return rank_parking_sorted(u) + 1


def xpara_by_counting(u: Configuration) -> int:
    """xpara straight from the cells: the left labels above the sink, all
    below (m-1)n since left cells have q <= m-2 (see boundary_sets)."""
    unvisited = label_cells(u, range(u.require_sink() + 1, (u.shape.m - 1) * u.shape.n))
    return sum(cell.side == "left" for cell in unvisited)


def ypara_by_counting(u: Configuration) -> int:
    """ypara straight from the cells (same counting as rank_via_cylindric)."""
    return rank_via_cylindric(u) + 1


def boundary_sets(u: Configuration) -> BoundarySets:
    """Scan labels over [-1, nm+n] collecting the side switches.

    The window suffices: right cells never carry negative labels (parking
    keeps every gap <= 1) and left cells have q <= m-2; both facts are checked
    on the fly while scanning.
    """
    _require_parking(u, "boundary_sets")
    m, n = u.shape.m, u.shape.n
    gaps = row_gaps(u.a, u.b, n)
    lo, hi = -1, n * m + n

    def side_right(s: int) -> bool:
        q, t = divmod(s, n)
        right = q + gaps[t] >= 1
        if right and s < 0:
            raise RuntimeError("right cell with negative label; window bound violated")
        if not right and q > m - 2:
            raise RuntimeError("left cell beyond the window; window bound violated")
        return right

    s_plus, s_minus = [], []
    prev = side_right(lo)
    for s in range(lo + 1, hi + 1):
        cur = side_right(s)
        if cur and not prev:
            s_plus.append(s - 1)
        elif prev and not cur:
            s_minus.append(s - 1)
        prev = cur
    return BoundarySets(tuple(s_plus), tuple(s_minus))


def sink_series(u: Configuration, ring: SeriesRing) -> TruncatedSeries:
    """Generating function of (xpara, ypara) over every sink value, as a
    truncated series in the ring's x and y.

    Uses the closed form: the boundary sinks contribute an alternating sum of
    monomials, and the geometric runs between them are restored by the factor
    (1-xy)/((1-x)(1-y)).
    """
    _require_parking(u, "sink_series")
    bnd = boundary_sets(u.with_sink(None))
    acc = ring.zero()
    for s in bnd.s_plus:
        acc = acc + _stat_monomial(u, s, ring)
    for s in bnd.s_minus:
        acc = acc - _stat_monomial(u, s, ring)
    return axes_prefactor(ring) * acc


def sink_series_direct(u: Configuration, ring: SeriesRing) -> TruncatedSeries:
    """Same series by brute summation over the finitely many contributing
    sink values (xpara decreases and ypara increases with the sink, so both
    scan directions stop once they leave the caps)."""
    cap_x = ring.caps[ring.index("x")]
    cap_y = ring.caps[ring.index("y")]
    acc = ring.zero()
    s = 0
    if xpara(u.with_sink(0)) <= cap_x:
        while xpara(u.with_sink(s - 1)) <= cap_x:
            s -= 1
    else:
        while xpara(u.with_sink(s)) > cap_x:
            s += 1
    while True:
        v = u.with_sink(s)
        yp = ypara(v)
        if yp > cap_y:
            break
        xp = xpara(v)
        if xp <= cap_x:
            acc = acc + ring.monomial({"x": xp, "y": yp})
        s += 1
    return acc


def _stat_monomial(u: Configuration, sink: int, ring: SeriesRing) -> TruncatedSeries:
    v = u.with_sink(sink)
    return ring.monomial({"x": xpara(v), "y": ypara(v)})


def axes_prefactor(ring: SeriesRing) -> TruncatedSeries:
    """(1-xy)/((1-x)(1-y)): coefficient 1 exactly on the two axes."""
    one = ring.one()
    return (one - ring.monomial({"x": 1, "y": 1})) / ((one - ring.var("x")) * (one - ring.var("y")))
