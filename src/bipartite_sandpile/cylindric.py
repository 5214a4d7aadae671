"""Cylindric diagrams: the rank loop's cell labels on the rolled strip.

For a parking sorted configuration the rank loop visits one cell per sink
unit; rolling the periodic diagram into an n-row strip puts the cell labelled
s at column u_{b_{t+1}} + q, row t, where s = qn + t by floor division.  The
red path cuts the strip into a left and a right component; the rank counts
visited right cells, and the pair of statistics below refines that count.
Each public function checks once that its input is parking sorted and reads
the sides, the boundary sinks and the statistics off the row gaps.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Configuration, GraphShape, SandpileError, degree
from .rank import is_parking_sorted, rank_from_gaps, rank_parking_sorted, row_gaps
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


def _parking_gaps(u: Configuration, who: str) -> list[int]:
    """The row gaps of u, after checking that u is parking sorted."""
    if not is_parking_sorted(u):
        raise SandpileError(f"{who} expects a parking sorted configuration")
    return row_gaps(u.a, u.b, u.shape.n)


def label_cells(u: Configuration, labels) -> list[CylCell]:
    """The cells carrying these labels, each with its side of the red cut:
    label s = qn + t sits in row t at column b_t + q, which is right of the
    red cut exactly when q >= 1 - r_t for the row gap r_t."""
    gaps = _parking_gaps(u, "label_cells")
    b, n = u.b, u.shape.n
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
    return _xpara(u.shape, rank_parking_sorted(u), degree(u))


def _xpara(shape: GraphShape, rank: int, deg: int) -> int:
    return (shape.m - 1) * (shape.n - 1) + rank - deg


def ypara(u: Configuration) -> int:
    """Visited right cells; equals rank + 1.  u must be full and parking
    sorted; rank_parking_sorted checks both."""
    return rank_parking_sorted(u) + 1


def xpara_by_counting(u: Configuration) -> int:
    """xpara straight from the cells: the left labels above the sink.  They
    all lie below (m-1)n: label qn + t is left exactly when q < 1 - r_t, and
    r_t = b_t + 1 - c_t >= 2 - m since b_t >= 0 and the red column
    c_t <= m-1, so a left cell has q <= m-2."""
    unvisited = label_cells(u, range(u.require_sink() + 1, (u.shape.m - 1) * u.shape.n))
    return sum(cell.side == "left" for cell in unvisited)


def ypara_by_counting(u: Configuration) -> int:
    """ypara straight from the cells (same counting as rank_via_cylindric)."""
    return rank_via_cylindric(u) + 1


def boundary_sets(u: Configuration) -> BoundarySets:
    """The side switches along the label line, read off the row gaps.

    Label qn + t is right of the red cut exactly when q >= d_t = 1 - r_t.
    The label after qn + t is qn + t + 1 in row t + 1, or, after row n-1,
    (q+1)n in row 0, which is right when q >= d_0 - 1; so with d_n read as
    d_0 - 1, label qn + t switches left to right when d_(t+1) <= q < d_t
    and right to left when d_t <= q < d_(t+1).  Parking keeps every gap <= 1,
    so d_t >= 0 = d_0 and no right cell carries a negative label; the lowest
    switch is -1, left of the right label 0.
    """
    return _switches(_parking_gaps(u, "boundary_sets"))


def _switches(gaps: list[int]) -> BoundarySets:
    """boundary_sets from the row gaps; no validation."""
    n = len(gaps)
    d = [1 - r for r in gaps]
    d.append(d[0] - 1)
    s_plus = sorted(q * n + t for t in range(n) for q in range(d[t + 1], d[t]))
    s_minus = sorted(q * n + t for t in range(n) for q in range(d[t], d[t + 1]))
    return BoundarySets(tuple(s_plus), tuple(s_minus))


def sink_series(u: Configuration, ring: SeriesRing) -> TruncatedSeries:
    """Generating function of (xpara, ypara) over every sink value, as a
    truncated series in the ring's x and y.

    Uses the closed form: the boundary sinks contribute an alternating sum of
    monomials, and the geometric runs between them are restored by the factor
    (1-xy)/((1-x)(1-y)).  Both statistics of each boundary sink come from
    the row gaps through the rank formula.
    """
    gaps = _parking_gaps(u, "sink_series")
    chips = sum(u.a) + sum(u.b)

    def monomial(sink: int) -> TruncatedSeries:
        rank = rank_from_gaps(gaps, sink)
        return ring.monomial({"x": _xpara(u.shape, rank, chips + sink), "y": rank + 1})

    bnd = _switches(gaps)
    acc = ring.zero()
    for s in bnd.s_plus:
        acc = acc + monomial(s)
    for s in bnd.s_minus:
        acc = acc - monomial(s)
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


def axes_prefactor(ring: SeriesRing) -> TruncatedSeries:
    """(1-xy)/((1-x)(1-y)): coefficient 1 exactly on the two axes."""
    one = ring.one()
    return (one - ring.monomial({"x": 1, "y": 1})) / ((one - ring.var("x")) * (one - ring.var("y")))
