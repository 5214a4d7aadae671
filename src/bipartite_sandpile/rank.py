"""Rank computation on K_{m,n}: row-gap vectors, grid-shift operators, the
closed-form parking map, the rank formula with its linear-time proof, and two
reference rank algorithms (greedy and scan) that check it.

Everything here works on sorted configurations.  The graphical picture behind
the code: a stable sorted configuration is a pair of monotone lattice paths in
an m x n grid (green path from the b-part, red path from the a-part), and the
operators below slide that grid along the doubly periodic continuation of the
two paths.

One function moves the grid: ``_grid_shift(u, k_a, k_b)`` is east^k_a
north^k_b, each part rotated by its own exponent (a value that wraps gaining
the part's degree) and lowered by the other's.  The four one-step shifts, the
moves toward the parking and recurrent representatives, the scan and the
parking map all call it.  Parking is east^c north^h, with h the first row of
the largest gap r_h and c = b_h - r_h + 1, followed by r_h - 1 reverse
topplings of the sink, which lower every b-value by r_h - 1.

Every row-shaped quantity derives from one row geometry.  Row i has its
green north step at column b_i + 1 and its red north step at its red column
c_i, the number of a-values <= i-2; ``red_columns`` computes c_1..c_n from
the a-part's histogram, and no other code counts a-values per row.  The row
gap is r_i = b_i + 1 - c_i, and row i of the intersection area, the cells
under the red path (the sink column at full height) and left of the green
path, is the column interval c_i + 1 .. b_i + 1.  So u is parking when no
row holds two cells, and recurrent when the intervals chain from the bottom
left corner to the top right one: b_n = m - 1 and c_(i+1) <= b_i for i < n.
Since c_1 = 0 and the red columns never decrease, every row is then
non-empty.

Validation happens once, at the public boundary.  The public functions take a
Configuration, check what they require of it (stable, sorted, parking, a
sink) and hand plain tuples or lists to kernels that trust their input:
``red_columns``/``row_gaps``, the parking slide ``_slide`` and the rank
formula ``rank_from_gaps`` here, ``stable_counts``/``stable_parts``/
``value_counts``/``from_counts`` in ``core``.  ``rank_of``,
``is_effective``, ``verify_rank_proof``, ``parking_representative`` and
``rank_with_proof`` run stabilize, counting sort, row gaps and slide as one
pass over these kernels (``_park_pass``).  ``stable_counts`` stabilizes
and counts each part a chunk at a time, so no stable part is ever held
whole; no Configuration or sorted part is built in between, and each gap is
computed once.  ``stable_parts``, which keeps the stable value of every
vertex, serves ``stabilize`` and ``rank_greedy``.  The algorithm's own
"cannot happen" checks, that the parked parts are sorted and stable and the
parked gaps at most 1, are made in that pass and raise RuntimeError.

Let h be the first row with the largest gap r_h, b_h its b-value and c the
number of a-values below its red step, so that r_h = b_h + 1 - c.  The
parking slide makes row h the first row: every green column drops by b_h
and every red column by c, so each gap drops by r_h - 1, and rows 1..h-1
move past the last row, where their green column gains m and their red
column m - 1.  The parked gaps are therefore

    r_h - r_h + 1, ..., r_n - r_h + 1,  r_1 - r_h + 2, ..., r_(h-1) - r_h + 2,

all at most 1 because no earlier row reaches r_h, and the parked sink
gains n(r_h - 1) - h by degree conservation.  ``_slide`` finds h and r_h
and moves the sink; ``_parked_gaps`` lists the parked gaps, which only
``rank_with_proof`` (to report them) and ``rank_greedy`` (to step them)
need.

The rank is read off the gaps before the slide.  Write sink+1 = nQ+R and
r_0..r_(n-1) for the row gaps of a stable sorted configuration (0-based
rows).  Row i contributes t_i = max(0, Q + [i < R] + r_i - 1), and the rank
is the sum of the t_i minus 1: on parked gaps t_i counts the cells of row i
that the rank loop visits right of the red path, and the slide keeps every
summand.  Row i becomes parked row j = (i - h) mod n with gap
r_i - r_h + 1 + [i < h], and the parked sink s' has s'+1 =
n(Q + r_h - 1) + R - h.  If R >= h, then s'+1 = nQ'+R' with
Q' = Q + r_h - 1, R' = R - h, and j < R' exactly when h <= i < R; if
R < h, then Q' = Q + r_h - 2, R' = R - h + n, and j < R' exactly when
i >= h or i < R.  Either way Q' + [j < R'] + (r_i - r_h + 1 + [i < h]) - 1
= Q + [i < R] + r_i - 1.  So the formula needs neither the parked gaps nor
h: it sums the rows before R and the rows from R on with one filter each.
When the parked sink is negative every t_i is 0 and the rank is -1.

The rank certificate comes from the same pass.  Let sigma be the stable
sort permutation of the stabilized b-values (slot -> input b-label), so
that slot i holds the b-value of row i.  Then

    f(b_sigma(i)) = t_i,  f = 0 on the a-part and the sink,

is a proof of the rank: f >= 0, deg f = rank + 1 and u - f is not
effective.  It is label for label the proof that the greedy loop
(``rank_greedy``) builds by rank + 1 chip removals and re-parks, where slot
i is parked row i - h with the same summand.  It costs one counting sort of
the b-values, so ``rank_with_proof`` is O(m+n); ``verify_rank_proof``
checks a proof with one more pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain, islice, repeat
from operator import add, le, sub
from typing import Iterator, NamedTuple

from .core import (
    Configuration,
    GraphShape,
    ProofOfRank,
    SandpileError,
    config,
    from_counts,
    is_compact,
    is_sorted,
    stable_counts,
    stable_parts,
    value_counts,
)


@dataclass(frozen=True)
class RVector:
    """Per-row gap between the green and red paths of a stable sorted
    configuration: entry i is (green column in row i) - (red column in row i).

    Row i of the intersection area holds max(0, entries[i-1]) cells, so the
    configuration is parking exactly when every entry is at most 1.
    """

    entries: tuple[int, ...]
    shape: GraphShape


@dataclass(frozen=True)
class RankCertificate:
    """Everything ``rank --proof`` reports about a full configuration: its
    rank, its sorted parking representative, that representative's row gaps
    and a proof of the rank on the input's own vertex labels."""

    rank: int
    parking: Configuration
    gaps: RVector
    proof: ProofOfRank


@dataclass(frozen=True)
class GridShift:
    """Unique pair of east/north shift exponents taking the parking sorted
    representative back to a compact sorted configuration."""

    k_a: int
    k_b: int


# ---------------------------------------------------------------------------
# row gaps


def red_columns(a_counts: list[int]) -> Iterator[int]:
    """The red columns c_1..c_n from the histogram of the a-values over
    [0, n); no validation.  An iterator, so that the linear-time pipeline
    holds no list of them."""
    return accumulate(islice(a_counts, len(a_counts) - 1), initial=0)


def row_gaps(a, b, n: int) -> list[int]:
    """Row gaps b_i + 1 - c_i of sorted parts, a-values in [0, n); no
    validation."""
    return list(map(sub, map(_plus_one, b), red_columns(value_counts(n - 1, a))))


_plus_one = (1).__add__


def _gaps_from_counts(a_counts: list[int], b_counts: list[int]) -> list[int]:
    """row_gaps from the histograms of both parts, the sorted b-part never
    built.  With B(v) the number of b-values <= v, b_i (0-based i) is the
    number of v < m - 1 with B(v) <= i, so the green columns b_i + 1 are the
    running sums of the histogram of B(0..m-2), plus 1."""
    green = value_counts(len(a_counts), accumulate(islice(b_counts, len(b_counts) - 1)))
    green[0] += 1
    return list(map(sub, accumulate(green), red_columns(a_counts)))


def _ends_within(u: Configuration, b_low: int) -> bool:
    """For sorted parts: a-values in [0, n) and b-values in [b_low, m)."""
    a, b = u.a, u.b
    return (not a or (a[0] >= 0 and a[-1] < u.shape.n)) and b[0] >= b_low and b[-1] < u.shape.m


def _require_stable_sorted(u: Configuration, who: str) -> None:
    if not (is_sorted(u) and _ends_within(u, 0)):
        raise SandpileError(f"{who} expects a stable sorted configuration")


def _checked_gaps(u: Configuration, who: str) -> list[int]:
    _require_stable_sorted(u, who)
    return row_gaps(u.a, u.b, u.shape.n)


def _parking_gaps(u: Configuration, who: str) -> list[int]:
    gaps = _checked_gaps(u, who)
    if max(gaps) > 1:
        raise SandpileError(f"{who} expects a parking sorted configuration")
    return gaps


def r_vector(u: Configuration) -> RVector:
    """Row-gap vector of a stable sorted configuration (sink ignored)."""
    return RVector(tuple(_checked_gaps(u, "r_vector")), u.shape)


def is_parking_sorted(u: Configuration) -> bool:
    """No row of the intersection area holds two cells: all row gaps <= 1."""
    return max(_checked_gaps(u, "is_parking_sorted")) <= 1


def is_recurrent_sorted(u: Configuration) -> bool:
    """Intersection area edge-connected and touching both extreme corners:
    b_n = m - 1 and c_(i+1) <= b_i for i < n (see the module docstring)."""
    _require_stable_sorted(u, "is_recurrent_sorted")
    red = red_columns(value_counts(u.shape.n - 1, u.a))
    return u.b[-1] == u.shape.m - 1 and all(map(le, islice(red, 1, None), u.b))


# ---------------------------------------------------------------------------
# grid-shift operators (east/north moves of the grid on the periodic diagram)


def _require_compact_sorted(u: Configuration, who: str) -> None:
    if not (is_sorted(u) and is_compact(u)):
        raise SandpileError(f"{who} expects a compact sorted configuration")


def shift_east(u: Configuration) -> Configuration:
    """Move the grid one step east: the sorted form of one reverse toppling of
    the smallest a-vertex.  Cycles the a-part and lowers the whole b-part."""
    _require_compact_sorted(u, "shift_east")
    return _grid_shift(u, 1, 0)


def shift_west(u: Configuration) -> Configuration:
    """Inverse of shift_east."""
    _require_compact_sorted(u, "shift_west")
    return _grid_shift(u, -1, 0)


def shift_north(u: Configuration) -> Configuration:
    """Move the grid one step north: cycles the b-part, lowers the a-part and
    the sink (when present) by one."""
    _require_compact_sorted(u, "shift_north")
    return _grid_shift(u, 0, 1)


def shift_south(u: Configuration) -> Configuration:
    """Inverse of shift_north."""
    _require_compact_sorted(u, "shift_south")
    return _grid_shift(u, 0, -1)


def _grid_shift(u: Configuration, k_a: int, k_b: int) -> Configuration:
    """east^k_a north^k_b of a compact sorted configuration in O(m+n).  The
    two moves commute: each part rotates by its own exponent, a value that
    wraps past the end gaining the part's degree, and drops by the other."""

    def rotate(values, k, degree, drop):
        if not values:
            return values
        q, k = divmod(k, len(values))
        low, high = degree * q - drop, degree * (q + 1) - drop
        wrapped = [v + high for v in islice(values, k)]
        return tuple([v + low for v in islice(values, k, None)] + wrapped)

    m, n = u.shape.m, u.shape.n
    sink = None if u.sink is None else u.sink - k_b
    return Configuration(u.shape, rotate(u.a, k_a, n, k_b), sink, rotate(u.b, k_b, m, k_a))


# ---------------------------------------------------------------------------
# one-step moves toward the parking / recurrent representative


def next_toward_parking(u: Configuration) -> Configuration:
    """One grid slide southwest to the previous stable configuration; fixed
    points are exactly the parking sorted configurations.

    The designated double cell sits in the highest row j with gap >= 2 whose
    red north step is reachable by the green path (the green north step of
    row j-1 weakly left of it); the move topples the a-suffix from the
    leftmost cell of that row and the b-suffix from that row upward.
    """
    _require_stable_sorted(u, "next_toward_parking")
    m, n, b = u.shape.m, u.shape.n, u.b
    red = list(red_columns(value_counts(n - 1, u.a)))
    row = -1
    for t in range(n):  # 0-based rows; gap b_t + 1 - red_t >= 2
        if b[t] > red[t] and (t == 0 or b[t - 1] <= red[t]):
            row = t
    if row < 0:
        return u
    # sorted, toppling the a-values from column red_row on and the b-values
    # from row on is west^(m - 1 - red_row) south^(n - row)
    return _grid_shift(u, red[row] + 1 - m, row - n)


def next_toward_recurrent(u: Configuration) -> Configuration:
    """One grid slide northeast to the next stable configuration; fixed points
    are exactly the recurrent sorted configurations.

    The dual of ``next_toward_parking``: the move is east^c north^t for the
    lowest row t in 1..n whose red column c = c_t lies in the green path's
    run (b_(t-1), b_t] into that row, where row n closes the cycle with
    c_n = m - 1 and b_n = b_0 + m.  No row qualifies exactly when the
    configuration is recurrent sorted.
    """
    _require_stable_sorted(u, "next_toward_recurrent")
    m, n = u.shape.m, u.shape.n
    red = list(red_columns(value_counts(n - 1, u.a))) + [m - 1]
    b = u.b + (u.b[0] + m,)
    for t in range(1, n + 1):  # 0-based rows, as in next_toward_parking
        if b[t - 1] < red[t] <= b[t]:
            return _grid_shift(u, red[t], t)
    return u


# ---------------------------------------------------------------------------
# closed-form parking map (linear time)


def park_sort(u: Configuration) -> Configuration:
    """Sorted parking representative of a sorted configuration, in O(m+n).

    Accepts the slightly relaxed precondition needed by the greedy step:
    a-values in [0, n), b-values in [-1, m), both parts sorted.  Picks the
    first row attaining the maximal gap, slides the grid there in one shot
    (``_park``) and restores the sink (when present) from degree
    conservation.
    """
    if not is_sorted(u):
        raise SandpileError("park_sort expects a sorted configuration")
    if not _ends_within(u, -1):
        raise SandpileError("park_sort expects a-values in [0,n) and b-values in [-1,m)")
    return _park(u, row_gaps(u.a, u.b, u.shape.n))


def _slide(gaps, sink: int | None) -> tuple[int, int, int | None]:
    """Kernel of the parking slide on row gaps alone: the first row h
    (0-based) of the largest gap, that gap r_h and the parked sink (None
    stays None).  Checks that the parked gaps are at most 1, that is that no
    row before h reaches r_h; ``_parked_gaps`` lists them.  See the module
    docstring for the identity."""
    top = max(gaps)
    h = gaps.index(top)
    if max(islice(gaps, h), default=top - 1) >= top:
        raise RuntimeError("the parking slide left a row gap above 1; this cannot happen")
    if sink is not None:
        # degree conservation: the slide moves n(r_h - 1) - h chips to the sink
        sink += len(gaps) * (top - 1) - h
    return h, top, sink


def _parked_gaps(gaps, h: int, top: int) -> list[int]:
    """The row gaps after the parking slide that ``_slide`` found."""
    return [x - top + 1 for x in islice(gaps, h, None)] + [x - top + 2 for x in islice(gaps, h)]


def _park(u: Configuration, gaps: list[int]) -> Configuration:
    """Park a sorted u (a-values in [0, n), b-values in [-1, m)) whose row
    gaps are given: east^c north^h with c = b_h - r_h + 1, then r_h - 1
    reverse topplings of the sink, which lower every b-value by r_h - 1 and
    give the sink the n(r_h - 1) chips that ``_slide`` counts."""
    h, top, sink = _slide(gaps, u.sink)
    drop = top - 1
    v = _grid_shift(u, u.b[h] - drop, h)
    v = Configuration(u.shape, v.a, sink, tuple([x - drop for x in v.b]))
    # a rotation of sorted values in these ranges is sorted, so the ends decide
    if not _ends_within(v, 0):
        raise RuntimeError("park_sort produced an unsorted or unstable result; this cannot happen")
    return v


class _Pass(NamedTuple):
    """One stabilize/count/slide pass over a full configuration."""

    a_counts: list[int]  # histograms of the stable parts, before the slide
    b_counts: list[int]
    gaps: list[int]  # row gaps of the stable sorted parts, before the slide
    sink: int  # stable sink, before the slide
    parked_sink: int
    h: int  # parking row, 0-based: the slide rotates the b-slots by h
    top: int  # r_h, the largest row gap
    bh: int  # b-value of row h: the slide rotates the b-histogram by bh


def _park_pass(u: Configuration) -> _Pass:
    """Stabilize, counting sort and find the parking slide of a full
    configuration in one pass, the stable parts, the sorted parts and the
    parked gaps never built: ``stable_counts`` hands over the two
    histograms, and the row gaps are read off them.

    On histograms the slide is a rotation: by h for the a-part, whose c
    values below h wrap around, and by b_h = r_h - 1 + c for the b-part.  It
    agrees with park_sort's grid shift, so that the parked parts are
    sorted and stable, exactly when h b-values lie below b_h and row h holds
    b_h; that is checked here.
    """
    m, n = u.shape.m, u.shape.n
    a, sink, b = stable_counts(m, n, u.a, u.require_sink(), u.b)
    gaps = _gaps_from_counts(a, b)
    h, top, parked_sink = _slide(gaps, sink)
    bh = top - 1 + sum(islice(a, h))
    if not (0 <= bh < m and b[bh] and sum(islice(b, bh)) == h):
        raise RuntimeError("the parked parts are not sorted and stable; this cannot happen")
    return _Pass(a, b, gaps, sink, parked_sink, h, top, bh)


def _parked_configuration(shape: GraphShape, p: _Pass) -> Configuration:
    a, b, h, bh = p.a_counts, p.b_counts, p.h, p.bh
    a, b = from_counts(a[h:] + a[:h]), from_counts(b[bh:] + b[:bh])
    return Configuration(shape, tuple(a), p.parked_sink, tuple(b))


def parking_representative(u: Configuration) -> Configuration:
    """sort(park(u)) for an arbitrary full configuration: stabilize, sort,
    then apply the closed-form parking map.  O(m+n) overall."""
    return _parked_configuration(u.shape, _park_pass(u))


def is_effective(u: Configuration) -> bool:
    """Whether u is toppling-equivalent to a non-negative configuration:
    exactly when its parking representative's sink is non-negative."""
    return _park_pass(u).parked_sink >= 0


# ---------------------------------------------------------------------------
# greedy step and its action on row gaps


def greedy_step(u: Configuration) -> Configuration:
    """One iteration of the greedy rank loop: remove a chip from the first
    b-vertex (its value is 0 on a parking sorted configuration) and re-park.
    Degree drops by exactly 1; on a full configuration the sink absorbs the
    north moves of the slide."""
    gaps = _parking_gaps(u, "greedy_step")
    gaps[0] -= 1
    return _park(Configuration(u.shape, u.a, u.sink, (u.b[0] - 1,) + u.b[1:]), gaps)


def greedy_step_rvector(r: RVector) -> RVector:
    """Action of one greedy step on row gaps: rotate left, the freed last slot
    becoming 1 if the dropped gap was 1 and gaining 1 otherwise."""
    entries = r.entries
    if any(v > 1 for v in entries):
        raise SandpileError("greedy_step_rvector expects all entries <= 1")
    first = entries[0]
    last = 1 if first == 1 else first + 1
    return RVector(entries[1:] + (last,), r.shape)


# ---------------------------------------------------------------------------
# rank: closed formula, greedy and scan reference routes, fast pipeline and proof


def rank_from_gaps(gaps, sink: int) -> int:
    """Rank of the stable sorted configuration with these row gaps and this
    sink value; no validation.  Writes sink+1 = nQ+R: row i (0-based)
    contributes max(0, Q + [i < R] + r_i - 1), and the rank is the sum minus
    1.  The gaps need not be parked, since the parking slide keeps every
    row's summand (see the module docstring).  The rows before R and the
    rows from R on are each summed by one filter; on fewer than 16 rows a
    plain loop, whose fixed cost is a third of theirs, sums the same terms."""
    n = len(gaps)
    q, rem = divmod(sink + 1, n)
    total = -1
    if n < 16:
        for i, r in enumerate(gaps):
            term = q + r - (i >= rem)
            if term > 0:
                total += term
        return total
    for rows, off in ((islice(gaps, rem), q), (islice(gaps, rem, None), q - 1)):
        kept = list(filter((-off).__lt__, rows))  # the rows with a positive summand
        total += sum(kept) + off * len(kept)
    return total


def rank_parking_sorted(u: Configuration) -> int:
    """Rank of a parking sorted configuration from its sink value and row
    gaps (see rank_from_gaps)."""
    gaps = _parking_gaps(u, "rank_parking_sorted")
    return rank_from_gaps(gaps, u.require_sink())


def rank_greedy(u: Configuration) -> tuple[int, ProofOfRank]:
    """Greedy rank algorithm; also returns a proof configuration.  The
    reference route for rank_with_proof: O(rank * n), not linear.

    Repeatedly removes one chip from a zero b-vertex of the current parking
    representative until it stops being effective.  The removals are tracked
    back through every sorting rotation so the proof applies to the input's
    own vertex labels.  A removal lowers the first row gap by one, and the
    re-parking slide needs only the gaps and the sink, so the loop carries
    those and the b-slot permutation, not the configuration.
    """
    m, n = u.shape.m, u.shape.n
    a, sink, b = stable_parts(m, n, u.a, u.require_sink(), u.b)
    perm = sorted(range(n), key=b.__getitem__)  # slot -> original b-index
    gaps = _gaps_from_counts(value_counts(n - 1, a), value_counts(m - 1, b))
    removals = [0] * n
    rank = -1
    while True:
        rot, top, sink = _slide(gaps, sink)
        gaps = _parked_gaps(gaps, rot, top)
        perm = perm[rot:] + perm[:rot]
        if sink < 0:
            break
        # the first b-value of a parking sorted configuration is 0: take its chip
        removals[perm[0]] += 1
        rank += 1
        gaps[0] -= 1
    proof = ProofOfRank(config(m, n, [0] * (m - 1), 0, removals))
    return rank, proof


def rank_scan(u: Configuration) -> int:
    """Scan rank algorithm: walk the grid northeast along the green path,
    paying one sink unit per north step and scoring the north steps whose
    crossed cell lies right of the red cut.  A reference route: its work
    grows with the parked sink times m+n."""
    u.require_sink()
    m, n = u.shape.m, u.shape.n
    v = parking_representative(u)
    sink = v.sink
    v = v.with_sink(None)
    rank = -1
    while sink >= 0:
        v = _grid_shift(v, max(v.b[0] + 1, 0), 1)
        if m == 1 or v.a[m - 2] >= n - 1:
            rank += 1
        sink -= 1
    return rank


def rank_of(u: Configuration) -> int:
    """Rank of an arbitrary full configuration in O(m+n): stabilize, count,
    take the row gaps and apply the sink/row-gap formula to them as they
    are.  The parking slide is found for its checks alone; no parked
    configuration or gap is built."""
    p = _park_pass(u)
    return rank_from_gaps(p.gaps, p.sink)


def _row_terms(gaps: list[int], sink: int) -> list[int]:
    """The per-row summands of rank_from_gaps, max(0, Q + [i < R] + r_i - 1)
    with sink+1 = nQ+R; all 0 when the configuration is not effective."""
    n = len(gaps)
    q, rem = divmod(sink + 1, n)
    rows = map(add, gaps, chain(repeat(q, rem), repeat(q - 1, n - rem)))
    return [t if t > 0 else 0 for t in rows]


def rank_with_proof(u: Configuration) -> RankCertificate:
    """Rank, parking representative, row gaps and proof of a full
    configuration from one stabilize/count/slide pass, in O(m+n).

    The proof gives b-vertex j the summand of the row that j's value lands
    in (see the module docstring); it equals rank_greedy's proof.
    """
    m, n = u.shape.m, u.shape.n
    p = _park_pass(u)
    terms = _row_terms(p.gaps, p.sink)
    # stable counting sort of the stable b-values, the residues mod m (not
    # kept by the pass, so that rank_of's peak memory does not grow): slot s
    # of the sorted part is row s
    start = list(accumulate(p.b_counts, initial=0))
    proof = []
    for v in u.b:
        v %= m
        s = start[v]
        start[v] = s + 1
        proof.append(terms[s])
    return RankCertificate(
        sum(terms) - 1,
        _parked_configuration(u.shape, p),
        RVector(tuple(_parked_gaps(p.gaps, p.h, p.top)), u.shape),
        ProofOfRank(config(m, n, [0] * (m - 1), 0, proof)),
    )


def verify_rank_proof(u: Configuration, rank: int, proof: ProofOfRank) -> bool:
    """Whether proof shows rank(u) <= rank: f non-negative, supported on the
    b-part, of degree rank + 1, and u - f not effective.  One parking pass
    of u - f decides the last, so the check is O(m+n)."""
    f = proof.f
    if f.shape != u.shape or any(f.a) or f.sink or min(f.b) < 0 or sum(f.b) != rank + 1:
        return False
    rest = Configuration(u.shape, u.a, u.require_sink(), tuple(map(sub, u.b, f.b)))
    return not is_effective(rest)


# ---------------------------------------------------------------------------
# canonical divisor and the compact decomposition


def canonical_divisor(shape: GraphShape) -> Configuration:
    """n-2 on every a-vertex (sink included), m-2 on every b-vertex."""
    m, n = shape.m, shape.n
    return Configuration(shape, (n - 2,) * (m - 1), n - 2, (m - 2,) * n)


def decompose_compact(u: Configuration) -> GridShift:
    """The unique (k_a, k_b) with u = east^{k_a} north^{k_b} of its parking
    sorted representative p.  Only north moves the sink, by -1 a step, so
    k_b = sink(p) - sink(u); east lowers the b-sum by n and north raises it
    by m, so n k_a = sum b(p) + m k_b - sum b(u).  A composite shift checks."""
    _require_compact_sorted(u, "decompose_compact")
    sink = u.require_sink()
    m, n = u.shape.m, u.shape.n
    p = parking_representative(u)
    k_b = p.sink - sink
    k_a, rest = divmod(sum(p.b) + m * k_b - sum(u.b), n)
    if rest or _grid_shift(p, k_a, k_b) != u:
        raise RuntimeError("the closed-form grid shift misses u; this cannot happen")
    return GridShift(k_a, k_b)
