"""Definition-faithful reference implementations, exponential on purpose.

Everything here validates the fast algorithms on small instances and shares
no code with them: parking is decided by enumerating toppling sets, ranks by
enumerating candidate proofs.  Guards reject inputs where the enumeration
would blow up.
"""

from __future__ import annotations

from .core import Configuration, SandpileError, degree

GUARD_VERTICES = 20


def _deltas(m: int, n: int) -> list[tuple[tuple[int, ...], int, tuple[int, ...]]]:
    """Per non-empty non-sink subset (by ascending bitmask): the value change
    of u - Delta^(C) as (a-change, sink-change, b-change)."""
    k = (m - 1) + n
    out = []
    for mask in range(1, 1 << k):
        in_a = [(mask >> i) & 1 for i in range(m - 1)]
        in_b = [(mask >> (m - 1 + j)) & 1 for j in range(n)]
        p, q = sum(in_a), sum(in_b)
        da = tuple(q - n * f for f in in_a)
        db = tuple(p - m * f for f in in_b)
        out.append((da, q, db))
    return out


def _guard(u: Configuration, who: str) -> None:
    if u.shape.m + u.shape.n - 1 > GUARD_VERTICES:
        raise SandpileError(f"{who}: instance too large for subset enumeration")


def is_parking_by_definition(u: Configuration) -> bool:
    """Non-negative outside the sink and no non-empty non-sink set can be
    toppled while staying so."""
    _guard(u, "is_parking_by_definition")
    if any(v < 0 for v in u.a) or any(v < 0 for v in u.b):
        return False
    for da, _, db in _deltas(u.shape.m, u.shape.n):
        if all(v + d >= 0 for v, d in zip(u.a, da)) and all(
            v + d >= 0 for v, d in zip(u.b, db)
        ):
            return False
    return True


def park_by_definition(u: Configuration, reverse_order: bool = False) -> Configuration:
    """The parking configuration toppling-equivalent to u.

    First reach a configuration non-negative outside the sink by bulk reverse
    topplings (each a-deficit is covered by whole-graph-minus-one moves, then
    the sink is toppled until the b-part is non-negative).  Then run the
    fixpoint loop: topple the first still-applicable set, as many times in a
    row as it stays applicable, until no set applies.  The result does not
    depend on the enumeration order; ``reverse_order`` exists to test that.
    """
    _guard(u, "park_by_definition")
    m, n = u.shape.m, u.shape.n
    sink = u.require_sink()
    a, b = list(u.a), list(u.b)

    # lift the a-part: each reverse toppling of a_i adds n to it, taking 1
    # from every b-vertex
    for i in range(m - 1):
        if a[i] < 0:
            t = (-a[i] + n - 1) // n
            a[i] += n * t
            b = [v - t for v in b]
    # lift the b-part: toppling the sink adds 1 to every b-vertex
    deficit = max(0, -min(b))
    if deficit:
        b = [v + deficit for v in b]
        sink -= n * deficit

    deltas = _deltas(m, n)
    if reverse_order:
        deltas = list(reversed(deltas))
    while True:
        for da, dsink, db in deltas:
            a2 = [v + d for v, d in zip(a, da)]
            b2 = [v + d for v, d in zip(b, db)]
            if all(v >= 0 for v in a2) and all(v >= 0 for v in b2):
                # apply this set as often as it stays applicable
                steps = 1
                while True:
                    a3 = [v + d for v, d in zip(a2, da)]
                    b3 = [v + d for v, d in zip(b2, db)]
                    if all(v >= 0 for v in a3) and all(v >= 0 for v in b3):
                        a2, b2, steps = a3, b3, steps + 1
                    else:
                        break
                a, b, sink = a2, b2, sink + steps * dsink
                break
        else:
            return Configuration(u.shape, tuple(a), sink, tuple(b))


def _subsets_by_size_then_lex(m: int, n: int):
    """Non-empty non-sink subsets ordered by size, then lexicographically in
    the vertex order a_1 < .. < a_{m-1} < b_1 < .. < b_n."""
    from itertools import combinations

    k = (m - 1) + n
    for size in range(1, k + 1):
        yield from combinations(range(k), size)


def _apply_delta(u: Configuration, subset: tuple[int, ...], sign: int) -> Configuration:
    """u + sign * Delta^(C) with C given by indices into a-then-b order."""
    m, n = u.shape.m, u.shape.n
    in_a = [False] * (m - 1)
    in_b = [False] * n
    for idx in subset:
        if idx < m - 1:
            in_a[idx] = True
        else:
            in_b[idx - (m - 1)] = True
    p, q = sum(in_a), sum(in_b)
    a = tuple(v + sign * (n * in_a[i] - q) for i, v in enumerate(u.a))
    b = tuple(v + sign * (m * in_b[j] - p) for j, v in enumerate(u.b))
    sink = None if u.sink is None else u.sink - sign * q
    return Configuration(u.shape, a, sink, b)


def _min_subset_move(u: Configuration, sign: int) -> Configuration:
    from .core import is_sorted, is_stable, sort_config

    _guard(u, "minimal-subset operator")
    if not (is_stable(u) and is_sorted(u)):
        raise SandpileError("minimal-subset operators expect stable sorted input")
    for subset in _subsets_by_size_then_lex(u.shape.m, u.shape.n):
        v = _apply_delta(u, subset, sign)
        if is_stable(v):
            return sort_config(v)
    return u


def phi_by_definition(u: Configuration) -> Configuration:
    """Sorted result of subtracting the minimal toppling set that keeps the
    configuration stable; u itself when no set qualifies."""
    return _min_subset_move(u, -1)


def psi_by_definition(u: Configuration) -> Configuration:
    """Dual move: add the minimal toppling set keeping stability."""
    return _min_subset_move(u, +1)


def toppling_equivalent(u: Configuration, v: Configuration) -> bool:
    """Whether v = u - sum of topplings, decided by exact integer solving.

    Fixing the sink's toppling count to 0 (legal: all counts shift together),
    the counts of every other vertex are forced by the value differences, so
    it only remains to check they are integers and mutually consistent.
    """
    if u.shape != v.shape:
        return False
    m, n = u.shape.m, u.shape.n
    diff_a = [x - y for x, y in zip(u.a, v.a)]
    diff_s = u.require_sink() - v.require_sink()
    diff_b = [x - y for x, y in zip(u.b, v.b)]
    count_b_total = -diff_s
    counts_a = []
    for d in diff_a:
        q, r = divmod(d + count_b_total, n)
        if r:
            return False
        counts_a.append(q)
    count_a_total = sum(counts_a)
    counts_b = []
    for d in diff_b:
        q, r = divmod(d + count_a_total, m)
        if r:
            return False
        counts_b.append(q)
    return sum(counts_b) == count_b_total


def _class_bucket(u: Configuration) -> tuple:
    """Toppling-class invariant used to bucket memo entries: the degree plus
    sink-relative a-values mod n and first-vertex-relative b-values mod m.
    Invariant but not complete (inequivalent classes may share a bucket), so
    lookups still verify equivalence exactly."""
    m, n = u.shape.m, u.shape.n
    sink = u.require_sink()
    return (
        degree(u),
        tuple((v - sink) % n for v in u.a),
        tuple((v - u.b[0]) % m for v in u.b),
    )


def _compositions(total: int, parts: int):
    """All tuples of ``parts`` non-negative integers summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def rank_by_definition(
    u: Configuration,
    restrict_support: bool = False,
    memoize: bool = True,
) -> int:
    """Smallest degree of a non-negative f with u - f non-effective, minus 1.

    Candidate proofs f are enumerated degree by degree over all vertices
    (``restrict_support`` narrows them to the b-part, which is known to lose
    no minimizer).  Non-effectiveness of u - f is read off the sink sign of
    its parking representative; since that only depends on the toppling
    class, ``memoize`` reuses parked results across candidates, with exact
    equivalence checks guarding every cache hit.
    """
    _guard(u, "rank_by_definition")
    m, n = u.shape.m, u.shape.n
    sink = u.require_sink()
    cache: dict[tuple, list[Configuration]] = {}

    def non_effective(v: Configuration) -> bool:
        if not memoize:
            return park_by_definition(v).sink < 0
        bucket = cache.setdefault(_class_bucket(v), [])
        for parked in bucket:
            if toppling_equivalent(v, parked):
                return parked.sink < 0
        parked = park_by_definition(v)
        bucket.append(parked)
        return parked.sink < 0

    d = 0
    while True:
        if restrict_support:
            for fb in _compositions(d, n):
                v = Configuration(u.shape, u.a, sink, tuple(x - y for x, y in zip(u.b, fb)))
                if non_effective(v):
                    return d - 1
        else:
            for f in _compositions(d, m + n):
                v = Configuration(
                    u.shape,
                    tuple(x - y for x, y in zip(u.a, f)),
                    sink - f[m - 1],
                    tuple(x - y for x, y in zip(u.b, f[m:])),
                )
                if non_effective(v):
                    return d - 1
        d += 1


def polyomino_bruteforce(width_cap: int, height_cap: int) -> dict[tuple[int, int, int], int]:
    """Counts of parallelogram polyominoes by (area, width, height), found by
    enumerating pairs of monotone paths sharing only the two corners."""
    if width_cap > 6 or height_cap > 6:
        raise SandpileError("polyomino_bruteforce: caps above 6 are too slow")
    counts: dict[tuple[int, int, int], int] = {}
    for w in range(1, width_cap + 1):
        for h in range(1, height_cap + 1):
            for upper in _paths(w, h):
                up_vertices = _vertices(upper)
                up_area = _area_below(upper)
                for lower in _paths(w, h):
                    shared = up_vertices & _vertices(lower)
                    if shared != {(0, 0), (w, h)}:
                        continue
                    area = up_area - _area_below(lower)
                    if area <= 0:
                        continue
                    key = (area, w, h)
                    counts[key] = counts.get(key, 0) + 1
    return counts


def _paths(w: int, h: int):
    """Monotone lattice paths from (0,0) to (w,h) as step strings."""
    if w == 0:
        yield "N" * h
        return
    if h == 0:
        yield "E" * w
        return
    for rest in _paths(w - 1, h):
        yield "E" + rest
    for rest in _paths(w, h - 1):
        yield "N" + rest


def _vertices(path: str) -> set[tuple[int, int]]:
    x = y = 0
    out = {(0, 0)}
    for step in path:
        if step == "E":
            x += 1
        else:
            y += 1
        out.add((x, y))
    return out


def _area_below(path: str) -> int:
    area = y = 0
    for step in path:
        if step == "E":
            area += y
        else:
            y += 1
    return area
