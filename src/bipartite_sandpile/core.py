"""Configurations on the complete bipartite graph K_{m,n} and basic chip moves.

The graph has parts ``A = {a_1..a_m}`` and ``B = {b_1..b_n}``, every a-vertex
adjacent to every b-vertex, and ``a_m`` distinguished as the sink.  A
configuration assigns an integer to every vertex; the sink value is optional
("partial" configurations stand for a whole family indexed by the sink value).

Vertices are addressed by the 1-based labels ``"a1".."am"`` / ``"b1".."bn"``
used in serialized form; internally everything is 0-based tuples.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain, islice, repeat
from operator import le


class SandpileError(ValueError):
    """Domain error: bad configuration, violated precondition, or bad vertex."""


@dataclass(frozen=True)
class GraphShape:
    """Sizes (m, n) of the two parts; a-vertices have degree n and vice versa."""

    m: int
    n: int

    def __post_init__(self) -> None:
        if not (_is_int(self.m) and _is_int(self.n)):
            raise SandpileError(f"m and n must be integers, got ({self.m!r}, {self.n!r})")
        if self.m < 1 or self.n < 1:
            raise SandpileError(f"need m >= 1 and n >= 1, got ({self.m}, {self.n})")


@dataclass(frozen=True)
class Configuration:
    """Integer values on K_{m,n}: a-part (m-1 values), optional sink, b-part.

    Values are unrestricted integers; stability and friends are predicates,
    not invariants.  ``sink=None`` is the partial configuration u[*].
    """

    shape: GraphShape
    a: tuple[int, ...]
    sink: int | None
    b: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", tuple(self.a))
        object.__setattr__(self, "b", tuple(self.b))
        if len(self.a) != self.shape.m - 1:
            raise SandpileError(
                f"a-part has {len(self.a)} values, expected m-1 = {self.shape.m - 1}"
            )
        if len(self.b) != self.shape.n:
            raise SandpileError(
                f"b-part has {len(self.b)} values, expected n = {self.shape.n}"
            )

    @property
    def is_partial(self) -> bool:
        return self.sink is None

    def with_sink(self, sink: int | None) -> "Configuration":
        return Configuration(self.shape, self.a, sink, self.b)

    def require_sink(self) -> int:
        if self.sink is None:
            raise SandpileError("partial configuration: sink value required")
        return self.sink


def config(m: int, n: int, a: list[int] | tuple[int, ...], sink: int | None,
           b: list[int] | tuple[int, ...]) -> Configuration:
    """Shorthand constructor used all over the tests."""
    return Configuration(GraphShape(m, n), tuple(a), sink, tuple(b))


@dataclass(frozen=True)
class ProofOfRank:
    """Non-negative configuration f witnessing the rank: degree(f) = rank+1
    and u - f is non-effective.  The greedy algorithm always returns one
    supported on the b-vertices."""

    f: Configuration

    def __post_init__(self) -> None:
        if self.f.sink is None:
            raise SandpileError("a rank proof carries an explicit sink value")
        if any(v < 0 for v in self.f.a) or self.f.sink < 0 or any(v < 0 for v in self.f.b):
            raise SandpileError("a rank proof must be non-negative everywhere")


# ---------------------------------------------------------------------------
# vertex addressing


def parse_vertex(shape: GraphShape, label: str) -> tuple[str, int]:
    """Turn "a3"/"b1" into ("a", index0).  The sink "am" is a valid a-vertex."""
    part = label[:1]
    try:
        pos = int(label[1:])
    except ValueError:
        raise SandpileError(f"bad vertex label {label!r}") from None
    if part == "a" and 1 <= pos <= shape.m:
        return "a", pos - 1
    if part == "b" and 1 <= pos <= shape.n:
        return "b", pos - 1
    raise SandpileError(f"vertex {label!r} does not exist on K_{{{shape.m},{shape.n}}}")


# ---------------------------------------------------------------------------
# degree and toppling


def degree(u: Configuration) -> int:
    """Sum of all values, sink included."""
    return sum(u.a) + u.require_sink() + sum(u.b)


def topple(u: Configuration, vertex: str) -> Configuration:
    """One toppling of ``vertex``: it loses its degree, every neighbour gains 1.

    Toppling changes the sink value (every a-vertex is a neighbour of each
    b-vertex), hence the sink must be present.  A non-sink vertex topples as
    the one-vertex set of ``topple_set``; the sink is not allowed there.
    """
    sink = u.require_sink()
    if parse_vertex(u.shape, vertex) != ("a", u.shape.m - 1):
        return topple_set(u, {vertex})
    return Configuration(u.shape, u.a, sink - u.shape.n, tuple(v + 1 for v in u.b))


def topple_set(u: Configuration, vertices: set[str] | frozenset[str]) -> Configuration:
    """Topple every vertex of a non-sink set once (order does not matter)."""
    m, n = u.shape.m, u.shape.n
    in_a = [False] * (m - 1)
    in_b = [False] * n
    for label in vertices:
        part, i = parse_vertex(u.shape, label)
        if part == "a" and i == m - 1:
            raise SandpileError("the sink may not belong to a toppling set")
        if part == "a":
            in_a[i] = True
        else:
            in_b[i] = True
    p, q = sum(in_a), sum(in_b)
    a = tuple(v - (n if in_a[i] else 0) + q for i, v in enumerate(u.a))
    b = tuple(v - (m if in_b[j] else 0) + p for j, v in enumerate(u.b))
    sink = None if u.sink is None else u.sink + q
    return Configuration(u.shape, a, sink, b)


# ---------------------------------------------------------------------------
# predicates


def is_quasi_stable(u: Configuration) -> bool:
    """Every non-sink value below its vertex degree (no lower bound)."""
    m, n = u.shape.m, u.shape.n
    return all(v < n for v in u.a) and all(v < m for v in u.b)


def is_stable(u: Configuration) -> bool:
    """Quasi-stable and non-negative outside the sink."""
    m, n = u.shape.m, u.shape.n
    a, b = u.a, u.b
    return (not a or (min(a) >= 0 and max(a) < n)) and min(b) >= 0 and max(b) < m


def _ascending(values) -> bool:
    return all(map(le, values, islice(values, 1, None)))


def is_sorted(u: Configuration) -> bool:
    """Both parts weakly increasing (the sink takes no part)."""
    return _ascending(u.a) and _ascending(u.b)


def is_compact(u: Configuration) -> bool:
    """Value spread at most n on the a-part and at most m on the b-part."""
    m, n = u.shape.m, u.shape.n
    if u.a and max(u.a) - min(u.a) > n:
        return False
    return max(u.b) - min(u.b) <= m


# ---------------------------------------------------------------------------
# stabilization (Euclidean division scheme) and sorting


def stabilize(u: Configuration) -> Configuration:
    """Stable configuration toppling-equivalent to u, in O(m+n) operations."""
    a, sink, b = stable_parts(u.shape.m, u.shape.n, u.a, u.require_sink(), u.b)
    return Configuration(u.shape, tuple(a), sink, tuple(b))


def counting_sort(bound: int, values: list[int] | tuple[int, ...]) -> list[int]:
    """Sort integers in [0, bound] in O(bound + len) operations."""
    if values and not (min(values) >= 0 and max(values) <= bound):
        bad = next(v for v in values if not 0 <= v <= bound)
        raise SandpileError(f"counting_sort: value {bad} outside [0, {bound}]")
    return from_counts(value_counts(bound, values))


def sort_config(u: Configuration) -> Configuration:
    """The sorted representative of a stable configuration; sink untouched."""
    m, n = u.shape.m, u.shape.n
    if not is_stable(u):
        raise SandpileError("sort_config expects a stable configuration")
    a = from_counts(value_counts(n - 1, u.a))
    b = from_counts(value_counts(m - 1, u.b))
    return Configuration(u.shape, tuple(a), u.sink, tuple(b))


# Kernels behind stabilize and the counting sort: plain sequences in, lists
# out, no validation.  The public functions above check their input and call
# these; rank.rank_of chains them without building a Configuration.
# stable_counts reduces and counts _CHUNK values at a time, so that it holds
# one chunk of residues, never a whole stable part.  A chunk of 2**15
# residues takes about 1 MB however long the parts are, and the fixed cost of
# a chunk (a list, an islice, a sum) is spread over enough values to vanish;
# every input of kmnbench's rank_cli workload and of its small ladder probes
# (m + n <= 1.6e4) fits in one chunk.

_CHUNK = 2**15


def stable_parts(m: int, n: int, a, sink: int, b) -> tuple[list[int], int, list[int]]:
    """(a, sink, b) of the stable configuration equivalent to these values.

    Two passes of Euclidean division: reduce the b-part mod m, shift the
    a-part by the total of the quotients and reduce it mod n, then recover the
    sink from degree conservation.
    """
    rb = [v % m for v in b]
    sum_b, sum_rb = sum(b), sum(rb)
    quot_total = (sum_b - sum_rb) // m
    ra = [(v + quot_total) % n for v in a]
    return ra, sink + sum(a) - sum(ra) + sum_b - sum_rb, rb


def stable_counts(m: int, n: int, a, sink: int, b) -> tuple[list[int], int, list[int]]:
    """(value_counts(n - 1, a'), sink', value_counts(m - 1, b')) for the
    stable parts a', b' and sink' that stable_parts returns, without building
    a' or b': the same Euclidean division, each chunk of residues counted and
    summed as soon as it is reduced."""
    b_counts, sum_rb, values = [0] * m, 0, iter(b)
    while chunk := [v % m for v in islice(values, _CHUNK)]:
        sum_rb += _count_into(b_counts, chunk)
    sum_b = sum(b)
    quot_total = (sum_b - sum_rb) // m
    a_counts, sum_ra, values = [0] * n, 0, iter(a)
    while chunk := [(v + quot_total) % n for v in islice(values, _CHUNK)]:
        sum_ra += _count_into(a_counts, chunk)
    return a_counts, sink + sum(a) - sum_ra + sum_b - sum_rb, b_counts


def _count_into(counts: list[int], values: list[int]) -> int:
    """Add the values to the histogram counts; return their sum."""
    for v in values:
        counts[v] += 1
    return sum(values)


def value_counts(bound: int, values) -> list[int]:
    """Histogram of integers in [0, bound]: entry v counts the values equal to v."""
    counts = [0] * (bound + 1)
    for v in values:
        counts[v] += 1
    return counts


def from_counts(counts: list[int]) -> list[int]:
    """The sorted values a histogram counts."""
    return list(chain.from_iterable(map(repeat, range(len(counts)), counts)))


# ---------------------------------------------------------------------------
# JSON form: {"m":, "n":, "a": [...], "sink": int|null, "b": [...]}


def to_json_dict(u: Configuration) -> dict:
    return {
        "m": u.shape.m,
        "n": u.shape.n,
        "a": list(u.a),
        "sink": u.sink,
        "b": list(u.b),
    }


def _is_int(v: object) -> bool:
    """A JSON integer: ``bool`` is an ``int`` subclass but not a number here."""
    return isinstance(v, int) and not isinstance(v, bool)


def from_json_dict(data: dict) -> Configuration:
    if not isinstance(data, dict):
        raise SandpileError("configuration JSON must be an object")
    try:
        m, n = data["m"], data["n"]
        a, sink, b = data["a"], data.get("sink"), data["b"]
    except KeyError as exc:
        raise SandpileError(f"configuration JSON missing field: {exc}") from None
    if not (isinstance(a, list) and isinstance(b, list)):
        raise SandpileError("a and b must be lists of integers")
    if not all(_is_int(v) for v in a + b):
        raise SandpileError("configuration values must be integers")
    if sink is not None and not _is_int(sink):
        raise SandpileError("sink must be an integer or null")
    return Configuration(GraphShape(m, n), tuple(a), sink, tuple(b))


def dumps(u: Configuration) -> str:
    return json.dumps(to_json_dict(u))


def loads(text: str) -> Configuration:
    try:
        data = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past the int-string limit
        raise SandpileError(f"malformed configuration JSON: {exc}") from None
    return from_json_dict(data)
