import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bipartite_sandpile import core, rank
from bipartite_sandpile.core import (
    GraphShape,
    SandpileError,
    config,
    counting_sort,
    degree,
    dumps,
    from_json_dict,
    is_quasi_stable,
    is_sorted,
    is_stable,
    loads,
    sort_config,
    stabilize,
    stable_counts,
    stable_parts,
    to_json_dict,
    topple,
    topple_set,
    value_counts,
)
from bipartite_sandpile.oracle import park_by_definition, toppling_equivalent
from bipartite_sandpile.rank import (
    canonical_divisor,
    is_effective,
    park_sort,
    parking_representative,
    r_vector,
    rank_greedy,
    rank_of,
    rank_parking_sorted,
    rank_with_proof,
    row_gaps,
)

from conftest import WIDE_PARTS, exhaustive_suite, stable_sorted_partials


def all_vertices(m, n):
    return [f"a{i}" for i in range(1, m + 1)] + [f"b{j}" for j in range(1, n + 1)]


class TestDegree:
    def test_zero_configuration(self):
        assert degree(config(2, 2, [0], 0, [0, 0])) == 0

    def test_running_example(self):
        # 9 on the a-part, 21 in the sink, 6 on the b-part
        assert degree(config(7, 5, [0, 0, 0, 3, 3, 3], 21, [0, 0, 0, 3, 3])) == 36

    def test_canonical_divisor_degree(self):
        k = canonical_divisor(config(5, 3, [0] * 4, 0, [0] * 3).shape)
        assert degree(k) == 14 == 2 * (5 * 3 - 5 - 3)

    def test_partial_rejected(self):
        with pytest.raises(SandpileError):
            degree(config(2, 2, [0], None, [0, 0]))


class TestToppling:
    def test_single_toppling(self):
        u = topple(config(2, 2, [0], 0, [0, 0]), "a1")
        assert (u.a, u.sink, u.b) == ((-2,), 0, (1, 1))

    def test_toppling_all_vertices_is_identity(self):
        u = config(3, 4, [2, -1], 5, [0, 7, 1, 1])
        v = u
        for vertex in all_vertices(3, 4):
            v = topple(v, vertex)
        assert v == u

    def test_legal_toppling_stays_non_negative(self):
        u = config(3, 4, [4, 0], 0, [1, 1, 1, 1])  # a1 unstable: value 4 = deg
        assert topple(u, "a1").a[0] >= 0

    def test_degree_conservation(self):
        u = config(4, 3, [1, 2, 0], -2, [5, 5, 5])
        for vertex in all_vertices(4, 3):
            assert degree(topple(u, vertex)) == degree(u)

    def test_bad_vertex(self):
        with pytest.raises(SandpileError):
            topple(config(2, 2, [0], 0, [0, 0]), "b3")

    def test_each_vertex_against_the_definition(self):
        # on K_{3,4}, sink a3 included: the vertex loses its degree (n for an
        # a-vertex, m for a b-vertex) and each vertex of the other part gains 1
        m, n = 3, 4
        u = config(m, n, [2, -1], 5, [0, 7, 1, -3])
        values = dict(zip(all_vertices(m, n), (*u.a, u.sink, *u.b)))
        for vertex in all_vertices(m, n):
            expected = dict(values)
            expected[vertex] -= n if vertex[0] == "a" else m
            for other in expected:
                if other[0] != vertex[0]:
                    expected[other] += 1
            v = topple(u, vertex)
            assert dict(zip(all_vertices(m, n), (*v.a, v.sink, *v.b))) == expected


class TestToppleSet:
    def test_empty_set(self):
        u = config(3, 2, [1, 0], 2, [0, 1])
        assert topple_set(u, set()) == u

    def test_all_non_sink_vertices_undo_one_sink_toppling(self):
        u = config(3, 2, [1, 0], 2, [0, 1])
        reverse_sink = config(3, 2, [1, 0], u.sink + 2, [-1, 0])  # u + Delta^(a3)
        assert topple_set(u, {"a1", "a2", "b1", "b2"}) == reverse_sink

    def test_sink_rejected(self):
        with pytest.raises(SandpileError):
            topple_set(config(3, 2, [1, 0], 2, [0, 1]), {"a3"})


class TestPredicates:
    def test_stable_sorted_example(self):
        u = config(7, 5, [0, 0, 0, 2, 2, 2], None, [0, 0, 4, 4, 4])
        assert is_stable(u) and is_sorted(u)

    def test_stable_unsorted_example(self):
        u = config(7, 5, [2, 0, 2, 2, 0, 0], None, [4, 4, 0, 0, 4])
        assert is_stable(u) and not is_sorted(u)

    def test_boundary_of_quasi_stability(self):
        u = config(3, 4, [4, 0], None, [0, 0, 0, 0])  # a-value = n
        assert not is_quasi_stable(u)
        assert is_quasi_stable(config(3, 4, [-2, 3], None, [0, 0, 0, 2]))

    def test_sink_never_matters(self):
        assert is_stable(config(2, 2, [1], -99, [0, 1]))


class TestStabilize:
    def test_already_stable(self):
        u = config(3, 3, [1, 2], 4, [0, 2, 1])
        assert stabilize(u) == u

    def test_small_example_equivalence(self):
        u = config(2, 2, [5], 0, [7, -3])
        v = stabilize(u)
        assert is_stable(v)
        assert degree(v) == degree(u)
        assert toppling_equivalent(u, v)
        assert park_by_definition(u) == park_by_definition(v)

    def test_thousand_random_inputs(self):
        import random

        rng = random.Random(2718)
        for _ in range(1000):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            u = config(
                m,
                n,
                [rng.randint(-50, 50) for _ in range(m - 1)],
                rng.randint(-50, 50),
                [rng.randint(-50, 50) for _ in range(n)],
            )
            v = stabilize(u)
            assert is_stable(v)
            assert degree(v) == degree(u)
            assert toppling_equivalent(u, v)


def counts_of_stable_parts(m, n, a, sink, b):
    """What stable_counts returns, by way of the whole stable parts."""
    ra, sink, rb = stable_parts(m, n, a, sink, b)
    return value_counts(n - 1, ra), sink, value_counts(m - 1, rb)


class TestStableCounts:
    @settings(max_examples=300, deadline=None)
    @given(WIDE_PARTS)
    # one-sided shapes: the a-part is empty when m = 1
    @example((1, 1, [], 2**70, [-(2**70)]))
    @example((1, 6, [], -1, [7, -(2**69), 0, 2**70, -5, 1]))
    @example((6, 1, [2**70 + 3, -5, 0, 6, -(2**70)], 0, [-7]))
    def test_equals_the_counts_of_the_stable_parts(self, parts):
        assert stable_counts(*parts) == counts_of_stable_parts(*parts)

    @pytest.mark.parametrize("offset", [-1, 0, 1, core._CHUNK])
    def test_parts_around_the_chunk_length(self, offset):
        length = core._CHUNK + offset
        rng = random.Random(length)
        for m, n in ((length + 1, 9), (9, length)):
            a = [rng.randrange(-(2**66), 2**66) for _ in range(m - 1)]
            b = [rng.randrange(-3 * m, 4 * m) for _ in range(n)]
            assert stable_counts(m, n, a, 5, b) == counts_of_stable_parts(m, n, a, 5, b)

    def test_holds_a_chunk_not_the_stable_parts(self):
        # both routes measured here, so the bound does not depend on the platform
        m = n = 2**17
        rng = random.Random(17)
        a = tuple(rng.randrange(-2 * n, 3 * n) for _ in range(m - 1))
        b = tuple(rng.randrange(-2 * m, 3 * m) for _ in range(n))
        peaks = []
        tracemalloc.start()
        try:
            for route in (stable_counts, counts_of_stable_parts):
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                route(m, n, a, 0, b)
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
        assert peaks[0] < peaks[1] / 2, peaks

    @pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 5) for n in range(1, 5)])
    def test_park_pass_matches_the_validating_layers(self, m, n):
        """Every field of the pass and every result read off it, against the
        public layers one after the other, on each stable sorted
        configuration and on a toppled, unstable copy of it."""
        for v in stable_sorted_partials(m, n):
            for sink in range(-3, 11):
                u = v.with_sink(sink)
                for w in (u, topple(topple(u, "b1"), f"a{m}")):
                    stable = sort_config(stabilize(w))
                    parked = park_sort(stable)
                    gaps = row_gaps(stable.a, stable.b, n)
                    p = rank._park_pass(w)
                    assert p.a_counts == value_counts(n - 1, stable.a)
                    assert p.b_counts == value_counts(m - 1, stable.b)
                    assert (p.gaps, p.sink, p.parked_sink) == (gaps, stable.sink, parked.sink)
                    assert (p.top, p.h) == (max(gaps), gaps.index(max(gaps)))
                    assert p.bh == stable.b[p.h]
                    expected = rank_parking_sorted(parked)
                    assert rank_of(w) == expected
                    assert is_effective(w) == (parked.sink >= 0)
                    cert = rank_with_proof(w)
                    assert (cert.rank, cert.parking) == (expected, parked)
                    assert cert.gaps == r_vector(parked)
                    assert cert.proof == rank_greedy(w)[1]


class TestCountingSort:
    def test_paper_b_part(self):
        assert counting_sort(6, [4, 4, 0, 0, 4]) == [0, 0, 4, 4, 4]

    def test_sorted_input_unchanged(self):
        assert counting_sort(3, [0, 1, 1, 3]) == [0, 1, 1, 3]

    def test_out_of_range(self):
        with pytest.raises(SandpileError):
            counting_sort(3, [4])
        with pytest.raises(SandpileError):
            counting_sort(3, [-1])

    @given(st.lists(st.integers(0, 30), max_size=40))
    def test_matches_builtin_sort(self, values):
        assert counting_sort(30, values) == sorted(values)

    def test_thousand_random_sequences(self):
        import random

        rng = random.Random(1618)
        for _ in range(1000):
            bound = rng.randint(0, 40)
            values = [rng.randint(0, bound) for _ in range(rng.randint(0, 60))]
            assert counting_sort(bound, values) == sorted(values)


class TestSortConfig:
    def test_paper_example(self):
        u = config(7, 5, [2, 0, 2, 2, 0, 0], None, [4, 4, 0, 0, 4])
        v = sort_config(u)
        assert (v.a, v.b) == ((0, 0, 0, 2, 2, 2), (0, 0, 4, 4, 4))

    def test_sorted_input_fixed(self):
        u = config(3, 3, [0, 2], 7, [1, 1, 2])
        assert sort_config(u) == u

    def test_degree_invariance(self):
        u = config(7, 5, [2, 0, 2, 2, 0, 0], 3, [4, 4, 0, 0, 4])
        assert degree(sort_config(u)) == degree(u)

    def test_idempotent_and_multiset_preserving(self):
        u = config(5, 4, [3, 0, 3, 1], 0, [2, 0, 4, 1])
        v = sort_config(u)
        assert sort_config(v) == v
        assert sorted(v.a) == sorted(u.a) and sorted(v.b) == sorted(u.b)

    def test_unstable_rejected(self):
        with pytest.raises(SandpileError):
            sort_config(config(2, 2, [5], 0, [0, 0]))


class TestEffective:
    def test_non_negative_is_effective(self):
        assert is_effective(config(3, 3, [1, 0], 0, [2, 2, 0]))

    def test_negative_degree_is_not(self):
        assert not is_effective(config(3, 3, [1, 0], -9, [2, 2, 0]))

    def test_parking_with_negative_sink(self):
        assert not is_effective(config(7, 5, [0, 0, 0, 3, 3, 3], -1, [0, 0, 0, 3, 3]))

    def test_matches_oracle_on_small_graphs(self):
        for u in exhaustive_suite(2, 2, -2, 8):
            assert is_effective(u) == (park_by_definition(u).sink >= 0)


class TestJson:
    def test_round_trip(self):
        u = config(3, 2, [4, -1], -7, [0, 9])
        assert from_json_dict(to_json_dict(u)) == u
        assert loads(dumps(u)) == u

    def test_partial_round_trip(self):
        u = config(2, 3, [1], None, [0, 0, 2])
        assert loads(dumps(u)) == u

    def test_missing_field(self):
        with pytest.raises(SandpileError):
            from_json_dict({"m": 2, "n": 2, "a": [0]})

    def test_malformed_text(self):
        for text in ('{"m": 2,', '{"m":1,"n":1,"a":[],"sink":%s,"b":[0]}' % ("9" * 5000)):
            with pytest.raises(SandpileError, match="malformed"):
                loads(text)

    def test_non_integer_values(self):
        with pytest.raises(SandpileError):
            from_json_dict({"m": 2, "n": 2, "a": [0.5], "sink": 0, "b": [0, 0]})

    @pytest.mark.parametrize(
        "field,value",
        [
            ("m", "2"), ("m", 2.0), ("m", True), ("n", None), ("n", [2]),
            ("sink", True), ("sink", 0.0), ("sink", "0"),
            ("a", [False]), ("b", [0, True]), ("a", 0), ("b", "00"), ("b", {"0": 0}),
        ],
    )
    def test_bool_and_non_int_fields_rejected(self, field, value):
        data = {"m": 2, "n": 2, "a": [0], "sink": 0, "b": [0, 0]}
        data[field] = value
        with pytest.raises(SandpileError):
            from_json_dict(data)


class TestGraphShape:
    @pytest.mark.parametrize("m,n", [(2.5, 3), (True, 2), (2, False), ("2", 3), (2, None), (3.0, 3)])
    def test_non_int_sizes_rejected(self, m, n):
        with pytest.raises(SandpileError):
            GraphShape(m, n)

    def test_sizes_below_one_rejected(self):
        with pytest.raises(SandpileError):
            GraphShape(0, 3)


class TestParkingRepresentativeEquivalence:
    @pytest.mark.parametrize("m,n", [(2, 2), (3, 2)])
    def test_output_parking_and_equivalent(self, m, n):
        from bipartite_sandpile.core import sort_config as sort_cfg

        for u in exhaustive_suite(m, n, -2, 2 * m * n):
            fast = parking_representative(u)
            slow = park_by_definition(u)
            assert sort_cfg(slow) == fast
            assert toppling_equivalent(u, slow)
