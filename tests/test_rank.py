import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipartite_sandpile.cli import CHECK_MAX_DEGREE
from bipartite_sandpile.core import (
    GraphShape,
    ProofOfRank,
    SandpileError,
    config,
    degree,
    from_counts,
    is_compact,
    is_stable,
    sort_config,
    stable_parts,
    stabilize,
    value_counts,
)
from bipartite_sandpile.rank import (
    _gaps_from_counts,
    _grid_shift,
    canonical_divisor,
    decompose_compact,
    greedy_step,
    greedy_step_rvector,
    is_effective,
    is_parking_sorted,
    is_recurrent_sorted,
    next_toward_parking,
    next_toward_recurrent,
    park_sort,
    parking_representative,
    r_vector,
    rank_greedy,
    rank_of,
    rank_from_gaps,
    rank_parking_sorted,
    rank_scan,
    rank_with_proof,
    row_gaps,
    shift_east,
    shift_north,
    shift_south,
    shift_west,
    verify_rank_proof,
)
from bipartite_sandpile import cylindric, genfunc, oracle, rank

from conftest import WIDE_INTS, WIDE_PARTS, stable_sorted_partials

RUN75 = config(7, 5, [0, 0, 0, 3, 3, 3], None, [0, 0, 0, 3, 3])


class TestRVector:
    def test_running_example(self):
        assert r_vector(RUN75).entries == (1, -2, -2, 1, -2)

    def test_pipeline_example(self):
        # last entry recomputed from the definition: row 5 of the grid has its
        # red north step at column 6 and its green north step at column 7
        u = config(7, 5, [0, 1, 2, 3, 3, 3], None, [2, 4, 4, 6, 6])
        assert r_vector(u).entries == (3, 4, 3, 4, 1)

    def test_one_column_graphs(self):
        u = config(1, 4, [], None, [0, 0, 0, 0])
        assert r_vector(u).entries == (1, 1, 1, 1)

    def test_unsorted_rejected(self):
        with pytest.raises(SandpileError):
            r_vector(config(2, 2, [1], None, [1, 0]))

    @pytest.mark.parametrize("m,n", [(3, 3), (4, 2), (2, 4)])
    def test_stable_sorted_bounds(self, m, n):
        for u in stable_sorted_partials(m, n):
            entries = r_vector(u).entries
            assert entries[0] >= 1
            assert all(-m + 2 <= r <= m for r in entries)


class TestParkingRecurrentPredicates:
    def test_running_example_is_parking(self):
        assert is_parking_sorted(RUN75)

    def test_phi_chain_intermediate_is_not(self):
        assert not is_parking_sorted(config(7, 5, [0, 0, 0, 3, 3, 3], None, [1, 1, 1, 4, 4]))

    @pytest.mark.parametrize("m,n", [(3, 2), (2, 3), (3, 3)])
    def test_against_subset_definition(self, m, n):
        for u in stable_sorted_partials(m, n):
            assert is_parking_sorted(u) == oracle.is_parking_by_definition(u.with_sink(0))

    @pytest.mark.parametrize("m,n", [(3, 3), (4, 3)])
    def test_parking_forces_first_b_zero(self, m, n):
        for u in stable_sorted_partials(m, n):
            if is_parking_sorted(u):
                assert u.b[0] == 0

    def test_recurrent_is_psi_fixed_point(self):
        for u in stable_sorted_partials(3, 3):
            assert is_recurrent_sorted(u) == (next_toward_recurrent(u) == u)

    @pytest.mark.parametrize("m", range(1, 4))
    @pytest.mark.parametrize("n", range(1, 4))
    def test_recurrent_against_subset_definition(self, m, n):
        for u in stable_sorted_partials(m, n):
            assert is_recurrent_sorted(u) == (oracle.psi_by_definition(u) == u)


class TestShifts:
    def small_compacts(self):
        rng = random.Random(0)
        for _ in range(80):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            base = rng.randint(-4, 4)
            a = sorted(rng.randint(base, base + n) for _ in range(m - 1))
            base = rng.randint(-4, 4)
            b = sorted(rng.randint(base, base + m) for _ in range(n))
            yield config(m, n, a, rng.randint(-5, 5), b)

    def test_inversion(self):
        for u in self.small_compacts():
            assert shift_west(shift_east(u)) == u
            assert shift_south(shift_north(u)) == u

    def test_north_shift_pays_one_sink_unit(self):
        for u in self.small_compacts():
            assert shift_north(u).sink == u.sink - 1
            assert shift_east(u).sink == u.sink

    def test_east_shift_is_sorted_reverse_toppling_of_a1(self):
        u = config(3, 3, [1, 2], 0, [0, 1, 2])
        reverse = config(3, 3, [1 + 3, 2], 0, [-1, 0, 1])  # u + Delta^(a1)
        expected = config(3, 3, sorted(reverse.a), 0, sorted(reverse.b))
        assert shift_east(u) == expected

    def test_non_compact_rejected(self):
        with pytest.raises(SandpileError):
            shift_east(config(2, 3, [0], 0, [0, 0, 9]))

    def test_each_shift_is_one_step_by_definition(self):
        for u in self.small_compacts():
            assert shift_east(u) == one_step(u, "a", 1)
            assert shift_west(u) == one_step(u, "a", -1)
            assert shift_north(u) == one_step(u, "b", 1)
            assert shift_south(u) == one_step(u, "b", -1)


class TestTowardParking:
    def test_chain_from_figures(self):
        u = config(7, 5, [0, 0, 0, 2, 2, 2], None, [1, 1, 5, 5, 5])
        step1 = next_toward_parking(u)
        step2 = next_toward_parking(step1)
        step3 = next_toward_parking(step2)
        assert (step1.a, step1.b) == ((0, 0, 0, 3, 3, 3), (1, 1, 1, 4, 4))
        assert (step2.a, step2.b) == ((0, 0, 0, 2, 2, 2), (0, 0, 4, 4, 4))
        assert (step3.a, step3.b) == ((0, 0, 0, 3, 3, 3), (0, 0, 0, 3, 3))
        assert next_toward_parking(step3) == step3

    def test_parking_fixed_points(self):
        for u in stable_sorted_partials(4, 3):
            assert (next_toward_parking(u) == u) == is_parking_sorted(u)

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (2, 3), (3, 3), (4, 3), (2, 4), (1, 3), (3, 1)])
    def test_matches_minimal_subset_definition(self, m, n):
        for u in stable_sorted_partials(m, n):
            assert next_toward_parking(u) == oracle.phi_by_definition(u)
            assert next_toward_recurrent(u) == oracle.psi_by_definition(u)

    def test_mutual_inversion(self):
        for u in stable_sorted_partials(3, 4):
            forward = next_toward_parking(u)
            if forward != u:
                assert next_toward_recurrent(forward) == u
            back = next_toward_recurrent(u)
            if back != u:
                assert next_toward_parking(back) == u

    def test_far_crossing_is_one_slide(self):
        # the green path first meets the red one a full turn away; walking it
        # one shift at a time cost O((m+n)^2)
        m = n = 300
        u = config(m, n, [n - 1] * (m - 1), None, [0] * n)
        back = next_toward_recurrent(u)
        assert back != u and is_stable(back)
        assert next_toward_parking(back) == u

    def test_power_of_shifts_formula(self):
        # the slide toward parking equals explicit west/south shift powers
        u = config(7, 5, [0, 0, 0, 2, 2, 2], 0, [1, 1, 5, 5, 5])
        moved = next_toward_parking(u)
        v = u
        for _ in range(3):  # m - col = 7 - 4
            v = shift_west(v)
        for _ in range(3):  # n - row + 1 = 5 - 3 + 1
            v = shift_south(v)
        assert v == moved


class TestGreedyStep:
    def test_figures(self):
        step1 = greedy_step(RUN75)
        step2 = greedy_step(step1)
        assert (step1.a, step1.b) == ((0, 0, 0, 2, 2, 2), (0, 0, 3, 4, 4))
        assert (step2.a, step2.b) == ((0, 0, 0, 3, 3, 3), (0, 1, 1, 3, 4))

    def test_sink_absorbs_north_moves(self):
        u = RUN75.with_sink(21)
        assert greedy_step(u).sink == 18  # three rows climbed
        assert degree(greedy_step(u)) == degree(u) - 1

    def test_stays_parking(self):
        v = RUN75
        for _ in range(12):
            v = greedy_step(v)
            assert is_parking_sorted(v)
            assert v.b[0] == 0

    def test_rvector_relation(self):
        for u in stable_sorted_partials(4, 4):
            if not is_parking_sorted(u):
                continue
            r = r_vector(u)
            entries = r.entries
            h = next((i + 1 for i in range(1, len(entries)) if entries[i] == 1), len(entries) + 1)
            expected = r
            for _ in range(h - 1):
                expected = greedy_step_rvector(expected)
            assert r_vector(greedy_step(u)) == expected

    def test_rvector_step_cases(self):
        r = r_vector(RUN75)
        assert greedy_step_rvector(r).entries == (-2, -2, 1, -2, 1)
        from bipartite_sandpile.rank import RVector

        r2 = RVector((0, 1, 1), GraphShape(4, 3))
        assert greedy_step_rvector(r2).entries == (1, 1, 1)

    def test_rvector_full_cycle_lifts_small_entries(self):
        from bipartite_sandpile.rank import RVector

        r = RVector((1, -2, 0, 1), GraphShape(4, 4))
        out = r
        for _ in range(4):
            out = greedy_step_rvector(out)
        assert out.entries == (1, -1, 1, 1)

    def test_entry_above_one_rejected(self):
        from bipartite_sandpile.rank import RVector

        with pytest.raises(SandpileError):
            greedy_step_rvector(RVector((2, 0), GraphShape(3, 2)))

    def test_monotone_in_reverse_deglex(self):
        def reverse_deglex_key(entries):
            return (sum(entries), tuple(reversed(entries)))

        for m, n in [(3, 3), (4, 2), (2, 4)]:
            for u in stable_sorted_partials(m, n):
                if not is_parking_sorted(u):
                    continue
                before = r_vector(u).entries
                after = r_vector(greedy_step(u)).entries
                assert reverse_deglex_key(after) >= reverse_deglex_key(before)
                if before == (1,) * n:
                    assert after == before
                else:
                    assert reverse_deglex_key(after) > reverse_deglex_key(before)


class TestParkSort:
    def test_pipeline_example(self):
        u = config(7, 5, [0, 1, 2, 3, 3, 3], None, [2, 4, 4, 6, 6])
        v = park_sort(u)
        assert (v.a, v.b) == ((0, 1, 2, 2, 2, 4), (0, 0, 2, 2, 5))

    def test_parking_input_fixed(self):
        assert park_sort(RUN75) == RUN75
        assert park_sort(RUN75.with_sink(21)) == RUN75.with_sink(21)

    @pytest.mark.parametrize("m,n", [(3, 2), (2, 3)])
    def test_exhaustive_against_oracle(self, m, n):
        for u in stable_sorted_partials(m, n):
            full = u.with_sink(0)
            assert park_sort(full) == sort_config(oracle.park_by_definition(full))

    def test_result_is_parking(self):
        for u in stable_sorted_partials(4, 3):
            assert is_parking_sorted(park_sort(u))

    @pytest.mark.parametrize("m,n", [(1, 3), (3, 1), (3, 2), (2, 3), (3, 3)])
    def test_first_b_value_minus_one_against_oracle(self, m, n):
        # the relaxed precondition of the greedy step: b-values in [-1, m)
        for u in stable_sorted_partials(m, n):
            if u.b[0] == 0:
                for sink in range(-2, 2 * m * n):
                    low = config(m, n, u.a, sink, (-1,) + u.b[1:])
                    assert park_sort(low) == sort_config(oracle.park_by_definition(low))


class TestRankFormula:
    def test_running_example(self):
        u = RUN75.with_sink(21)
        assert rank_parking_sorted(u) == 12
        # summands of the formula, row by row
        q, rem = divmod(21 + 1, 5)
        sums = [max(0, q + (1 if i <= rem else 0) + r - 1) for i, r in enumerate(r_vector(u).entries, 1)]
        assert sums == [5, 2, 1, 4, 1]

    def test_negative_sink(self):
        assert rank_parking_sorted(RUN75.with_sink(-1)) == -1
        assert rank_parking_sorted(RUN75.with_sink(-40)) == -1

    def test_non_parking_rejected(self):
        with pytest.raises(SandpileError):
            rank_parking_sorted(config(7, 5, [0, 0, 0, 3, 3, 3], 0, [1, 1, 1, 4, 4]))


class TestRankAlgorithms:
    def test_negative_degree(self):
        u = config(3, 3, [0, 0], -5, [0, 0, 0])
        value, proof = rank_greedy(u)
        assert value == -1
        assert degree(proof.f) == 0

    def test_running_example_all_routes(self):
        u = RUN75.with_sink(21)
        value, proof = rank_greedy(u)
        assert value == 12
        assert rank_scan(u) == 12
        assert rank_of(u) == 12
        assert degree(proof.f) == 13
        assert all(v == 0 for v in proof.f.a) and proof.f.sink == 0

    def test_proof_properties(self):
        rng = random.Random(9)
        for _ in range(60):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            u = config(
                m,
                n,
                [rng.randint(-4, 8) for _ in range(m - 1)],
                rng.randint(-4, 12),
                [rng.randint(-4, 8) for _ in range(n)],
            )
            value, proof = rank_greedy(u)
            assert degree(proof.f) == value + 1
            assert all(v == 0 for v in proof.f.a) and proof.f.sink == 0
            remainder = config(
                m, n, u.a, u.sink, [x - y for x, y in zip(u.b, proof.f.b)]
            )
            assert not is_effective(remainder)

    def test_proof_minimality_spot_check(self):
        u = RUN75.with_sink(21)
        _, proof = rank_greedy(u)
        for j, fv in enumerate(proof.f.b):
            if fv == 0:
                continue
            smaller = list(proof.f.b)
            smaller[j] -= 1
            remainder = config(7, 5, u.a, u.sink, [x - y for x, y in zip(u.b, smaller)])
            assert is_effective(remainder)

    @pytest.mark.parametrize("m,n", [(63, 1), (1, 63), (32, 32)])
    def test_scan_at_the_check_bounds(self, m, n):
        # m + n and degree at the bounds of rank --check
        u = config(m, n, [0] * (m - 1), CHECK_MAX_DEGREE, [0] * n)
        assert rank_scan(u) == rank_of(u)

    def test_scan_handles_one_sided_shapes(self):
        for n in (1, 2, 5):
            u = config(1, n, [], 7, [0] * n)
            assert rank_scan(u) == rank_of(u) == 7
        for m in (2, 4):
            u = config(m, 1, [0] * (m - 1), 3, [0])
            assert rank_scan(u) == rank_of(u)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32))
    def test_three_fast_routes_agree_on_randoms(self, seed):
        rng = random.Random(seed)
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        u = config(
            m,
            n,
            [rng.randint(-10, 20) for _ in range(m - 1)],
            rng.randint(-15, 40),
            [rng.randint(-10, 20) for _ in range(n)],
        )
        expected = rank_of(u)
        assert rank_scan(u) == expected
        assert rank_greedy(u)[0] == expected

    def test_scan_agrees_on_thousand_randoms(self):
        rng = random.Random(6283)
        for _ in range(1000):
            m, n = rng.randint(1, 8), rng.randint(1, 8)
            u = config(
                m,
                n,
                [rng.randint(-10, 20) for _ in range(m - 1)],
                rng.randint(-15, 40),
                [rng.randint(-10, 20) for _ in range(n)],
            )
            assert rank_scan(u) == rank_of(u)

    def test_permutation_invariance(self):
        rng = random.Random(17)
        for _ in range(80):
            m, n = rng.randint(2, 6), rng.randint(2, 6)
            u = config(
                m,
                n,
                [rng.randint(-5, 9) for _ in range(m - 1)],
                rng.randint(-5, 15),
                [rng.randint(-5, 9) for _ in range(n)],
            )
            pa = list(range(m - 1))
            pb = list(range(n))
            rng.shuffle(pa)
            rng.shuffle(pb)
            v = config(m, n, [u.a[i] for i in pa], u.sink, [u.b[j] for j in pb])
            assert rank_of(v) == rank_of(u)


class TestFusedPipeline:
    @settings(max_examples=300, deadline=None)
    @given(WIDE_PARTS)
    def test_equals_composition_of_validating_layers(self, parts):
        u = config(*parts)
        parked = park_sort(sort_config(stabilize(u)))
        assert parking_representative(u) == parked
        assert rank_of(u) == rank_parking_sorted(parked)
        assert degree(parked) == degree(u)

    def test_one_sided_shapes_and_huge_sinks(self):
        for m, n in [(1, 1), (1, 5), (5, 1)]:
            for sink in (-(2**80), -1, 0, 7, 2**80):
                u = config(m, n, [3 * 2**66] * (m - 1), sink, [-(2**65)] * n)
                parked = park_sort(sort_config(stabilize(u)))
                assert parking_representative(u) == parked
                assert rank_of(u) == rank_parking_sorted(parked)

    @pytest.mark.parametrize("m,n", [(1, 3), (3, 1), (3, 3), (4, 3), (2, 5)])
    def test_parked_gap_identity(self, m, n):
        for v in stable_sorted_partials(m, n):
            r = r_vector(v).entries
            top = max(r)
            h = r.index(top)
            expected = [x - top + 1 for x in r[h:]] + [x - top + 2 for x in r[:h]]
            assert list(r_vector(park_sort(v)).entries) == expected

    @pytest.mark.parametrize("m,n", [(1, 4), (3, 3), (4, 2), (2, 5)])
    def test_rank_from_gaps_matches_the_cylindric_counts(self, m, n):
        for u in genfunc.enumerate_parking_sorted(GraphShape(m, n)).configs:
            gaps = r_vector(u).entries
            sinks = range(-3, 3 * m * n)
            ranks = [cylindric.rank_via_cylindric(u.with_sink(s)) for s in sinks]
            assert [rank_from_gaps(gaps, s) for s in sinks] == ranks


# K_{5,5} with row gaps (1, -1, -1, 3, 1): the largest gap first in row h = 3,
# and the parked sink is the sink plus 5 (3 - 1) - 3 = sink + 7
LATE_TOP = config(5, 5, [0, 0, 3, 3], None, [0, 0, 0, 4, 4])


class TestRankFromUnparkedGaps:
    """rank_from_gaps reads the rank off the row gaps of any stable sorted
    configuration, and rank_of and is_effective never build the parked ones."""

    @pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 5) for n in range(1, 5)])
    def test_equals_the_parked_formula(self, m, n):
        for v in stable_sorted_partials(m, n):
            gaps = r_vector(v).entries
            for sink in range(-3, 11):
                u = v.with_sink(sink)
                parked = park_sort(u)
                expected = rank_parking_sorted(parked)
                assert rank_from_gaps(gaps, sink) == expected
                assert rank_of(u) == expected
                assert is_effective(u) == (parked.sink >= 0)

    # the oracle's cost grows fast with m + n and the rank: about 5 minutes
    # at every m, n <= 4 and 13 s at m + n <= 6, so it runs on m + n <= 5 here
    @pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 5) for n in range(1, 5) if m + n <= 5])
    def test_equals_the_oracle(self, m, n):
        for v in stable_sorted_partials(m, n):
            gaps = r_vector(v).entries
            for sink in range(-3, 11):
                u = v.with_sink(sink)
                rank = oracle.rank_by_definition(u, restrict_support=True)
                assert rank_from_gaps(gaps, sink) == rank_of(u) == rank
                assert is_effective(u) == (oracle.park_by_definition(u).sink >= 0)

    @pytest.mark.parametrize(
        "sink,rank",
        [
            (-8, -1),  # the parked sink is -1
            (-7, 0),  # a negative sink of rank 0: the parked sink is 0
            (-5, 0),
            (0, 2),  # R = 1 < h: the parked rows below R wrap past row n
            (1, 2),  # R = 2 < h
            (2, 2),  # R = h
            (3, 3),  # R = 4 > h
            (4, 4),  # R = 0: no row before R
        ],
    )
    def test_each_run_of_rows(self, sink, rank):
        # ranks from oracle.rank_by_definition
        u = LATE_TOP.with_sink(sink)
        assert rank_from_gaps(r_vector(LATE_TOP).entries, sink) == rank
        assert rank_of(u) == rank_parking_sorted(park_sort(u)) == rank_scan(u) == rank
        assert is_effective(u) == (rank >= 0)

    def test_parked_input_one_sided_shapes(self):
        # h = 0 on a parking input; m = 1 has every gap 1, n = 1 has R = 0
        assert rank_from_gaps(r_vector(RUN75).entries, 21) == 12
        for n in (1, 2, 5):
            for sink in (-2, -1, 0, 3, 2 * n + 1):
                expected = max(sink, -1)  # K_{1,n} is a tree: the rank is the degree, if >= 0
                assert rank_from_gaps([1] * n, sink) == rank_of(config(1, n, [], sink, [0] * n)) == expected
        for m in (1, 2, 5):
            for b in range(m):
                v = config(m, 1, [0] * (m - 1), None, [b])
                for sink in (-b - 2, -b - 1, 0, 7):
                    u = v.with_sink(sink)
                    expected = max(sink + b, -1)  # K_{m,1} is a tree too
                    assert rank_from_gaps(r_vector(v).entries, sink) == rank_of(u) == expected
                    assert rank_scan(u) == expected

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-40, 40), min_size=1, max_size=40), WIDE_INTS)
    def test_loop_and_filters_sum_the_same_terms(self, gaps, sink):
        # rank_from_gaps loops over fewer than 16 rows and filters from 16 on
        q, rem = divmod(sink + 1, len(gaps))
        terms = [max(0, q + (i < rem) + r - 1) for i, r in enumerate(gaps)]
        assert rank_from_gaps(gaps, sink) == sum(terms) - 1

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.integers(14, 30), st.integers(0, 2**32))
    def test_wide_shapes_against_the_reference_routes(self, m, n, seed):
        rng = random.Random(seed)
        u = config(
            m,
            n,
            [rng.randint(-2 * n, 3 * n) for _ in range(m - 1)],
            rng.randint(-4 * n, 3 * m * n),
            [rng.randint(-2 * m, 3 * m) for _ in range(n)],
        )
        expected = rank_scan(u)
        assert rank_of(u) == rank_parking_sorted(park_sort(sort_config(stabilize(u)))) == expected
        assert is_effective(u) == (expected >= 0)

    def test_both_cannot_happen_checks_run(self, monkeypatch):
        u = RUN75.with_sink(21)
        gaps_from_counts = rank._gaps_from_counts

        class LastIndex(list):
            """A gap list whose index finds the last occurrence."""

            def index(self, value):
                return len(self) - 1 - self[::-1].index(value)

        monkeypatch.setattr(rank, "_gaps_from_counts", lambda a, b: LastIndex(gaps_from_counts(a, b)))
        for route in (rank_of, is_effective):
            with pytest.raises(RuntimeError, match="row gap above 1"):
                route(u)
        monkeypatch.setattr(rank, "_gaps_from_counts", lambda a, b: [g + 1 for g in gaps_from_counts(a, b)])
        for route in (rank_of, is_effective):
            with pytest.raises(RuntimeError, match="not sorted and stable"):
                route(u)

    @settings(max_examples=300, deadline=None)
    @given(WIDE_PARTS)
    def test_gaps_from_counts_equals_row_gaps(self, parts):
        m, n, a, sink, b = parts
        a, _, b = stable_parts(m, n, a, sink, b)
        a_counts, b_counts = value_counts(n - 1, a), value_counts(m - 1, b)
        assert _gaps_from_counts(a_counts, b_counts) == row_gaps(from_counts(a_counts), from_counts(b_counts), n)


def _small_grid(m: int, n: int):
    """Every input with a-values in [-1, n], b-values in [-1, m] and degree
    in [-2, 3g+2], g = (m-1)(n-1)."""
    g = (m - 1) * (n - 1)
    for a in itertools.product(range(-1, n + 1), repeat=m - 1):
        for b in itertools.product(range(-1, m + 1), repeat=n):
            for d in range(-2, 3 * g + 3):
                yield config(m, n, a, d - sum(a) - sum(b), b)


def _with_b(u, b):
    return config(u.shape.m, u.shape.n, u.a, u.sink, b)


def _minus(u, f):
    return _with_b(u, [x - y for x, y in zip(u.b, f)])


class TestRankCertificate:
    @pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 4) for n in range(1, 4)])
    def test_equals_greedy_proof_on_exhaustive_grid(self, m, n):
        for u in _small_grid(m, n):
            cert = rank_with_proof(u)
            assert (cert.rank, cert.proof) == rank_greedy(u)
            assert verify_rank_proof(u, cert.rank, cert.proof)

    @settings(max_examples=300, deadline=None)
    @given(WIDE_PARTS)
    def test_one_pass_gives_every_output(self, parts):
        u = config(*parts)
        cert = rank_with_proof(u)
        assert cert.rank == rank_of(u)
        assert cert.parking == parking_representative(u)
        assert cert.gaps == r_vector(cert.parking)
        assert verify_rank_proof(u, cert.rank, cert.proof)
        if degree(u) <= 500:  # the greedy loop takes rank + 1 steps
            assert cert.proof == rank_greedy(u)[1]

    def test_verifier_rejects_tampered_proofs(self):
        rng = random.Random(31)
        moved_rejected = 0
        for u in [RUN75.with_sink(21)] + [
            config(m, n, [rng.randint(-4, 8) for _ in range(m - 1)], rng.randint(0, 20),
                   [rng.randint(-4, 8) for _ in range(n)])
            for m, n in [(rng.randint(2, 4), rng.randint(2, 4)) for _ in range(40)]
        ]:
            cert = rank_with_proof(u)
            f = list(cert.proof.f.b)
            for j in (j for j in range(len(f)) if f[j]):
                lowered = _with_b(cert.proof.f, f[:j] + [f[j] - 1] + f[j + 1:])
                # the wrong degree, and not a proof of rank - 1 either
                assert not verify_rank_proof(u, cert.rank, ProofOfRank(lowered))
                assert not verify_rank_proof(u, cert.rank - 1, ProofOfRank(lowered))
                for k in range(len(f)):
                    if k == j:
                        continue
                    g = list(f)
                    g[j] -= 1
                    g[k] += 1
                    moved = ProofOfRank(_with_b(cert.proof.f, g))
                    holds = oracle.park_by_definition(_minus(u, g)).sink < 0
                    assert verify_rank_proof(u, cert.rank, moved) == holds
                    moved_rejected += not holds
        assert moved_rejected > 0

    def test_verifier_rejects_a_wrong_degree_or_support(self):
        u = RUN75.with_sink(21)
        f = rank_with_proof(u).proof.f
        raised = ProofOfRank(_with_b(f, (f.b[0] + 1,) + f.b[1:]))
        assert verify_rank_proof(u, 13, raised) and not verify_rank_proof(u, 12, raised)
        # the b-part alone is a proof of rank 12; with a chip more off the b-part it is none
        for extra in (config(7, 5, [1, 0, 0, 0, 0, 0], 0, f.b), config(7, 5, [0] * 6, 1, f.b)):
            assert not verify_rank_proof(u, 12, ProofOfRank(extra))
            assert not verify_rank_proof(u, 13, ProofOfRank(extra))
        assert not verify_rank_proof(u, 12, ProofOfRank(config(5, 7, [0] * 4, 0, f.b + (0, 0))))

    def test_negative_degree_has_the_empty_proof(self):
        cert = rank_with_proof(config(3, 3, [2, 2], -9, [0, 1, 2]))
        assert cert.rank == -1 and not any(cert.proof.f.b)


class TestCanonicalDivisor:
    def test_small_shapes(self):
        k53 = canonical_divisor(GraphShape(5, 3))
        assert (k53.a, k53.sink, k53.b) == ((1, 1, 1, 1), 1, (3, 3, 3))
        k22 = canonical_divisor(GraphShape(2, 2))
        assert (k22.a, k22.sink, k22.b) == ((0,), 0, (0, 0))

    def test_riemann_roch_on_randoms(self):
        rng = random.Random(23)
        for _ in range(120):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            k = canonical_divisor(GraphShape(m, n))
            u = config(
                m,
                n,
                [rng.randint(-6, 10) for _ in range(m - 1)],
                rng.randint(-8, 18),
                [rng.randint(-6, 10) for _ in range(n)],
            )
            ku = config(
                m,
                n,
                [x - y for x, y in zip(k.a, u.a)],
                k.sink - u.sink,
                [x - y for x, y in zip(k.b, u.b)],
            )
            assert rank_of(u) - rank_of(ku) == degree(u) - m * n + m + n


class TestDecomposeCompact:
    def test_parking_is_origin(self):
        u = RUN75.with_sink(9)
        shift = decompose_compact(u)
        assert (shift.k_a, shift.k_b) == (0, 0)

    def test_round_trip_exhaustive(self):
        for u in stable_sorted_partials(3, 3):
            full = u.with_sink(4)
            assert reapplied(full, decompose_compact(full)) == full

    def test_phi_chain_intermediate(self):
        u = config(7, 5, [0, 0, 0, 3, 3, 3], 0, [1, 1, 1, 4, 4])
        assert reapplied(u, decompose_compact(u)) == u

    def test_east_shift_increments_east_exponent(self):
        u = config(3, 3, [0, 2], 5, [0, 1, 2])
        before = decompose_compact(u)
        after = decompose_compact(shift_east(u))
        assert (after.k_a, after.k_b) == (before.k_a + 1, before.k_b)

    def test_exponents_beyond_m_plus_n(self):
        for u, exponents in (
            (config(4, 4, [0, 0, 0], 0, [3, 3, 3, 3]), (9, 12)),
            (config(1, 1, [], 0, [3]), (0, 3)),
        ):
            shift = decompose_compact(u)
            assert (shift.k_a, shift.k_b) == exponents
            assert reapplied(u, shift) == u

    def test_round_trip_on_every_small_compact_input(self):
        values = range(-3, 6)
        for m in range(1, 4):
            for n in range(1, 4):
                for a in itertools.combinations_with_replacement(values, m - 1):
                    for b in itertools.combinations_with_replacement(values, n):
                        for sink in values:
                            u = config(m, n, a, sink, b)
                            if is_compact(u):
                                assert reapplied(u, decompose_compact(u)) == u

    def test_round_trip_on_every_stable_k44_input(self):
        for partial in stable_sorted_partials(4, 4):
            for sink in range(-3, 6):
                u = partial.with_sink(sink)
                assert reapplied(u, decompose_compact(u)) == u

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_composite_shift_equals_repeated_steps(self, data):
        def compact_part(size, spread):
            low = data.draw(st.integers(-20, 20))
            offsets = data.draw(st.lists(st.integers(0, spread), min_size=size, max_size=size))
            return sorted(low + v for v in offsets)

        m, n = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
        sink = data.draw(st.none() | st.integers(-50, 50))
        u = config(m, n, compact_part(m - 1, n), sink, compact_part(n, m))
        k_a, k_b = data.draw(st.integers(-15, 15)), data.draw(st.integers(-15, 15))
        assert _grid_shift(u, k_a, k_b) == repeated_shifts(u, k_a, k_b)


def one_step(v, part, sign):
    """A one-step grid move from its definition, independent of rank.py: one
    reverse toppling (sign 1) of the smallest vertex of the part, or one
    toppling (sign -1) of its largest, then sorted.  On the a-part that is
    east or west, the sink left alone; on the b-part north or south."""
    m, n = v.shape.m, v.shape.n
    a, sink, b = list(v.a), v.sink, list(v.b)
    end = 0 if sign > 0 else -1
    if part == "a":
        if a:
            a[end] += sign * n
        b = [x - sign for x in b]
    else:
        b[end] += sign * m
        a = [x - sign for x in a]
        sink = None if sink is None else sink - sign
    return config(m, n, sorted(a), sink, sorted(b))


def repeated_shifts(v, k_a, k_b):
    """east^k_a north^k_b of v by one-step moves."""
    for _ in range(abs(k_b)):
        v = one_step(v, "b", 1 if k_b > 0 else -1)
    for _ in range(abs(k_a)):
        v = one_step(v, "a", 1 if k_a > 0 else -1)
    return v


def reapplied(u, shift):
    """The parking representative of u moved by the decomposition's shifts."""
    return repeated_shifts(parking_representative(u), shift.k_a, shift.k_b)
