import pytest

from bipartite_sandpile.core import GraphShape, SandpileError, config
from bipartite_sandpile.cylindric import (
    BoundarySets,
    axes_prefactor,
    boundary_sets,
    label_cell,
    label_cells,
    rank_via_cylindric,
    sink_series,
    sink_series_direct,
    xpara,
    xpara_by_counting,
    ypara,
    ypara_by_counting,
)
from bipartite_sandpile.genfunc import enumerate_parking_sorted, xy_table
from bipartite_sandpile.series import SeriesRing

RUN75 = config(7, 5, [0, 0, 0, 3, 3, 3], None, [0, 0, 0, 3, 3])


class TestLabelCell:
    def test_red_label_16(self):
        cell = label_cell(RUN75, 16)
        assert (cell.row, cell.column, cell.side) == (1, 3, "right")

    def test_green_label_11(self):
        cell = label_cell(RUN75, 11)
        assert (cell.row, cell.column, cell.side) == (1, 2, "left")

    def test_negative_label(self):
        cell = label_cell(RUN75, -5)
        assert (cell.row, cell.column, cell.side) == (0, -1, "left")

    def test_side_rule_row_counts(self):
        # right labels up to sink 21, per row
        rows = [0] * 5
        for s in range(22):
            cell = label_cell(RUN75, s)
            if cell.side == "right":
                rows[cell.row] += 1
        assert rows == [5, 2, 1, 4, 1]


class TestRankViaCylindric:
    def test_running_example(self):
        assert rank_via_cylindric(RUN75.with_sink(21)) == 12

    def test_empty_label_range(self):
        assert rank_via_cylindric(RUN75.with_sink(-1)) == -1

    def test_matches_formula_on_randoms(self):
        import random

        from bipartite_sandpile.rank import rank_parking_sorted

        rng = random.Random(31)
        families = {
            (m, n): enumerate_parking_sorted(GraphShape(m, n)).configs
            for m in range(1, 5)
            for n in range(1, 5)
        }
        for _ in range(1000):
            fam = families[rng.randint(1, 4), rng.randint(1, 4)]
            u = rng.choice(fam).with_sink(rng.randint(-5, 40))
            assert rank_via_cylindric(u) == rank_parking_sorted(u)


class TestStatistics:
    def test_very_negative_sink(self):
        assert ypara(RUN75.with_sink(-30)) == 0

    def test_xy00_count_on_k53(self):
        count = 0
        for u in enumerate_parking_sorted(GraphShape(5, 3)).configs:
            for s in range(-20, 40):
                v = u.with_sink(s)
                if xpara(v) == 0 and ypara(v) == 0:
                    count += 1
        assert count == 15

    def test_closed_form_equals_direct_counting(self):
        for u in enumerate_parking_sorted(GraphShape(4, 3)).configs:
            for s in range(-10, 41):
                v = u.with_sink(s)
                assert xpara(v) == xpara_by_counting(v)
                assert ypara(v) == ypara_by_counting(v)

    def test_sink_increment_moves_one_statistic(self):
        for u in enumerate_parking_sorted(GraphShape(3, 4)).configs:
            for s in range(-8, 30):
                dx = xpara(u.with_sink(s + 1)) - xpara(u.with_sink(s))
                dy = ypara(u.with_sink(s + 1)) - ypara(u.with_sink(s))
                assert (dx, dy) in ((-1, 0), (0, 1))


    def test_non_parking_or_partial_rejected(self):
        for stat in (xpara, ypara):
            with pytest.raises(SandpileError):
                stat(config(2, 3, [1], 0, [0, 1, 1]))
            with pytest.raises(SandpileError):
                stat(config(2, 3, [0], 0, [0, 5, 1]))
            with pytest.raises(SandpileError):
                stat(RUN75)


class TestBoundarySets:
    def test_k43_example(self):
        u = config(4, 3, [0, 0, 0], None, [0, 0, 1])
        sets = boundary_sets(u)
        assert sets.s_plus == (-1, 2, 5, 7)
        assert sets.s_minus == (0, 3, 6)

    @pytest.mark.parametrize("m", range(1, 5))
    @pytest.mark.parametrize("n", range(1, 5))
    def test_one_more_positive_boundary(self, m, n):
        for u in enumerate_parking_sorted(GraphShape(m, n)).configs:
            sets = boundary_sets(u)
            assert len(sets.s_plus) == len(sets.s_minus) + 1

    def test_alternation(self):
        for u in enumerate_parking_sorted(GraphShape(3, 3)).configs:
            sets = boundary_sets(u)
            merged = sorted(sets.s_plus + sets.s_minus)
            kinds = ["+" if s in sets.s_plus else "-" for s in merged]
            assert all(a != b for a, b in zip(kinds, kinds[1:]))
            assert kinds[0] == "+" and kinds[-1] == "+"

    def test_non_parking_rejected(self):
        with pytest.raises(SandpileError):
            boundary_sets(config(2, 3, [1], None, [0, 1, 1]))

    @pytest.mark.parametrize("m", range(1, 6))
    @pytest.mark.parametrize("n", range(1, 6))
    def test_closed_form_equals_a_label_scan(self, m, n):
        # every side switch of consecutive labels over [-1, nm+n], the window
        # outside which no label switches sides
        for u in enumerate_parking_sorted(GraphShape(m, n)).configs:
            for v in (u, u.with_sink(n * m // 2)):
                cells = label_cells(v, range(-1, n * m + n + 1))
                right = {cell.s: cell.side == "right" for cell in cells}
                switches = [(s, right[s + 1]) for s in range(-1, n * m + n) if right[s] != right[s + 1]]
                assert boundary_sets(v) == BoundarySets(
                    tuple(s for s, to_right in switches if to_right),
                    tuple(s for s, to_right in switches if not to_right),
                )


class TestSinkSeries:
    def test_prefactor_is_axes_indicator(self):
        ring = SeriesRing(("x", "y"), (6, 6))
        pref = axes_prefactor(ring)
        for a in range(7):
            for b in range(7):
                expected = 1 if (a == 0 or b == 0) else 0
                assert pref.coefficient({"x": a, "y": b}) == expected

    @pytest.mark.parametrize("m,n", [(4, 3), (3, 4)])
    def test_closed_form_equals_direct(self, m, n):
        ring = SeriesRing(("x", "y"), (8, 8))
        for u in enumerate_parking_sorted(GraphShape(m, n)).configs:
            assert sink_series(u, ring) == sink_series_direct(u, ring)

    def test_origin_coefficient_counts_clean_splits(self):
        # x^0 y^0 appears exactly when some sink leaves every left cell
        # visited and every right cell untouched, i.e. when the sides never
        # switch back (no negative boundary); the totals match the tables
        ring = SeriesRing(("x", "y"), (4, 4))
        for m, n in [(3, 3), (4, 2), (5, 3)]:
            total = 0
            for u in enumerate_parking_sorted(GraphShape(m, n)).configs:
                coeff = sink_series(u, ring).coefficient({"x": 0, "y": 0})
                assert coeff == (1 if not boundary_sets(u).s_minus else 0)
                total += coeff
            assert total == xy_table(GraphShape(m, n), ring).coefficient({"x": 0, "y": 0})

    def test_sums_to_xy_table(self):
        ring = SeriesRing(("x", "y"), (6, 6))
        total = ring.zero()
        for u in enumerate_parking_sorted(GraphShape(3, 2)).configs:
            total = total + sink_series(u, ring)
        assert total == xy_table(GraphShape(3, 2), ring)
