import math
import time
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bipartite_sandpile import cylindric, genfunc, rank
from bipartite_sandpile.core import GraphShape, SandpileError, config, degree
from bipartite_sandpile.genfunc import (
    PolyominoWeights,
    boundary_series_closed,
    boundary_series_direct,
    compare_series,
    degree_rank_csv,
    degree_rank_table,
    enumerate_parking_sorted,
    family_series,
    gf_closed_form,
    l_series,
    polyomino_counts,
    polyomino_series,
    polyomino_series_via_l,
    verify_gf,
    xy_csv,
    xy_table,
)
from bipartite_sandpile.oracle import is_parking_by_definition, polyomino_bruteforce
from bipartite_sandpile.rank import (
    canonical_divisor,
    is_parking_sorted,
    rank_parking_sorted,
)
from bipartite_sandpile.cylindric import sink_series, xpara, ypara
from bipartite_sandpile.series import SeriesRing, TruncatedSeries

# golden entries from the partial coefficient tables of the (degree, rank)
# and (xpara, ypara) distributions on K_{5,3}
DEGREE_RANK_K53 = {
    (10, 4): 3, (3, 1): 1, (9, 1): 57, (-3, -1): 105, (8, 0): 35, (11, 3): 89,
    (12, 5): 8, (7, -1): 15, (6, 2): 1, (5, 1): 9, (1, -1): 102, (4, -1): 75,
    (7, 2): 6, (4, 0): 27, (11, 5): 1, (8, 1): 49, (10, 3): 27, (0, 0): 1,
    (3, 0): 15, (-2, -1): 105, (4, 1): 3, (5, -1): 57, (11, 4): 15, (5, 0): 39,
    (7, 1): 36, (-1, -1): 105, (2, -1): 97, (6, 0): 49, (14, 6): 104,
    (13, 6): 3, (8, 3): 1, (15, 7): 105, (1, 0): 3, (8, 2): 20, (9, 3): 9,
    (7, 0): 48, (17, 9): 105, (9, 2): 39, (6, 1): 20, (16, 8): 105, (14, 7): 1,
    (13, 5): 102, (3, -1): 89, (6, -1): 35, (2, 0): 8, (12, 4): 97, (0, -1): 104,
    (10, 2): 75,
}
XY_K53 = {
    (1, 3): 39, (3, 0): 75, (8, 0): 105, (2, 1): 49, (0, 0): 15, (1, 6): 8,
    (0, 10): 105, (5, 1): 15, (2, 5): 3, (0, 3): 75, (4, 0): 89, (1, 2): 49,
    (9, 0): 105, (3, 3): 6, (0, 6): 102, (8, 1): 1, (1, 5): 15, (5, 0): 97,
    (0, 4): 89, (10, 0): 105, (4, 1): 27, (1, 1): 48, (3, 2): 20, (2, 6): 1,
    (7, 1): 3, (2, 2): 36, (6, 0): 102, (1, 4): 27, (2, 3): 20, (0, 7): 104,
    (4, 2): 9, (1, 0): 35, (0, 8): 105, (0, 1): 35, (7, 0): 104, (3, 4): 1,
    (6, 1): 8, (3, 1): 39, (2, 4): 9, (2, 0): 57, (1, 8): 1, (6, 2): 1,
    (4, 3): 1, (1, 7): 3, (0, 9): 105, (0, 5): 97, (5, 2): 3, (0, 2): 57,
}


class TestEnumeration:
    def test_k53_count(self):
        assert len(enumerate_parking_sorted(GraphShape(5, 3)).configs) == 105

    def test_counts_are_narayana_numbers(self):
        # as many as parallelogram polyominoes in an m x n box:
        # N(m+n-1, m) = C(m+n-1, m) C(m+n-1, m-1) / (m+n-1)
        counts = {}
        for m in range(1, 7):
            for n in range(1, 7):
                k = m + n - 1
                counts[m, n] = len(enumerate_parking_sorted(GraphShape(m, n)).configs)
                assert counts[m, n] == math.comb(k, m) * math.comb(k, m - 1) // k
        assert counts[5, 5] == 1764 and counts[6, 6] == 19404

    def test_one_row_graphs(self):
        for n in range(1, 6):
            fam = enumerate_parking_sorted(GraphShape(1, n)).configs
            assert len(fam) == 1 and fam[0].b == (0,) * n

    def test_members_are_parking(self):
        for u in enumerate_parking_sorted(GraphShape(4, 3)).configs:
            assert is_parking_sorted(u)

    def test_complete_and_duplicate_free_vs_oracle(self):
        fam = enumerate_parking_sorted(GraphShape(2, 2)).configs
        assert len(set(fam)) == len(fam)
        from conftest import stable_sorted_partials

        expected = {
            u for u in stable_sorted_partials(2, 2)
            if is_parking_by_definition(u.with_sink(0))
        }
        assert set(fam) == expected

    def test_size_guard(self):
        with pytest.raises(SandpileError):
            enumerate_parking_sorted(GraphShape(60, 60))


class TestRowTransfer:
    @pytest.mark.parametrize("q", [0, 1])
    def test_each_run_counts_every_configuration_once_per_remainder(self, q):
        # with Q = q in {0, 1} every row adds at most m - 1 to xpara and at
        # most 2 to ypara, so these caps drop nothing: row n of the run holds
        # one count per parking sorted configuration and remainder R < n
        rows = 6
        for m in range(1, 7):
            cells = genfunc._Cells(rows * (m - 1), 2 * rows, (rows + 1) * genfunc._narayana(m, rows))
            for n, tables in enumerate(genfunc._row_transfer(m, q, rows, cells), 1):
                k = m + n - 1
                narayana = math.comb(k, m) * math.comb(k, m - 1) // k
                assert sum(cells.unpack(sum(tables)).values()) == n * narayana, (m, n)

    def test_size_guard(self):
        start = time.perf_counter()
        with pytest.raises(SandpileError):
            xy_table(GraphShape(60, 60), SeriesRing(("x", "y"), (16, 16)))
        with pytest.raises(SandpileError):
            degree_rank_table(GraphShape(40, 40), (700, 723))
        with pytest.raises(SandpileError):
            family_series(60, 60, SeriesRing(("x", "y", "w", "h"), (4, 4, 60, 60)))
        assert time.perf_counter() - start < 1.0

    def test_guard_counts_the_transfer_not_the_candidates(self):
        # K_{9,9} has 165,636,900 enumeration candidates, which the guard of
        # enumerate_parking_sorted refuses; the transfer builds none of them
        with pytest.raises(SandpileError):
            enumerate_parking_sorted(GraphShape(9, 9))
        ring = SeriesRing(("x", "y"), (3, 3))
        assert sum(xy_table(GraphShape(9, 9), ring).coeffs.values()) > 0
        table = degree_rank_table(GraphShape(9, 9), (-1, 1))
        assert {d for d, _ in table} == {-1, 0, 1}


class TestDegreeRankTable:
    def test_k53_golden_entries(self):
        table = degree_rank_table(GraphShape(5, 3), (-3, 17))
        for (d, r), count in DEGREE_RANK_K53.items():
            assert table.get((d, r), 0) == count, (d, r)

    def test_low_degree_saturation(self):
        table = degree_rank_table(GraphShape(5, 3), (-6, -4))
        for d in (-6, -5, -4):
            assert table[(d, -1)] == 105

    def test_change_of_variables(self):
        ring = SeriesRing(("x", "y"), (10, 10))
        xy = xy_table(GraphShape(5, 3), ring)
        table = degree_rank_table(GraphShape(5, 3), (-3, 17))
        for (d, r), count in table.items():
            xp, yp = 8 + r - d, r + 1
            if 0 <= xp <= 10 and 0 <= yp <= 10:
                assert xy.coefficient({"x": xp, "y": yp}) == count

    @pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 6) for n in range(1, 6)])
    def test_equals_the_enumeration_route(self, m, n):
        # degrees -2..2g+2 reach all three rank regimes: -1 below 0, the
        # middle, and degree - g above 2g - 2
        g = (m - 1) * (n - 1)
        window = (-2, 2 * g + 2)
        assert degree_rank_table(GraphShape(m, n), window) == _degree_rank_by_configuration(m, n, window)

    @pytest.mark.parametrize("window", [(-6, -4), (-3, 17), (3, 5), (13, 14), (15, 15)])
    def test_equals_the_enumeration_route_on_k53_windows(self, window):
        # g = 8: windows below 0, across all regimes, inside 0..2g-2 with
        # both ends odd, ending at 2g-2 and past it
        assert degree_rank_table(GraphShape(5, 3), window) == _degree_rank_by_configuration(5, 3, window)

    def test_builds_no_configuration(self, monkeypatch):
        expected = degree_rank_table(GraphShape(4, 5), (-2, 14))

        def forbidden(*args, **kwargs):
            raise AssertionError("the table reached enumeration or a validated rank")

        for name in ("enumerate_parking_sorted", "rank_parking_sorted", "xpara", "ypara"):
            monkeypatch.setattr(genfunc, name, forbidden)
        assert degree_rank_table(GraphShape(4, 5), (-2, 14)) == expected

    def test_csv_layout(self):
        table = degree_rank_table(GraphShape(2, 2), (-1, 2))
        text = degree_rank_csv(table, (-1, 2))
        lines = text.strip().split("\n")
        assert lines[0] == "r\\d,-1,0,1,2"
        assert all(line.count(",") == 4 for line in lines)


def _degree_rank_by_configuration(m, n, window):
    """The (degree, rank) table from rank_parking_sorted of every
    configuration and degree in the window."""
    expected = Counter()
    for u in enumerate_parking_sorted(GraphShape(m, n)).configs:
        base = sum(u.a) + sum(u.b)
        for d in range(window[0], window[1] + 1):
            expected[d, rank_parking_sorted(u.with_sink(d - base))] += 1
    return dict(expected)


XY_CAPS = [(12, 12), (0, 0), (0, 5), (5, 0), (2, 7)]


class TestXyTable:
    def test_k53_golden_entries(self):
        ring = SeriesRing(("x", "y"), (10, 10))
        xy = xy_table(GraphShape(5, 3), ring)
        for (a, b), count in XY_K53.items():
            assert xy.coefficient({"x": a, "y": b}) == count, (a, b)

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (4, 3), (3, 4), (5, 5)])
    def test_symmetry(self, m, n):
        ring = SeriesRing(("x", "y"), (8, 8))
        xy = xy_table(GraphShape(m, n), ring)
        for (a, b), c in xy.coeffs.items():
            assert xy.coeffs.get((b, a), 0) == c

    def test_equals_sum_of_sink_series(self):
        ring = SeriesRing(("x", "y"), (6, 6))
        total = ring.zero()
        for u in enumerate_parking_sorted(GraphShape(2, 3)).configs:
            total = total + sink_series(u, ring)
        assert total == xy_table(GraphShape(2, 3), ring)

    @pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 7) for n in range(1, 7)])
    def test_equals_per_configuration_sweep(self, m, n):
        ring = SeriesRing(("x", "y"), (12, 12))
        assert xy_table(GraphShape(m, n), ring) == ring.from_coeffs(_xy_by_configuration(m, n))

    @pytest.mark.parametrize("caps", XY_CAPS[1:])
    def test_equals_per_configuration_sweep_at_asymmetric_caps(self, caps):
        ring = SeriesRing(("x", "y"), caps)
        for m in range(1, 7):
            for n in range(1, 7):
                expected = ring.from_coeffs(_xy_by_configuration(m, n))
                assert xy_table(GraphShape(m, n), ring) == expected, (m, n)

    def test_csv_golden_corner(self):
        ring = SeriesRing(("x", "y"), (2, 2))
        text = xy_csv(xy_table(GraphShape(5, 3), ring))
        lines = text.strip().split("\n")
        assert lines[0] == "y\\x,0,1,2"
        assert lines[1] == "0,15,35,57"


@lru_cache(maxsize=None)
def _xy_by_configuration(m, n):
    """The xy table within x, y <= 12 (every cap pair of XY_CAPS) from the
    rank of every configuration and sink.

    xpara = g + rank - degree and ypara = rank + 1, g = (m-1)(n-1), as in
    ``cylindric.xpara``/``ypara``, which would compute the rank twice.  A
    pair within the caps has ypara - xpara = degree - g + 1 in -12..12, so
    each configuration is swept over the 25 degrees g - 13 .. g + 11."""
    g = (m - 1) * (n - 1)
    counts = {}
    for u in enumerate_parking_sorted(GraphShape(m, n)).configs:
        base = sum(u.a) + sum(u.b)
        for d in range(g - 13, g + 12):
            r = rank_parking_sorted(u.with_sink(d - base))
            key = (g + r - d, r + 1)
            if key[0] <= 12 and key[1] <= 12:
                counts[key] = counts.get(key, 0) + 1
    return counts


class TestPolyominoes:
    def test_smallest_counts(self):
        counts = polyomino_counts(6, 3, 3)
        assert counts[(1, 1, 1)] == 1
        assert counts[(2, 1, 2)] == 1
        assert counts[(2, 2, 1)] == 1
        assert counts[(3, 2, 2)] == 2

    def test_matches_bruteforce(self):
        brute = polyomino_bruteforce(5, 5)
        max_area = max(a for a, _, _ in brute)
        table = polyomino_counts(max_area, 5, 5)
        assert table == brute

    def test_identity_with_lifted_height(self):
        ring = SeriesRing(("q", "w", "h"), (10, 5, 5))
        plain = polyomino_series(PolyominoWeights("q"), ring)
        lifted = polyomino_series(PolyominoWeights("q", height_offset=1), ring)
        rhs = (ring.monomial({"q": 1, "h": 1}) + lifted) * (ring.var("w") + plain)
        assert plain == rhs

    def test_quotient_formula(self):
        ring = SeriesRing(("q", "w", "h"), (10, 5, 5))
        assert polyomino_series(PolyominoWeights("q"), ring) == polyomino_series_via_l(ring)

    def test_l_series_constant_term(self):
        ring = SeriesRing(("q", "w", "h"), (6, 3, 3))
        assert l_series(ring).coefficient({"q": 0, "w": 0, "h": 0}) == 1

    def test_empty_pochhammer(self):
        from bipartite_sandpile.genfunc import _pochhammer

        ring = SeriesRing(("q",), (4,))
        assert _pochhammer(ring, 0) == ring.one()


class TestBoundarySeries:
    def test_direct_equals_closed(self):
        ring = SeriesRing(("x", "y", "w", "h"), (6, 6, 4, 4))
        direct_plus, direct_minus = boundary_series_direct(4, 4, ring)
        closed_plus, closed_minus = boundary_series_closed(ring)
        assert compare_series(direct_minus, closed_minus).ok
        assert compare_series(direct_plus, closed_plus).ok

    @pytest.mark.parametrize("caps", [(6, 6, 4, 4), (7, 2, 4, 1), (8, 8, 6, 6)])
    def test_two_divisions_equal_one_by_the_product(self, caps):
        # the reference divides once by the expanded denominator product
        ring = SeriesRing(("x", "y", "w", "h"), caps)
        one = ring.one()
        w, h = ring.var("w"), ring.var("h")
        hx = ring.monomial({"h": 1, "x": 1})
        hw = ring.monomial({"h": 1, "w": 1})
        xw = ring.monomial({"x": 1, "w": 1})
        px = polyomino_series(PolyominoWeights("x"), ring)
        py = polyomino_series(PolyominoWeights("y"), ring)
        pxt = polyomino_series(PolyominoWeights("x", height_offset=1), ring)
        pyt = polyomino_series(PolyominoWeights("y", height_offset=-1), ring)
        minus = px * py / ((one - w) * (one - h - w - px - py))
        plus_num = (
            (one - hx - w) * hw
            + (w - h) * pxt * pyt
            + (one - hx - w + xw) * h * pyt
            - hw * pxt
        )
        plus = plus_num / ((one - w) * (one - w - hx - pyt - pxt))
        closed_plus, closed_minus = boundary_series_closed(ring)
        assert closed_minus.coeffs == minus.coeffs
        assert closed_plus.coeffs == plus.coeffs

    def test_boundary_monomials_feed_sink_series(self):
        from bipartite_sandpile.cylindric import boundary_sets

        ring = SeriesRing(("x", "y"), (8, 8))
        from bipartite_sandpile.cylindric import axes_prefactor

        pref = axes_prefactor(ring)
        for u in enumerate_parking_sorted(GraphShape(3, 3)).configs:
            sets = boundary_sets(u)
            acc = ring.zero()
            for s in sets.s_plus:
                v = u.with_sink(s)
                acc = acc + ring.monomial({"x": xpara(v), "y": ypara(v)})
            for s in sets.s_minus:
                v = u.with_sink(s)
                acc = acc - ring.monomial({"x": xpara(v), "y": ypara(v)})
            assert pref * acc == sink_series(u, ring)


class TestCompareSeries:
    RING = SeriesRing(("x", "y"), (6, 6))

    def test_equal_series_count_their_keys(self):
        s = self.RING.from_coeffs({(0, 0): 1, (2, 1): -3, (0, 5): 7})
        report = compare_series(s, self.RING.from_coeffs(dict(s.coeffs)))
        assert report.ok and report.entries_checked == 3 and report.mismatch_exponents is None

    def test_mismatch_reports_the_lowest_degree_differing_key(self):
        common = {(0, 0): 1, (1, 1): 2, (3, 0): 5}
        # differing keys: (4, 2) and (0, 3) on one side only, (2, 1) with
        # other values, (1, 2) of the same degree as (2, 1) but lower
        lhs = self.RING.from_coeffs({**common, (4, 2): 1, (2, 1): 3, (1, 2): 9})
        rhs = self.RING.from_coeffs({**common, (0, 3): 4, (2, 1): 6, (1, 2): -1})
        report = compare_series(lhs, rhs)
        assert not report.ok and report.entries_checked == 7
        assert (report.mismatch_exponents, report.lhs_value, report.rhs_value) == ({"x": 0, "y": 3}, 0, 4)
        report = compare_series(lhs, self.RING.from_coeffs({**common, (2, 1): 3, (1, 2): -1}))
        assert (report.mismatch_exponents, report.lhs_value, report.rhs_value) == ({"x": 1, "y": 2}, 9, -1)

    def test_rings_must_agree(self):
        with pytest.raises(SandpileError):
            compare_series(self.RING.one(), SeriesRing(("x", "y"), (6, 5)).one())


class TestMainIdentity:
    def test_one_edge_coefficient(self):
        ring = SeriesRing(("x", "y", "w", "h"), (5, 5, 2, 2))
        lhs = family_series(2, 2, ring)
        rhs = gf_closed_form(ring)
        for a in range(6):
            for b in range(6):
                exps = {"x": a, "y": b, "w": 1, "h": 1}
                expected = 1 if (a == 0 or b == 0) else 0
                assert lhs.coefficient(exps) == expected
                assert rhs.coefficient(exps) == expected

    def test_k53_slice(self):
        ring = SeriesRing(("x", "y", "w", "h"), (8, 8, 5, 3))
        rhs = gf_closed_form(ring)
        for (a, b), count in XY_K53.items():
            if a <= 8 and b <= 8:
                assert rhs.coefficient({"x": a, "y": b, "w": 5, "h": 3}) == count

    def test_small_shapes_full(self):
        report = verify_gf(3, 3, 6, 6)
        assert report.ok, report.describe()

    def test_family_side_is_independent_of_the_closed_form(self, monkeypatch):
        ring = SeriesRing(("x", "y", "w", "h"), (6, 6, 4, 4))
        expected = family_series(4, 4, ring)

        def forbidden(*args, **kwargs):
            raise AssertionError("the family side reached closed-form or enumeration code")

        # series products and divisions too: the family side builds its
        # result in one dict, with no per-shape product by w^m h^n
        for module, name in [
            (genfunc, "boundary_sets"),
            (genfunc, "polyomino_series"),
            (genfunc, "polyomino_counts"),
            (genfunc, "polyomino_series_via_l"),
            (genfunc, "l_series"),
            (genfunc, "enumerate_parking_sorted"),
            (genfunc, "xpara"),
            (genfunc, "ypara"),
            (genfunc, "rank_parking_sorted"),
            (rank, "rank_from_gaps"),
            (rank, "rank_parking_sorted"),
            (cylindric, "sink_series"),
            (cylindric, "boundary_sets"),
            (cylindric, "axes_prefactor"),
            (TruncatedSeries, "__mul__"),
            (TruncatedSeries, "geom_inverse"),
        ]:
            monkeypatch.setattr(module, name, forbidden)
        assert family_series(4, 4, ring) == expected

    def test_closed_form_is_independent_of_the_family_side(self, monkeypatch):
        ring = SeriesRing(("x", "y", "w", "h"), (6, 6, 4, 4))
        expected = gf_closed_form(ring)

        def forbidden(*args, **kwargs):
            raise AssertionError("the closed form reached the row transfer")

        for name in ("_row_transfer", "_parking_counts", "xy_table", "family_series",
                     "enumerate_parking_sorted"):
            monkeypatch.setattr(genfunc, name, forbidden)
        assert gf_closed_form(ring) == expected

    @pytest.mark.parametrize("caps", [(8, 8, 5, 5), (6, 6, 0, 3), (7, 2, 4, 1), (0, 5, 3, 3)])
    def test_closed_form_equals_the_single_division(self, caps):
        ring = SeriesRing(("x", "y", "w", "h"), caps)
        one = ring.one()
        x, y, w, h = (ring.var(v) for v in ("x", "y", "w", "h"))
        px = polyomino_series(PolyominoWeights("x"), ring)
        py = polyomino_series(PolyominoWeights("y"), ring)
        numer = (one - x * y) * (h * w - px * py)
        denom = (one - x) * (one - y) * (one - h - w - px - py)
        assert gf_closed_form(ring) == numer / denom

    @settings(max_examples=100, deadline=None)
    @given(st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(0, 4), st.integers(0, 4)))
    @example((7, 2, 4, 1))
    @example((2, 7, 1, 4))
    @example((0, 7, 4, 4))
    @example((7, 0, 4, 4))
    @example((1, 6, 4, 0))
    def test_slices_equal_the_division(self, caps):
        # the slice kernel against the product formula as one series division,
        # on caps that differ between x and y (where a mirrored slice may lie
        # past a cap) and between w and h
        ring = SeriesRing(("x", "y", "w", "h"), caps)
        one = ring.one()
        x, y, w, h = (ring.var(v) for v in ("x", "y", "w", "h"))
        px = polyomino_series(PolyominoWeights("x"), ring)
        py = polyomino_series(PolyominoWeights("y"), ring)
        numer = (one - x * y) * (h * w - px * py)
        denom = (one - x) * (one - y) * (one - h - w - px - py)
        assert gf_closed_form(ring) == numer / denom

    def test_closed_form_uses_no_series_product_or_division(self, monkeypatch):
        ring = SeriesRing(("x", "y", "w", "h"), (6, 5, 4, 3))
        expected = gf_closed_form(ring)

        def forbidden(*args, **kwargs):
            raise AssertionError("the closed form multiplied or divided series")

        monkeypatch.setattr(TruncatedSeries, "__mul__", forbidden)
        monkeypatch.setattr(TruncatedSeries, "geom_inverse", forbidden)
        assert gf_closed_form(ring) == expected

    @pytest.mark.parametrize("caps", [(6, 6, 4, 4), (7, 2, 4, 1), (0, 5, 3, 3), (5, 5, 0, 2)])
    def test_both_sides_hold_only_non_zero_keys_within_the_caps(self, caps):
        # both sides build their series directly, so neither may hold what
        # from_coeffs would drop: a zero coefficient or a key past a cap
        ring = SeriesRing(("x", "y", "w", "h"), caps)
        for series in (family_series(caps[2], caps[3], ring), gf_closed_form(ring)):
            assert series == ring.from_coeffs(series.coeffs)
            assert 0 not in series.coeffs.values()
        # shapes past the w and h caps are not counted
        assert family_series(caps[2] + 2, caps[3] + 1, ring) == family_series(caps[2], caps[3], ring)

    def test_extra_variables_stay_at_exponent_zero(self):
        plain = SeriesRing(("x", "y", "w", "h"), (4, 5, 3, 2))
        wider = SeriesRing(("q", "h", "y", "w", "x"), (3, 2, 5, 3, 4))
        order = [plain.variables.index(v) for v in ("h", "y", "w", "x")]
        for side in (gf_closed_form, lambda ring: family_series(3, 2, ring)):
            moved = {(0,) + tuple(key[i] for i in order): c for key, c in side(plain).coeffs.items()}
            assert side(wider).coeffs == moved

    def test_w_h_symmetry_of_family_series(self):
        ring = SeriesRing(("x", "y", "w", "h"), (6, 6, 4, 4))
        fam = family_series(4, 4, ring)
        for (a, b, mw, nh), c in fam.coeffs.items():
            assert fam.coeffs.get((a, b, nh, mw), 0) == c


class TestRiemannRochInvolution:
    @pytest.mark.parametrize("m,n", [(3, 3), (4, 2)])
    def test_statistics_swap(self, m, n):
        shape = GraphShape(m, n)
        k = canonical_divisor(shape)
        from bipartite_sandpile.rank import parking_representative

        for u in enumerate_parking_sorted(shape).configs:
            for s in range(-4, 3 * m * n):
                v = u.with_sink(s)
                kv = config(
                    m,
                    n,
                    [x - y for x, y in zip(k.a, v.a)],
                    k.sink - v.sink,
                    [x - y for x, y in zip(k.b, v.b)],
                )
                image = parking_representative(kv)
                assert (xpara(image), ypara(image)) == (ypara(v), xpara(v))
