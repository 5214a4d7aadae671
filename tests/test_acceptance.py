"""Acceptance suite: every release criterion as one test with a printed
verdict line.  All comparisons are exact except the final scaling check,
whose doubling ratio is bounded by 3.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import random
import time

import pytest

from bipartite_sandpile.core import Configuration, GraphShape, config, degree, sort_config
from bipartite_sandpile import cylindric, genfunc, oracle
from bipartite_sandpile.rank import (
    canonical_divisor,
    decompose_compact,
    greedy_step,
    is_effective,
    next_toward_parking,
    park_sort,
    parking_representative,
    r_vector,
    rank_greedy,
    rank_of,
    rank_parking_sorted,
    rank_scan,
    shift_east,
    shift_north,
    shift_south,
    shift_west,
)
from bipartite_sandpile.series import SeriesRing

from conftest import stable_sorted_partials
from test_genfunc import DEGREE_RANK_K53, XY_K53


def verdict(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number}: {text} PASS")


def test_criterion_1_worked_examples():
    unsorted75 = config(7, 5, [2, 0, 2, 2, 0, 0], None, [4, 4, 0, 0, 4])
    assert sort_config(unsorted75) == config(7, 5, [0, 0, 0, 2, 2, 2], None, [0, 0, 4, 4, 4])

    chain = config(7, 5, [0, 0, 0, 2, 2, 2], None, [1, 1, 5, 5, 5])
    expected_chain = [
        config(7, 5, [0, 0, 0, 3, 3, 3], None, [1, 1, 1, 4, 4]),
        config(7, 5, [0, 0, 0, 2, 2, 2], None, [0, 0, 4, 4, 4]),
        config(7, 5, [0, 0, 0, 3, 3, 3], None, [0, 0, 0, 3, 3]),
    ]
    for expected in expected_chain:
        chain = next_toward_parking(chain)
        assert chain == expected
    assert next_toward_parking(chain) == chain

    parked = config(7, 5, [0, 0, 0, 3, 3, 3], None, [0, 0, 0, 3, 3])
    step1 = greedy_step(parked)
    step2 = greedy_step(step1)
    assert step1 == config(7, 5, [0, 0, 0, 2, 2, 2], None, [0, 0, 3, 4, 4])
    assert step2 == config(7, 5, [0, 0, 0, 3, 3, 3], None, [0, 1, 1, 3, 4])
    assert greedy_step(parked.with_sink(21)).sink == 18

    stable = config(7, 5, [0, 1, 2, 3, 3, 3], None, [2, 4, 4, 6, 6])
    gaps = r_vector(stable).entries
    h = gaps.index(max(gaps)) + 1
    assert (h, gaps[h - 1], stable.b[h - 1] - gaps[h - 1] + 2) == (2, 4, 2)
    assert park_sort(stable) == config(7, 5, [0, 1, 2, 2, 2, 4], None, [0, 0, 2, 2, 5])

    running = parked.with_sink(21)
    assert rank_parking_sorted(running) == 12
    q, rem = divmod(21 + 1, 5)
    summands = [max(0, q + (1 if i <= rem else 0) + r - 1) for i, r in enumerate(gaps_of(running), 1)]
    assert summands == [5, 2, 1, 4, 1]
    verdict(1, "worked examples (sort, parking slides, greedy steps, closed-form park, rank 12)")


def gaps_of(u):
    return r_vector(u).entries


@pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (2, 3)])
def test_criterion_2_oracle_equivalence_exhaustive(m, n):
    checked = 0
    for partial in stable_sorted_partials(m, n):
        full0 = partial.with_sink(0)
        assert park_sort(full0) == sort_config(oracle.park_by_definition(full0))
        for sink in range(-3, 3 * m * n + 1):
            u = partial.with_sink(sink)
            fast = rank_of(u)
            assert rank_greedy(u)[0] == fast
            assert rank_scan(u) == fast
            assert oracle.rank_by_definition(u) == fast
            checked += 1
    verdict(2, f"oracle equivalence on all {checked} stable sorted configurations of K_{{{m},{n}}}")


def test_criterion_2_oracle_equivalence_random_k33():
    rng = random.Random(42)
    for _ in range(500):
        u = config(
            3,
            3,
            [rng.randint(-10, 10) for _ in range(2)],
            rng.randint(-10, 10),
            [rng.randint(-10, 10) for _ in range(3)],
        )
        fast = rank_of(u)
        assert rank_greedy(u)[0] == fast
        assert rank_scan(u) == fast
        # the b-restricted candidate search loses no minimizer and keeps the
        # enumeration tractable at these degrees
        assert oracle.rank_by_definition(u, restrict_support=True) == fast
    verdict(2, "oracle equivalence on 500 random K_{3,3} configurations in [-10,10]")


def test_criterion_3_k53_tables():
    table = genfunc.degree_rank_table(GraphShape(5, 3), (-3, 17))
    for (d, r), count in DEGREE_RANK_K53.items():
        assert table.get((d, r), 0) == count, f"degree/rank entry ({d},{r})"
    ring = SeriesRing(("x", "y"), (10, 10))
    xy = genfunc.xy_table(GraphShape(5, 3), ring)
    for (a, b), count in XY_K53.items():
        assert xy.coefficient({"x": a, "y": b}) == count, f"xy entry ({a},{b})"
    assert len(genfunc.enumerate_parking_sorted(GraphShape(5, 3)).configs) == 105
    verdict(3, f"all {len(DEGREE_RANK_K53)} + {len(XY_K53)} printed K_{{5,3}} table entries")


def test_criterion_4_symmetry_and_riemann_roch():
    ring = SeriesRing(("x", "y"), (10, 10))
    for m in range(1, 6):
        for n in range(1, 6):
            xy = genfunc.xy_table(GraphShape(m, n), ring)
            for (a, b), c in xy.coeffs.items():
                assert xy.coeffs.get((b, a), 0) == c, (m, n, a, b)
    rng = random.Random(314)
    for m in range(1, 7):
        for n in range(1, 7):
            k = canonical_divisor(GraphShape(m, n))
            for _ in range(1000):
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
    verdict(4, "xy symmetry (m,n <= 5, caps 10) and Riemann-Roch (36000 random configurations)")


def test_criterion_5_sink_series_closed_form():
    ring = SeriesRing(("x", "y"), (8, 8))
    total = 0
    for m, n in [(4, 3), (3, 4)]:
        for u in genfunc.enumerate_parking_sorted(GraphShape(m, n)).configs:
            assert cylindric.sink_series(u, ring) == cylindric.sink_series_direct(u, ring)
            total += 1
    verdict(5, f"closed-form sink series equals direct summation for {total} configurations")


def test_criterion_6_boundary_series():
    ring = SeriesRing(("x", "y", "w", "h"), (6, 6, 4, 4))
    direct_plus, direct_minus = genfunc.boundary_series_direct(4, 4, ring)
    closed_plus, closed_minus = genfunc.boundary_series_closed(ring)
    report_minus = genfunc.compare_series(direct_minus, closed_minus)
    report_plus = genfunc.compare_series(direct_plus, closed_plus)
    assert report_minus.ok, report_minus.describe()
    assert report_plus.ok, report_plus.describe()
    verdict(6, "boundary-configuration series match their closed forms (m,n <= 4, x,y <= 6)")


def test_criterion_7_product_formula():
    report = genfunc.verify_gf(5, 5, 8, 8)
    assert report.ok, report.describe()
    wide = genfunc.verify_gf(6, 6, 10, 10)
    assert wide.ok, wide.describe()
    wider = genfunc.verify_gf(7, 7, 12, 12)
    assert wider.ok, wider.describe()
    widest = genfunc.verify_gf(8, 8, 16, 16)
    assert widest.ok, widest.describe()

    ring = SeriesRing(("q", "w", "h"), (10, 5, 5))
    plain = genfunc.polyomino_series(genfunc.PolyominoWeights("q"), ring)
    lifted = genfunc.polyomino_series(genfunc.PolyominoWeights("q", height_offset=1), ring)
    assert plain == (ring.monomial({"q": 1, "h": 1}) + lifted) * (ring.var("w") + plain)
    assert plain == genfunc.polyomino_series_via_l(ring)

    brute = oracle.polyomino_bruteforce(5, 5)
    max_area = max(a for a, _, _ in brute)
    assert genfunc.polyomino_counts(max_area, 5, 5) == brute
    verdict(7, f"main product formula ({report.entries_checked} coefficients at m,n <= 5, x,y <= 8; "
               f"{wide.entries_checked} at m,n <= 6, x,y <= 10; "
               f"{wider.entries_checked} at m,n <= 7, x,y <= 12; "
               f"{widest.entries_checked} at m,n <= 8, x,y <= 16), polyomino identity, "
               "L-quotient, and brute-force counts")


LADDER_SIZES = [100_000 * 2**k for k in range(8)]  # m + n = 1e5 .. 1.28e7


def _ladder_configuration(total: int, rng) -> Configuration:
    """Ladder inputs: a,b uniform in [0,4n] / [0,4m], so every pipeline
    stage sees nontrivial quotients, and a degree drawn from one of the three
    regimes of rank, picked uniformly: below 0 (rank -1), 0..2g-2, and above
    2g-2 (rank deg - g), with g = (m-1)(n-1)."""
    m = total // 2
    n = total - m
    g = (m - 1) * (n - 1)
    a = rng.choices(range(4 * n + 1), k=m - 1)
    b = rng.choices(range(4 * m + 1), k=n)
    regimes = [(-g - 1, -1), (0, 2 * g - 2), (2 * g - 1, 3 * g + 1)]
    lo, hi = rng.choice([r for r in regimes if r[0] <= r[1]])
    sink = rng.randint(lo, hi) - sum(a) - sum(b)
    return Configuration(GraphShape(m, n), tuple(a), sink, tuple(b))


def _ladder(sizes: list[int], seed: int, runs: int) -> list[dict]:
    """Median rank_of time per size, each row with the ratio to the previous
    size's median.  CPU time of this process, not wall time, so that other
    processes holding the CPU do not count."""
    rows = []
    prev_median = None
    for total in sizes:
        u = _ladder_configuration(total, random.Random(seed * 1_000_003 + total))
        times = []
        for _ in range(runs):
            start = time.process_time()
            rank_of(u)
            times.append(time.process_time() - start)
        median = sorted(times)[len(times) // 2]
        ratio = None if prev_median is None else median / prev_median
        rows.append({"size": total, "median_sec": median, "ratio": ratio})
        prev_median = median
    return rows


def test_ladder_generation_is_deterministic():
    assert _ladder_configuration(40, random.Random(940)) == _ladder_configuration(40, random.Random(940))


def test_ladder_degrees_cover_the_three_regimes():
    rng = random.Random(5)
    seen = set()
    for total in (2, 3, 40, 41) * 15:
        u = _ladder_configuration(total, rng)
        g = (u.shape.m - 1) * (u.shape.n - 1)
        d = degree(u)
        seen.add(0 if d < 0 else 1 if d <= 2 * g - 2 else 2)
    assert seen == {0, 1, 2}


def test_criterion_8_linear_scaling():
    rows = _ladder(LADDER_SIZES, seed=2024, runs=5)
    ratios = [row["ratio"] for row in rows[1:]]
    for row in rows:
        ratio = "" if row["ratio"] is None else f"{row['ratio']:.2f}"
        print(f"    m+n={row['size']:>10}  median={row['median_sec']:.4f}s  ratio={ratio}")
    assert all(r <= 3.0 for r in ratios), ratios
    verdict(8, f"doubling ratios {['%.2f' % r for r in ratios]} all <= 3.0 over 1e5..1.28e7")


def test_criterion_9_structural_lemmas():
    # every parking sorted configuration has first b-value 0
    for m in range(1, 5):
        for n in range(1, 5):
            for u in genfunc.enumerate_parking_sorted(GraphShape(m, n)).configs:
                assert u.b[0] == 0

    rng = random.Random(99)
    for _ in range(200):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        u = config(
            m,
            n,
            [rng.randint(-5, 9) for _ in range(m - 1)],
            rng.randint(-5, 14),
            [rng.randint(-5, 9) for _ in range(n)],
        )
        value, proof = rank_greedy(u)
        assert all(v == 0 for v in proof.f.a) and proof.f.sink == 0  # support in B
        assert degree(proof.f) == value + 1
        remainder = config(m, n, u.a, u.sink, [x - y for x, y in zip(u.b, proof.f.b)])
        assert not is_effective(remainder)

    # grid-shift inversion and unique decomposition
    for partial in stable_sorted_partials(3, 3):
        u = partial.with_sink(5)
        assert shift_west(shift_east(u)) == u
        assert shift_south(shift_north(u)) == u
        shift = decompose_compact(u)
        v = parking_representative(u)
        for _ in range(abs(shift.k_b)):
            v = shift_north(v) if shift.k_b > 0 else shift_south(v)
        for _ in range(abs(shift.k_a)):
            v = shift_east(v) if shift.k_a > 0 else shift_west(v)
        assert v == u
    verdict(9, "structural lemmas (zero b-entry, proof support/degree/non-effectiveness, "
               "shift inversion, unique decomposition)")
