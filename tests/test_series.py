from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipartite_sandpile.core import SandpileError
from bipartite_sandpile.series import SeriesError, SeriesRing

RING2 = SeriesRing(("x", "y"), (4, 4))


def sparse_series(ring, draw_coeff=st.integers(-9, 9)):
    keys = st.tuples(*(st.integers(0, cap) for cap in ring.caps))
    return st.dictionaries(keys, draw_coeff, max_size=6).map(ring.from_coeffs)


class TestBasics:
    def test_additive_and_multiplicative_identities(self):
        f = RING2.from_coeffs({(1, 2): 3, (0, 0): -1})
        assert f + RING2.zero() == f
        assert f * RING2.one() == f

    def test_binomial_product(self):
        f = (RING2.one() + RING2.var("x")) * (RING2.one() + RING2.var("y"))
        assert f == RING2.from_coeffs({(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1})

    def test_truncation_silently_drops(self):
        x = RING2.var("x")
        assert x * x * x * x * x == RING2.zero()  # x^5 beyond cap 4
        assert RING2.monomial({"x": 5}).is_zero()
        assert RING2.from_coeffs({(5, 0): 1, (1, 1): 2}) == RING2.monomial({"x": 1, "y": 1}, 2)

    def test_series_errors_are_sandpile_errors(self):
        assert issubclass(SeriesError, SandpileError) and issubclass(SeriesError, ValueError)

    @pytest.mark.parametrize(
        "variables,caps",
        [
            (("x",), (1.5,)),
            (("x",), (True,)),
            (("x", "y"), (2, False)),
            (("x",), ("2",)),
            (("x",), (None,)),
            (("x",), (-1,)),
            (("x", "x"), (1, 1)),
            (("x", 1), (1, 1)),
            ((None,), (1,)),
            (("x", "y"), (1,)),
            (["x"], (1,)),
            (("x",), [1]),
            ("x", (1,)),
        ],
    )
    def test_ring_input_checked_at_construction(self, variables, caps):
        with pytest.raises(SeriesError):
            SeriesRing(variables, caps)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: RING2.from_coeffs({(1,): 1}),
            lambda: RING2.from_coeffs({(0, 0, 1): 1}),
            lambda: RING2.from_coeffs({("1", 0): 1}),
            lambda: RING2.from_coeffs({(True, 0): 1}),
            lambda: RING2.from_coeffs({(1.0, 0): 1}),
            lambda: RING2.from_coeffs({(-1, 0): 1}),
            lambda: RING2.from_coeffs({(-1, 0): 0}),
            lambda: RING2.from_coeffs({1: 1}),
            lambda: RING2.monomial({"x": 1.5}),
            lambda: RING2.monomial({"x": True}),
            lambda: RING2.monomial({"x": "1"}),
            lambda: RING2.monomial({"y": None}),
            lambda: RING2.monomial({"x": -1}),
            lambda: RING2.one().coefficient({"x": True}),
            lambda: RING2.one().coefficient({"y": 0.0}),
            lambda: RING2.one().coefficient({"x": -1}),
        ],
        ids=[
            "short-key", "long-key", "str-exponent", "bool-exponent", "float-exponent",
            "negative-exponent", "negative-exponent-zero-coefficient", "int-key",
            "monomial-float", "monomial-bool", "monomial-str", "monomial-none",
            "monomial-negative", "coefficient-bool", "coefficient-float",
            "coefficient-negative",
        ],
    )
    def test_keys_checked_at_the_public_constructors(self, build):
        with pytest.raises(SeriesError):
            build()

    def test_large_caps_accepted(self):
        ring = SeriesRing(("x", "y"), (2**70, 0))
        assert ring.caps == (2**70, 0) and ring.index("y") == 1

    def test_cap_mismatch_rejected(self):
        other = SeriesRing(("x", "y"), (4, 5))
        with pytest.raises(SeriesError):
            RING2.one() + other.one()

    @given(sparse_series(RING2), sparse_series(RING2), sparse_series(RING2))
    def test_ring_axioms(self, f, g, h):
        assert f + g == g + f
        assert (f + g) + h == f + (g + h)
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h


class TestGeomInverse:
    def test_geometric_series(self):
        ring = SeriesRing(("x",), (7,))
        inv = (ring.one() - ring.var("x")).geom_inverse()
        assert inv == ring.from_coeffs({(k,): 1 for k in range(8)})

    @given(sparse_series(RING2, st.integers(-5, 5)))
    def test_two_sided_inverse(self, f):
        unit = RING2.one() + f - RING2.from_coeffs({(0, 0): f.coeffs.get((0, 0), 0)})
        inv = unit.geom_inverse()
        assert unit * inv == RING2.one()
        assert inv * unit == RING2.one()

    def test_axes_expansion(self):
        # (1-xy)/((1-x)(1-y)) expands with coefficient 1 exactly when one
        # exponent is 0: the two geometric axes overlap only at the origin
        one = RING2.one()
        xy = RING2.from_coeffs({(1, 1): 1})
        f = (one - xy) * (one - RING2.var("x")).geom_inverse() * (one - RING2.var("y")).geom_inverse()
        expected = {(a, b): 1 for a in range(5) for b in range(5) if a == 0 or b == 0}
        assert f == RING2.from_coeffs(expected)

    def test_requires_unit_constant(self):
        with pytest.raises(SeriesError):
            RING2.var("x").geom_inverse()
        with pytest.raises(SeriesError):
            RING2.from_coeffs({(0, 0): 2}).geom_inverse()


class TestCoefficient:
    def test_constant_of_inverse(self):
        f = RING2.one() + RING2.var("x").scaled(7)
        assert f.geom_inverse().coefficient({"x": 0, "y": 0}) == 1

    def test_out_of_cap_query(self):
        with pytest.raises(SeriesError):
            RING2.one().coefficient({"x": 5})

    def test_convolution_matches_schoolbook(self):
        ring = SeriesRing(("x", "y"), (3, 3))
        f = ring.from_coeffs({(i, j): i + 2 * j + 1 for i in range(4) for j in range(4)})
        g = ring.from_coeffs({(i, j): i * j - 3 for i in range(4) for j in range(4)})
        prod = f * g
        for a in range(4):
            for b in range(4):
                expected = sum(
                    (i + 2 * j + 1) * ((a - i) * (b - j) - 3)
                    for i in range(a + 1)
                    for j in range(b + 1)
                )
                assert prod.coefficient({"x": a, "y": b}) == expected


class TestExactness:
    def test_huge_coefficients_survive(self):
        ring = SeriesRing(("x",), (4,))
        big = 2**80 + 3
        f = ring.from_coeffs({(1,): big})
        g = f * f
        assert g.coefficient({"x": 2}) == big * big
        assert g.coefficient({"x": 2}) > 2**64

    def test_inverse_with_huge_entries(self):
        ring = SeriesRing(("x",), (3,))
        f = ring.from_coeffs({(0,): 1, (1,): 2**70})
        assert f * f.geom_inverse() == ring.one()


class TestUtilities:
    def test_absorb_into(self):
        ring = SeriesRing(("q", "w"), (6, 3))
        f = ring.from_coeffs({(1, 2): 5, (0, 1): -1})
        twisted = f.absorb_into("q", ("w",))  # w -> qw
        assert twisted == ring.from_coeffs({(3, 2): 5, (1, 1): -1})

    def test_dump_is_sorted_and_stable(self):
        f = RING2.from_coeffs({(2, 0): 3, (0, 1): -2, (0, 0): 1})
        assert f.dump() == "x^0 y^0: 1\nx^0 y^1: -2\nx^2 y^0: 3"
        assert f.dump() == RING2.from_coeffs(dict(f.coeffs)).dump()

    def test_scaled(self):
        f = RING2.from_coeffs({(1, 1): 4})
        assert f.scaled(-2) == RING2.from_coeffs({(1, 1): -8})
        assert f.scaled(0) == RING2.zero()


# -- the kernels against references written out here: the product taken
# untruncated and cut to the caps afterwards, the inverse solved key by key
# over the whole box


def truncated_product(f, g, caps):
    full = {}
    for k1, c1 in f.items():
        for k2, c2 in g.items():
            key = tuple(e1 + e2 for e1, e2 in zip(k1, k2))
            full[key] = full.get(key, 0) + c1 * c2
    return {k: c for k, c in full.items() if c and all(e <= cap for e, cap in zip(k, caps))}


def naive_inverse(f):
    """Solve g*f = 1 key by key over the whole box, in graded order."""
    caps = f.ring.caps
    zero = (0,) * len(caps)
    g = {}
    for key in sorted(product(*(range(cap + 1) for cap in caps)), key=sum):
        if key == zero:
            g[key] = 1
            continue
        acc = 0
        for tkey, tc in f.coeffs.items():
            rest = tuple(e - t for e, t in zip(key, tkey))
            if tkey != zero and min(rest) >= 0:
                acc += tc * g[rest]
        g[key] = -acc
    return {k: c for k, c in g.items() if c}


COEFFS = st.integers(-9, 9) | st.integers(-(2**70), 2**70)


@st.composite
def rings(draw):
    nvars = draw(st.integers(1, 4))
    caps = tuple(draw(st.lists(st.integers(0, 5), min_size=nvars, max_size=nvars)))
    return SeriesRing(tuple("xyzw"[:nvars]), caps)


@st.composite
def ring_and_series(draw, count):
    ring = draw(rings())
    return ring, [draw(sparse_series(ring, COEFFS)) for _ in range(count)]


def unit_of(f):
    """f with its constant term set to 1."""
    zero = (0,) * len(f.ring.caps)
    return f - f.ring.from_coeffs({zero: f.coeffs.get(zero, 0)}) + f.ring.one()


class TestKernels:
    @settings(max_examples=200, deadline=None)
    @given(ring_and_series(2))
    def test_product_matches_the_untruncated_product(self, drawn):
        ring, (f, g) = drawn
        assert (f * g).coeffs == truncated_product(f.coeffs, g.coeffs, ring.caps)

    @settings(max_examples=200, deadline=None)
    @given(ring_and_series(1))
    def test_inverse_matches_graded_solve(self, drawn):
        ring, (f,) = drawn
        unit = unit_of(f)
        inv = unit.geom_inverse()
        assert inv.coeffs == naive_inverse(unit)
        assert unit * inv == ring.one()

    def test_exponent_sum_on_a_power_of_two_cap(self):
        # 2 + 2 sits exactly on the cap, 3 + 2 is past it
        ring = SeriesRing(("x", "y"), (4, 0))
        x2, x3 = ring.monomial({"x": 2}), ring.monomial({"x": 3})
        assert (x2 * x2).coeffs == {(4, 0): 1}
        assert (x3 * x2).is_zero()


class TestDivision:
    @settings(max_examples=200, deadline=None)
    @given(ring_and_series(2))
    def test_quotient_matches_tuple_reference(self, drawn):
        ring, (numer, f) = drawn
        denom = unit_of(f)
        quotient = numer / denom
        assert quotient.coeffs == truncated_product(numer.coeffs, naive_inverse(denom), ring.caps)
        assert denom.geom_inverse(numer) == quotient
        assert quotient * denom == numer

    def test_requires_unit_constant(self):
        with pytest.raises(SeriesError):
            RING2.one() / RING2.var("x")
        with pytest.raises(SeriesError):
            RING2.var("x") / RING2.from_coeffs({(0, 0): 2})

    def test_ring_mismatch_rejected(self):
        other = SeriesRing(("x", "y"), (4, 5))
        with pytest.raises(SeriesError):
            RING2.var("x") / other.one()
        with pytest.raises(SeriesError):
            other.var("x") / RING2.one()
