"""Exact truncated multivariate power series.

Plain power series over the integers with an independent exponent cap per
variable; every coefficient is an exact Python int.  Monomials beyond a cap
are silently discarded by the arithmetic, so within the caps all operations
agree with the untruncated ring.

Coefficients are stored under exponent tuples, checked once where a key
comes from outside (``monomial``, ``from_coeffs``, ``coefficient``): one
non-negative ``int`` per variable.  The two quadratic kernels, ``__mul__``
and the division sweep ``geom_inverse`` (behind ``/``), test each pair
against the room ``caps - key`` left by one of its keys before forming the
sum, so a pair past a cap builds no tuple.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add, le, sub

from .core import SandpileError


class SeriesError(SandpileError):
    """Cap mismatch, bad constant term, or out-of-cap query."""


@dataclass(frozen=True)
class SeriesRing:
    """A fixed variable tuple with per-variable exponent caps.

    The input is checked here once, so the arithmetic may index by the caps:
    names are distinct strings and caps non-negative ``int`` values (``bool``
    is an ``int`` subclass but not a cap)."""

    variables: tuple[str, ...]
    caps: tuple[int, ...]

    def __post_init__(self) -> None:
        if not (isinstance(self.variables, tuple) and isinstance(self.caps, tuple)):
            raise SeriesError("variables and caps must be tuples")
        if len(self.variables) != len(self.caps):
            raise SeriesError("one cap per variable required")
        if not all(isinstance(v, str) for v in self.variables):
            raise SeriesError(f"variable names must be strings: {self.variables!r}")
        if len(set(self.variables)) != len(self.variables):
            raise SeriesError(f"repeated variable name in {self.variables!r}")
        if not all(isinstance(c, int) and not isinstance(c, bool) for c in self.caps):
            raise SeriesError(f"caps must be integers: {self.caps!r}")
        if any(c < 0 for c in self.caps):
            raise SeriesError("caps must be non-negative")

    def zero(self) -> "TruncatedSeries":
        return TruncatedSeries(self, {})

    def one(self) -> "TruncatedSeries":
        return self.monomial({})

    def monomial(self, exponents: dict[str, int], coeff: int = 1) -> "TruncatedSeries":
        key = _key(self, exponents)
        if coeff == 0 or not all(map(le, key, self.caps)):
            return self.zero()
        return TruncatedSeries(self, {key: coeff})

    def var(self, name: str) -> "TruncatedSeries":
        return self.monomial({name: 1})

    def from_coeffs(self, coeffs: dict[tuple[int, ...], int]) -> "TruncatedSeries":
        """The series of a key -> coefficient map; zero coefficients and keys
        past a cap are dropped."""
        caps = self.caps
        kept = {}
        for key, c in coeffs.items():
            _check(key, caps)
            if c and all(map(le, key, caps)):
                kept[key] = c
        return TruncatedSeries(self, kept)

    def index(self, name: str) -> int:
        """Position of a variable in ``variables`` and in every exponent tuple."""
        try:
            return self.variables.index(name)
        except ValueError:
            raise SeriesError(f"unknown variable {name!r}") from None


@dataclass(frozen=True, eq=False)
class TruncatedSeries:
    """Sparse exponent-tuple -> coefficient map under a ring's caps.

    Instances are immutable; arithmetic returns fresh series.  Zero
    coefficients are never stored, which makes equality structural.
    """

    ring: SeriesRing
    coeffs: dict[tuple[int, ...], int] = field(default_factory=dict)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.ring == other.ring and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.ring, tuple(sorted(self.coeffs.items()))))

    def _same_ring(self, other: "TruncatedSeries") -> None:
        if self.ring != other.ring:
            raise SeriesError("series live in different rings (caps mismatch)")

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._same_ring(other)
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            s = out.get(key, 0) + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return TruncatedSeries(self.ring, out)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(self.ring, {k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)

    def scaled(self, factor: int) -> "TruncatedSeries":
        if factor == 0:
            return self.ring.zero()
        return TruncatedSeries(self.ring, {k: factor * c for k, c in self.coeffs.items()})

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._same_ring(other)
        small, large = self.coeffs, other.coeffs
        if len(small) > len(large):
            small, large = large, small
        caps = self.ring.caps
        large_items = list(large.items())
        out: dict[tuple[int, ...], int] = {}
        for k1, c1 in small.items():
            room = tuple(map(sub, caps, k1))
            for k2, c2 in large_items:
                if all(map(le, k2, room)):
                    key = tuple(map(add, k1, k2))
                    out[key] = out.get(key, 0) + c1 * c2
        return TruncatedSeries(self.ring, {k: c for k, c in out.items() if c})

    def __truediv__(self, denom: "TruncatedSeries") -> "TruncatedSeries":
        """self / denom within the caps; denom's constant term must be 1."""
        return denom.geom_inverse(self)

    def geom_inverse(self, numer: "TruncatedSeries | None" = None) -> "TruncatedSeries":
        """numer / self within the caps, 1 / self without a numerator; the
        constant term of self must be 1.

        Solves q*f = numer by a push-style sweep in graded order: once every
        key of total degree below d is final, the degree-d keys are, and each
        non-zero q_k pushes -t_c * q_k onto k + t for every tail term t of f
        within the room caps - k.  The numerator's terms seed the sweep, and
        only keys that receive a contribution are ever visited, so the cost is
        the quotient's keys times the tail terms of f, not the whole box of
        the caps.  A denominator that factors is cheaper divided one factor
        at a time: each sweep then pays only for its own factor's tail.
        """
        ring = self.ring
        if numer is None:
            numer = ring.one()
        self._same_ring(numer)
        zero_key = (0,) * len(ring.variables)
        if self.coeffs.get(zero_key, 0) != 1:
            raise SeriesError("division requires a denominator with constant term 1")
        caps = ring.caps
        top = sum(caps)
        tail = sorted((sum(k), k, c) for k, c in self.coeffs.items() if k != zero_key)
        # pending[d] maps keys of degree d to their quotient coefficient: the
        # numerator seeds it, each final key of lower degree pushes onto it
        pending: list[dict[tuple[int, ...], int]] = [{} for _ in range(top + 1)]
        for k, c in numer.coeffs.items():
            pending[sum(k)][k] = c
        out: dict[tuple[int, ...], int] = {}
        for d, layer in enumerate(pending):
            for key, q in layer.items():
                if not q:
                    continue
                out[key] = q
                room = tuple(map(sub, caps, key))
                for tdeg, tkey, tc in tail:
                    if d + tdeg > top:
                        break
                    if all(map(le, tkey, room)):
                        s = tuple(map(add, key, tkey))
                        target = pending[d + tdeg]
                        target[s] = target.get(s, 0) - tc * q
            pending[d] = {}
        return TruncatedSeries(ring, out)

    def coefficient(self, exponents: dict[str, int]) -> int:
        key = _key(self.ring, exponents)
        if not all(map(le, key, self.ring.caps)):
            raise SeriesError(f"exponents {exponents} outside caps {self.ring.caps}")
        return self.coeffs.get(key, 0)

    def absorb_into(self, target: str, sources: tuple[str, ...]) -> "TruncatedSeries":
        """Substitute v -> target*v for each source variable: every source
        exponent is added onto the target's (used for L(qw, qh))."""
        t = self.ring.index(target)
        src = [self.ring.index(s) for s in sources]
        caps = self.ring.caps
        out: dict[tuple[int, ...], int] = {}
        for key, c in self.coeffs.items():
            lifted = list(key)
            lifted[t] += sum(key[i] for i in src)
            if lifted[t] > caps[t]:
                continue
            out[tuple(lifted)] = out.get(tuple(lifted), 0) + c
        return self.ring.from_coeffs(out)

    def is_zero(self) -> bool:
        return not self.coeffs

    def dump(self) -> str:
        """Deterministic text form: one 'v^e ...: coeff' line per monomial in
        lexicographic exponent order (golden-file friendly)."""
        names = self.ring.variables
        lines = []
        for key in sorted(self.coeffs):
            mono = " ".join(f"{v}^{e}" for v, e in zip(names, key))
            lines.append(f"{mono}: {self.coeffs[key]}")
        return "\n".join(lines)


def _key(ring: SeriesRing, exponents: dict[str, int]) -> tuple[int, ...]:
    """The checked exponent tuple of a {variable: exponent} map."""
    exps = [0] * len(ring.variables)
    for name, e in exponents.items():
        exps[ring.index(name)] = e
    key = tuple(exps)
    _check(key, ring.caps)
    return key


def _check(key: tuple[int, ...], caps: tuple[int, ...]) -> None:
    """Raise unless key holds one non-negative ``int`` per cap (``bool`` is
    an ``int`` subclass but not an exponent)."""
    if not (type(key) is tuple and len(key) == len(caps)
            and all(type(e) is int and e >= 0 for e in key)):
        raise SeriesError(f"exponents must be {len(caps)} non-negative integers: {key!r}")
