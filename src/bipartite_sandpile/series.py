"""Exact truncated multivariate power series.

Plain power series over the integers with an independent exponent cap per
variable; every coefficient is an exact Python int.  Monomials beyond a cap
are silently discarded by the arithmetic, so within the caps all operations
agree with the untruncated ring.

Coefficients are stored under exponent tuples.  The two quadratic kernels,
``__mul__`` and the division sweep ``geom_inverse`` (behind ``/``), pack
each tuple into one int for the duration of the call.  A variable with cap c
gets a field of w + 1 bits, w = c.bit_length(): w bits hold the exponent and
the top bit is a guard.  One operand is packed plainly (field value e) and
the other with a bias (field value e + 2^w - 1 - c), so one integer addition
adds every pair of exponents, and the sum's field overflows into its guard
bit exactly when e1 + e2 > c.  It never carries past the guard, since
e1 + e2 + bias is at most c + 2^w - 1 < 2^(w+1).  A single ``&`` with the
mask of all guard bits therefore tests every cap at once; a sum that passes
is the biased packing of the product's exponents.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
        exps = [0] * len(self.variables)
        for name, e in exponents.items():
            exps[self.index(name)] = e
        key = tuple(exps)
        if any(e < 0 for e in key):
            raise SeriesError(f"negative exponent in {exponents}")
        if coeff == 0 or any(e > c for e, c in zip(key, self.caps)):
            return self.zero()
        return TruncatedSeries(self, {key: coeff})

    def var(self, name: str) -> "TruncatedSeries":
        return self.monomial({name: 1})

    def from_coeffs(self, coeffs: dict[tuple[int, ...], int]) -> "TruncatedSeries":
        kept = {}
        for key, c in coeffs.items():
            if c == 0:
                continue
            if any(e < 0 for e in key):
                raise SeriesError(f"negative exponent tuple {key}")
            if all(e <= cap for e, cap in zip(key, self.caps)):
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
        packing = _Packing(self.ring.caps)
        guard = packing.guard
        large_items = [(packing.biased(k), c) for k, c in large.items()]
        out: dict[int, int] = {}
        for k1, c1 in small.items():
            p1 = packing.plain(k1)
            for p2, c2 in large_items:
                key = p1 + p2
                if key & guard:
                    continue
                out[key] = out.get(key, 0) + c1 * c2
        return TruncatedSeries(self.ring, packing.unpack_biased(out))

    def __truediv__(self, denom: "TruncatedSeries") -> "TruncatedSeries":
        """self / denom within the caps; denom's constant term must be 1."""
        return denom.geom_inverse(self)

    def geom_inverse(self, numer: "TruncatedSeries | None" = None) -> "TruncatedSeries":
        """numer / self within the caps, 1 / self without a numerator; the
        constant term of self must be 1.

        Solves q*f = numer by a push-style sweep in graded order: once every
        key of total degree below d is final, the degree-d keys are, and each
        non-zero q_k pushes -t_c * q_k onto k + t for every tail term t of f.
        The numerator's terms seed the sweep, and only keys that receive a
        contribution are ever visited, so the cost follows the quotient's
        keys rather than the whole box of the caps.
        """
        ring = self.ring
        if numer is None:
            numer = ring.one()
        self._same_ring(numer)
        zero_key = (0,) * len(ring.variables)
        if self.coeffs.get(zero_key, 0) != 1:
            raise SeriesError("division requires a denominator with constant term 1")
        packing = _Packing(ring.caps)
        guard = packing.guard
        by_degree: dict[int, list[tuple[int, int]]] = {}
        for k, c in self.coeffs.items():
            if k != zero_key:
                by_degree.setdefault(sum(k), []).append((packing.plain(k), c))
        tail = sorted(by_degree.items())
        # pending[d] maps biased keys of degree d to -(q_key): the numerator
        # seeds it, the tail terms of already final keys add to it
        pending: list[dict[int, int]] = [{} for _ in range(sum(ring.caps) + 1)]
        for k, c in numer.coeffs.items():
            pending[sum(k)][packing.biased(k)] = -c
        out: dict[int, int] = {}
        for d, layer in enumerate(pending):
            for key, acc in layer.items():
                if not acc:
                    continue
                q = -acc
                out[key] = q
                for tdeg, terms in tail:
                    if d + tdeg >= len(pending):
                        break
                    target = pending[d + tdeg]
                    for tkey, tc in terms:
                        s = key + tkey
                        if s & guard:
                            continue
                        target[s] = target.get(s, 0) + tc * q
            pending[d] = {}
        return TruncatedSeries(ring, packing.unpack_biased(out))

    def coefficient(self, exponents: dict[str, int]) -> int:
        exps = [0] * len(self.ring.variables)
        for name, e in exponents.items():
            exps[self.ring.index(name)] = e
        key = tuple(exps)
        if any(e > cap or e < 0 for e, cap in zip(key, self.ring.caps)):
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


class _Packing:
    """The packed-int layout of exponent tuples under fixed caps (see the
    module docstring)."""

    def __init__(self, caps: tuple[int, ...]) -> None:
        self.shifts: list[int] = []
        self.masks: list[int] = []
        self.bias = 0
        self.guard = 0
        shift = 0
        for cap in caps:
            width = cap.bit_length()
            self.shifts.append(shift)
            self.masks.append((1 << width) - 1)
            self.bias |= ((1 << width) - 1 - cap) << shift
            self.guard |= 1 << (shift + width)
            shift += width + 1

    def plain(self, key: tuple[int, ...]) -> int:
        return sum(e << s for e, s in zip(key, self.shifts))

    def biased(self, key: tuple[int, ...]) -> int:
        return self.plain(key) + self.bias

    def unpack_biased(self, packed: dict[int, int]) -> dict[tuple[int, ...], int]:
        """Exponent tuples back from biased keys; zero coefficients dropped."""
        fields = list(zip(self.shifts, self.masks))
        bias = self.bias
        out = {}
        for key, c in packed.items():
            if c:
                plain = key - bias
                out[tuple((plain >> s) & mask for s, mask in fields)] = c
        return out
