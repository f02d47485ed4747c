"""Symbol data, limit ratios, asymptotics and truncated series for the
multiplicative observable Phi built from finitely many Fourier coefficients.

Phi is the class function e^{n c0} * exp(sum_i c_i tr g^i).  This module
holds everything about it that does not require sampling: the limiting
ratio R of twisted to plain averages (two arithmetic forms), the closed
asymptotic formulas for the plain average per family, a truncated exact
series for finite rank with a rigorous tail bound, and Weyl dimensions.

Convention: the asymptotic limit formulas describe E[Phi]/e^{n c0}; the
normalization is systematically reported, never silently mixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import ConsistencyError
from .expectations import expect_twisted
from .groups import Family, GroupSpec
from .characters import character_value
from .partitions import Partition, partitions_of, z


class FourierData:
    """Finitely supported symmetric Fourier coefficients of a symbol.

    Only positive indices are stored; the symmetry c_{-i} = c_i is implicit.
    Scalars are either all exact rationals or all floats; the mode is fixed
    at construction and drives whether downstream identities are checked
    exactly or numerically.
    """

    __slots__ = ("c0", "_coeffs", "exact")

    def __init__(
        self,
        coeffs: Mapping[int, object] | Iterable[tuple[int, object]] = (),
        c0: object = 0,
        *,
        exact: bool | None = None,
    ):
        items = dict(coeffs)
        for i in items:
            if not isinstance(i, int) or i < 1:
                raise ValueError(f"coefficient index must be a positive integer, got {i!r}")
        values = [c0, *items.values()]
        if exact is None:
            exact = all(isinstance(v, (int, Fraction)) for v in values)
        if exact:
            try:
                c0 = Fraction(c0)
                items = {i: Fraction(v) for i, v in items.items()}
            except (TypeError, ValueError) as exc:
                raise ValueError("exact mode requires rational coefficients") from exc
        else:
            c0 = float(c0)
            items = {i: float(v) for i, v in items.items()}
        self.exact = bool(exact)
        self.c0 = c0
        self._coeffs = tuple(sorted((i, v) for i, v in items.items() if v))

    @classmethod
    def parse(cls, text: str) -> "FourierData":
        """Parse "c1=0.3,c2=-1/10"; exact mode when every value is an integer
        or a/b fraction, float mode as soon as any decimal appears."""
        text = text.strip()
        pairs: dict[int, str] = {}
        c0_text = "0"
        if text:
            for token in text.split(","):
                token = token.strip()
                if "=" not in token:
                    raise ValueError(f"bad coefficient token {token!r}, expected cK=value")
                name, _, value = token.partition("=")
                name = name.strip().lower()
                if not name.startswith("c") or not name[1:].isdigit():
                    raise ValueError(f"bad coefficient name {name!r}, expected cK")
                idx = int(name[1:])
                if idx == 0:
                    c0_text = value.strip()
                else:
                    pairs[idx] = value.strip()
        literals = [c0_text, *pairs.values()]
        exact = all(_is_rational_literal(v) for v in literals)
        if exact:
            return cls({i: Fraction(v) for i, v in pairs.items()}, Fraction(c0_text))
        return cls({i: float(Fraction(v)) for i, v in pairs.items()}, float(Fraction(c0_text)))

    @property
    def coeffs(self) -> dict[int, object]:
        return dict(self._coeffs)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self._coeffs)

    def coefficient(self, i: int):
        for j, v in self._coeffs:
            if j == i:
                return v
        return Fraction(0) if self.exact else 0.0

    def condition_a(self) -> float:
        """Diagnostic sum 2*sum|c_i| + |c0|; always finite here."""
        return 2.0 * sum(abs(float(v)) for _, v in self._coeffs) + abs(float(self.c0))

    def condition_b(self) -> float:
        """Diagnostic sum 2*sum i*c_i^2; always finite here."""
        return 2.0 * sum(i * float(v) ** 2 for i, v in self._coeffs)

    def as_float(self) -> "FourierData":
        if not self.exact:
            return self
        return FourierData(
            {i: float(v) for i, v in self._coeffs}, float(self.c0), exact=False
        )

    def __eq__(self, other):
        if isinstance(other, FourierData):
            return (
                self.exact == other.exact
                and self.c0 == other.c0
                and self._coeffs == other._coeffs
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.exact, self.c0, self._coeffs))

    def __repr__(self):
        body = ",".join(f"c{i}={v}" for i, v in self._coeffs)
        mode = "exact" if self.exact else "float"
        return f"FourierData(c0={self.c0}, {body or 'zero'}, {mode})"


def _is_rational_literal(text: str) -> bool:
    text = text.strip()
    if not text:
        return False
    body = text[1:] if text[0] in "+-" else text
    if "/" in body:
        num, _, den = body.partition("/")
        return num.isdigit() and den.isdigit()
    return body.isdigit()


def ratio_character_sum(gamma: Partition, f: FourierData):
    """Limiting twisted-to-plain ratio R as the character sum over partitions
    of |gamma|: sum of chi_gamma(lam) * prod c_i^{mult}/mult!."""
    one = Fraction(1) if f.exact else 1.0
    total = Fraction(0) if f.exact else 0.0
    for lam in partitions_of(gamma.weight):
        term = one
        for i, a in lam.multiplicities().items():
            ci = f.coefficient(i)
            if not ci:
                term = 0
                break
            term = term * ci**a / math.factorial(a)
        if term:
            total += character_value(gamma, lam) * term
    return total


def ratio_schur_specialization(gamma: Partition, f: FourierData):
    """Same ratio through the Schur polynomial: expand s_gamma into power
    sums with coefficients chi_gamma(lam)/z(lam), then set p_i := i*c_i."""
    one = Fraction(1) if f.exact else 1.0
    total = Fraction(0) if f.exact else 0.0
    for lam in partitions_of(gamma.weight):
        chi = character_value(gamma, lam)
        if not chi:
            continue
        term = one
        for i, a in lam.multiplicities().items():
            term = term * (i * f.coefficient(i)) ** a
        if f.exact:
            total += Fraction(chi, z(lam)) * term
        else:
            total += chi * term / z(lam)
    return total


@dataclass(frozen=True)
class SchurSpecialization:
    """The ratio R carried with its label; construction in verification mode
    asserts the two defining forms agree."""

    gamma: Partition
    value: object

    @classmethod
    def compute(
        cls, gamma: Partition, f: FourierData, *, verify: bool = False
    ) -> "SchurSpecialization":
        a = ratio_character_sum(gamma, f)
        if verify:
            b = ratio_schur_specialization(gamma, f)
            match = (a == b) if f.exact else math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
            if not match:
                raise ConsistencyError(
                    f"ratio forms disagree for gamma={gamma}: "
                    f"character sum {a}, Schur specialization {b}"
                )
        return cls(gamma, a)


def johansson_limit(family: Family, f: FourierData) -> float:
    """Limit of E[Phi]/e^{n c0} as the rank grows, per family.

    Returns exp(sum i*c_i^2/2 + L) with the linear term L equal to
    -sum c_odd for SO-odd, -sum c_even for Sp, +sum c_even for SO-even.
    """
    quad = sum(i * float(c) ** 2 for i, c in f.coeffs.items()) / 2.0
    even = sum(float(c) for i, c in f.coeffs.items() if i % 2 == 0)
    odd = sum(float(c) for i, c in f.coeffs.items() if i % 2 == 1)
    linear = {Family.SO_ODD: -odd, Family.SP: -even, Family.SO_EVEN: even}[family]
    return math.exp(quad + linear)


def twisted_asymptotic(family: Family, gamma: Partition, f: FourierData) -> float:
    """Limit of E[chi_gamma * Phi]/e^{n c0}: the ratio R times the plain
    asymptotic limit."""
    return float(ratio_schur_specialization(gamma, f.as_float())) * johansson_limit(
        family, f
    )


def _supported_partitions(support: tuple[int, ...], cutoff: int):
    """Multiplicity vectors over the support with weight at most cutoff,
    yielded as lists of (index, multiplicity) with positive multiplicities."""

    def rec(pos: int, budget: int, acc: list[tuple[int, int]]):
        if pos == len(support):
            yield list(acc)
            return
        i = support[pos]
        for a in range(budget // i + 1):
            if a:
                acc.append((i, a))
            yield from rec(pos + 1, budget - i * a, acc)
            if a:
                acc.pop()

    yield from rec(0, cutoff, [])


def expect_phi_series(
    G: GroupSpec, gamma: Partition, f: FourierData, weight_cutoff: int
) -> tuple[object, float]:
    """Truncated series for E[chi_gamma * Phi] at finite rank, with a
    rigorous tail bound.

    The value is e^{n c0} * sum over supported lam with |lam| <= W of
    (prod c_i^{mult}/mult!) times the exact twisted average; every retained
    term satisfies the stable-range hypothesis because W <= n is enforced.
    The tail bound uses |tr g^i| <= m (matrix size) and |chi_gamma| <= its
    dimension, so it is conservative but honest:
    dim * e^{n c0} * (exp(m * sum|c_i|) - sum of retained |coefficient|
    weights with c_i replaced by m*|c_i|).

    In exact mode with c0 = 0 the value is an exact rational; otherwise a
    float.
    """
    if G.is_stable:
        raise ValueError("series evaluation needs a finite rank")
    n = G.rank
    if weight_cutoff > n:
        raise ValueError(
            f"weight cutoff {weight_cutoff} exceeds rank {n}; terms beyond the "
            "rank would use the exact formula outside its validity range"
        )
    if weight_cutoff < 0:
        raise ValueError(f"weight cutoff must be non-negative, got {weight_cutoff}")

    exact_out = f.exact and f.c0 == 0
    support = f.support
    total = Fraction(0) if exact_out else 0.0
    m = G.matrix_size
    retained_weight = 0.0  # sum of |series coefficients| at the tail's scale
    for spec in _supported_partitions(support, weight_cutoff):
        lam = Partition(i for i, a in spec for _ in range(a))
        coeff = Fraction(1) if f.exact else 1.0
        tail_term = 1.0
        for i, a in spec:
            fact = math.factorial(a)
            coeff = coeff * f.coefficient(i) ** a / fact
            tail_term *= (m * abs(float(f.coefficient(i)))) ** a / fact
        retained_weight += tail_term
        value = expect_twisted(G, gamma, lam)
        if value:
            term = coeff * value
            total += term if exact_out else float(term)

    prefactor = math.exp(n * float(f.c0))
    if not exact_out:
        total = float(total) * prefactor
    dim = weyl_dimension(G.family, n, gamma)
    full_weight = math.exp(m * sum(abs(float(c)) for c in f.coeffs.values()))
    tail_bound = dim * prefactor * max(0.0, full_weight - retained_weight)
    return total, tail_bound


def weyl_dimension(family: Family, n: int, gamma: Partition) -> int:
    """Dimension of the irreducible representation labeled gamma, by the
    classical product formulas in exact rational arithmetic.

    For the even orthogonal family with l(gamma) = n the value is doubled:
    that is the dimension of the restriction character summing the two
    mirror-image irreducibles, which is the object this package evaluates.
    """
    if gamma.length > n:
        raise ValueError(f"label {gamma} is longer than the rank {n}")
    parts = list(gamma.parts) + [0] * (n - gamma.length)

    if family is Family.SP:
        l = [parts[i] + n - i for i in range(n)]
        rho = [n - i for i in range(n)]
    elif family is Family.SO_ODD:
        # half-integer entries doubled so everything stays integral
        l = [2 * parts[i] + 2 * (n - i) - 1 for i in range(n)]
        rho = [2 * (n - i) - 1 for i in range(n)]
    else:
        l = [parts[i] + n - i - 1 for i in range(n)]
        rho = [n - i - 1 for i in range(n)]

    dim = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            dim *= Fraction(l[i] ** 2 - l[j] ** 2, rho[i] ** 2 - rho[j] ** 2)
    if family is not Family.SO_EVEN:
        for i in range(n):
            dim *= Fraction(l[i], rho[i])
    if dim.denominator != 1:
        raise ConsistencyError(
            f"dimension formula produced non-integer {dim} for {family}, n={n}, {gamma}"
        )
    out = int(dim)
    if family is Family.SO_EVEN and gamma.length == n and n > 0:
        out *= 2
    return out

