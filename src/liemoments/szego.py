"""Symbol data, limit ratios, asymptotics and truncated series for the
multiplicative observable Phi built from finitely many Fourier coefficients.

Phi is the class function e^{n c0} * exp(sum_i c_i tr g^i).  This module
holds everything about it that does not require sampling: the limiting
ratio R of twisted to plain averages (a character sum, checked against a
Jacobi-Trudi determinant), the closed asymptotic formulas for the plain
average per family, a truncated exact series for finite rank with a
rigorous tail bound, and Weyl dimensions, as determinants at the identity.

Coefficients are exact rationals, so the ratio, the series sum and the
dimensions are exact; floats appear only where a value is irrational:
the large-rank limits, the e^{n c0} prefactor and the tail bound.

Convention: the asymptotic limit formulas describe E[Phi]/e^{n c0}; the
normalization is systematically reported, never silently mixed.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .characters import character_value, jacobi_trudi
from .errors import ConsistencyError, ResourceBoundError
from .expectations import expect_twisted
from .groups import Family, GroupSpec, check_label
from .partitions import ENUMERATION_BOUND, Partition


#: bound on |numerator| and denominator of every coefficient: the exact
#: value of every double fits, and exact work on the symbol stays polynomial
_SIZE_BOUND = 2**1100
#: a literal's decimal exponent beyond this is refused before 10**exponent
#: is built: int() reads at most 4300 mantissa digits, so every nonzero
#: value spelled that way breaks the size bound
_EXPONENT_BOUND = 10_000
_EXPONENT = re.compile(r"e([+-]?[\d_]+)\s*$", re.IGNORECASE)


def _rational(i: int, value) -> Fraction:
    """c_i as the rational it is: a string as the literal it spells, a float
    at its exact binary value."""
    exponent = _EXPONENT.search(value) if isinstance(value, str) else None
    try:
        c = None if exponent and abs(int(exponent[1])) > _EXPONENT_BOUND else Fraction(value)
    except (ArithmeticError, ValueError):
        raise ValueError(f"coefficient c{i} must be a finite rational, got {value!r}") from None
    if c is None or max(abs(c.numerator), c.denominator) > _SIZE_BOUND:
        raise ValueError(f"coefficient c{i} has a numerator or denominator above 2^1100")
    return c


@dataclass(frozen=True)
class FourierData:
    """Finitely supported symmetric Fourier coefficients of a symbol.

    `terms` takes a mapping {i: c_i} or (i, c_i) pairs with i >= 1 and
    stores them as sorted pairs with c_i nonzero; the symmetry c_{-i} = c_i
    is implicit.  Every scalar is stored as the exact rational it is, a
    float at its binary value, so every result downstream that can be exact
    is exact.  A numerator or denominator above 2^1100 in size, or a
    non-finite float, is refused with ValueError.
    """

    terms: tuple[tuple[int, Fraction], ...] = ()
    c0: Fraction = Fraction(0)

    def __post_init__(self):
        items = dict(self.terms)
        if not all(isinstance(i, int) and i >= 1 for i in items):
            raise ValueError(f"coefficient indices must be positive integers, got {list(items)}")
        values = {i: _rational(i, v) for i, v in sorted({0: self.c0, **items}.items())}
        object.__setattr__(self, "c0", values.pop(0))
        object.__setattr__(self, "terms", tuple((i, v) for i, v in values.items() if v))

    @classmethod
    def parse(cls, text: str) -> "FourierData":
        """Parse "c1=0.3,c2=-1/10,c3=1e-3", each value read as the rational
        it spells."""
        literals: dict[int, str] = {}
        for token in text.split(",") if text.strip() else ():
            name, eq, value = (part.strip() for part in token.partition("="))
            if not eq or not re.fullmatch(r"c\d+", name.lower()):
                raise ValueError(f"bad coefficient {token.strip()!r}, expected cK=value")
            if int(name[1:]) in literals:
                raise ValueError(f"coefficient {name} is given twice")
            literals[int(name[1:])] = value
        c0 = literals.pop(0, "0")
        return cls(literals, c0)

    @property
    def coeffs(self) -> dict[int, Fraction]:
        return dict(self.terms)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.terms)


def _phi_coefficients(f: FourierData, w: int):
    """(lam, prod c_i^{mult}/mult!) for each partition lam of w whose parts
    all lie in the support, in `partitions_of` order (largest parts first):
    the coefficient of p_lam in Phi = exp(sum c_i p_i)."""
    c = f.coeffs

    def parts(total: int, allowed: tuple[int, ...]):
        if total == 0:
            yield ()
        for pos, i in enumerate(allowed):
            if i <= total:
                for rest in parts(total - i, allowed[pos:]):
                    yield (i, *rest)

    for lam in map(Partition, parts(w, f.support[::-1])):
        term = 1
        for i, a in lam.multiplicities().items():
            term = term * c[i] ** a / math.factorial(a)
        yield lam, term


def ratio_character_sum(gamma: Partition, f: FourierData) -> Fraction:
    """Limiting twisted-to-plain ratio R as the character sum over partitions
    of |gamma|: sum of chi_gamma(lam) * prod c_i^{mult}/mult!.  The sum runs
    over classes of S_|gamma|, so it keeps the symmetric-group enumeration
    bound."""
    if gamma.weight > ENUMERATION_BOUND:
        raise ResourceBoundError(
            f"refusing to enumerate partitions of {gamma.weight} (bound {ENUMERATION_BOUND})"
        )
    terms = _phi_coefficients(f, gamma.weight)
    return sum((character_value(gamma, lam) * coef for lam, coef in terms), Fraction(0))


def ratio_schur_specialization(gamma: Partition, f: FourierData) -> Fraction:
    """Same ratio as the Schur function s_gamma at p_i = i*c_i, by the
    Jacobi-Trudi determinant det(h_{gamma_i - i + j}).  The complete
    symmetric functions come from Newton's identity k h_k = sum_r p_r h_{k-r};
    no symmetric group character is read."""
    c = f.coeffs
    h = [Fraction(1)]
    for k in range(1, gamma.weight + 1):
        h.append(sum(r * c.get(r, 0) * h[k - r] for r in range(1, k + 1)) / k)
    return jacobi_trudi(None, gamma, h.__getitem__)


@dataclass(frozen=True)
class SchurSpecialization:
    """The ratio R carried with its label, from the character sum; in
    verification mode the Jacobi-Trudi determinant, which reads no character
    value, must equal it."""

    gamma: Partition
    value: Fraction

    @classmethod
    def compute(
        cls, gamma: Partition, f: FourierData, *, verify: bool = False
    ) -> "SchurSpecialization":
        a = ratio_character_sum(gamma, f)
        if verify:
            b = ratio_schur_specialization(gamma, f)
            if a != b:
                raise ConsistencyError(
                    f"ratio forms disagree for gamma={gamma}: "
                    f"character sum {a}, Schur specialization {b}"
                )
        return cls(gamma, a)


def johansson_limit(family: Family, f: FourierData) -> float:
    """Limit of E[Phi]/e^{n c0} as the rank grows, per family.

    Phi takes full traces, so on SO(2n+1) it includes the fixed eigenvalue
    +1.  Returns exp(sum i*c_i^2/2 + L) with the linear term L equal to
    -sum c_even for Sp and +sum c_even for both orthogonal families.
    """
    quad = sum(i * float(c) ** 2 for i, c in f.coeffs.items()) / 2.0
    even = sum(float(c) for i, c in f.coeffs.items() if i % 2 == 0)
    return math.exp(quad - even if family is Family.SP else quad + even)


def twisted_asymptotic(family: Family, gamma: Partition, f: FourierData) -> float:
    """Limit of E[chi_gamma * Phi]/e^{n c0}: the ratio R times the plain
    asymptotic limit."""
    return float(ratio_character_sum(gamma, f)) * johansson_limit(family, f)


def expect_phi_series(
    G: GroupSpec, gamma: Partition, f: FourierData, weight_cutoff: int
) -> tuple[Fraction | float, float]:
    """Truncated series for E[chi_gamma * Phi] at finite rank, with a
    rigorous tail bound.

    The value is e^{n c0} * sum over supported lam with |lam| <= W of
    (prod c_i^{mult}/mult!) times the exact twisted average, which
    `expect_twisted` gives at every rank.
    The tail bound uses |tr g^i| <= m (matrix size) and |chi_gamma| <= its
    dimension, so it is conservative but honest:
    dim * e^{n c0} * (exp(m * sum|c_i|) - sum of retained m^{l(lam)} *
    |coefficient|, which is the coefficient with c_i replaced by m*|c_i|).

    The sum is exact, and the value is that rational when c0 = 0;
    otherwise it is rounded once and scaled by the irrational prefactor.
    """
    if G.is_stable:
        raise ValueError("series evaluation needs a finite rank")
    n = G.rank
    if weight_cutoff < 0:
        raise ValueError(f"weight cutoff must be non-negative, got {weight_cutoff}")

    total = 0
    m = G.matrix_size
    retained_weight = 0.0  # sum of |series coefficients| at the tail's scale
    terms = (t for w in range(weight_cutoff + 1) for t in _phi_coefficients(f, w))
    for lam, coeff in terms:
        retained_weight += m**lam.length * abs(float(coeff))
        total += coeff * expect_twisted(G, gamma, lam)

    prefactor = math.exp(n * float(f.c0))
    dim = weyl_dimension(G.family, n, gamma)
    full_weight = math.exp(m * sum(abs(float(v)) for _, v in f.terms))
    tail_bound = dim * prefactor * max(0.0, full_weight - retained_weight)
    return (float(total) * prefactor if f.c0 else total), tail_bound


def weyl_dimension(family: Family, n: int, gamma: Partition) -> int:
    """Dimension of the representation labeled gamma at rank n: the
    family's Koike-Terada determinant at the m eigenvalues 1 of the
    identity, h_k = C(m + k - 1, k).  For the even orthogonal family with
    l(gamma) = n it is the mirror-image sum, twice either irreducible."""
    check_label(gamma, n)
    m = GroupSpec(family, n).matrix_size
    return int(jacobi_trudi(family, gamma, lambda k: math.comb(m + k - 1, k)))
