"""Symbol data, limit ratios, asymptotics and truncated series for the
multiplicative observable Phi built from finitely many Fourier coefficients.

Phi is the class function e^{n c0} * exp(sum_i c_i tr g^i).  This module
holds everything about it that does not require sampling: the limiting
ratio R of twisted to plain averages (a character sum, checked against an
independent Jacobi-Trudi determinant), the closed asymptotic formulas for
the plain average per family, a truncated exact series for finite rank
with a rigorous tail bound, and Weyl dimensions.

The coefficients' own scalars decide the arithmetic: with Fractions every
value is an exact rational, with floats it is a float.  No function here
takes a mode switch.

Convention: the asymptotic limit formulas describe E[Phi]/e^{n c0}; the
normalization is systematically reported, never silently mixed.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConsistencyError
from .expectations import expect_twisted
from .groups import Family, GroupSpec, weyl_exponents
from .characters import character_value
from .partitions import Partition, partitions_of


#: a literal that keeps the coefficients exact: an integer or a/b fraction
_RATIONAL = re.compile(r"[+-]?\d+(/\d+)?")


@dataclass(frozen=True)
class FourierData:
    """Finitely supported symmetric Fourier coefficients of a symbol.

    `terms` takes a mapping {i: c_i} or (i, c_i) pairs with i >= 1 and
    stores them as sorted pairs with c_i nonzero; the symmetry c_{-i} = c_i
    is implicit.  The scalars decide the arithmetic: int and Fraction values
    all become Fractions and every result downstream stays an exact
    rational, while a single float makes them all floats.
    """

    terms: tuple[tuple[int, object], ...] = ()
    c0: object = 0

    def __post_init__(self):
        items = dict(self.terms)
        if not all(isinstance(i, int) and i >= 1 for i in items):
            raise ValueError(f"coefficient indices must be positive integers, got {list(items)}")
        exact = all(isinstance(v, (int, Fraction)) for v in [self.c0, *items.values()])
        scalar = Fraction if exact else float
        terms = ((i, scalar(v)) for i, v in sorted(items.items()))
        object.__setattr__(self, "terms", tuple((i, v) for i, v in terms if v))
        object.__setattr__(self, "c0", scalar(self.c0))

    @classmethod
    def parse(cls, text: str) -> "FourierData":
        """Parse "c1=0.3,c2=-1/10"; exact when every value is an integer or
        a/b fraction, float as soon as any other number appears."""
        literals: dict[int, str] = {}
        for token in text.split(",") if text.strip() else ():
            name, eq, value = (part.strip() for part in token.partition("="))
            if not eq or not re.fullmatch(r"c\d+", name.lower()):
                raise ValueError(f"bad coefficient {token.strip()!r}, expected cK=value")
            if int(name[1:]) in literals:
                raise ValueError(f"coefficient {name} is given twice")
            literals[int(name[1:])] = value
        try:
            values = {i: Fraction(v) for i, v in literals.items()}
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in coefficients {text!r}") from None
        if not all(_RATIONAL.fullmatch(v) for v in literals.values()):
            values = {i: float(v) for i, v in values.items()}
        c0 = values.pop(0, 0)
        return cls(values, c0)

    @property
    def exact(self) -> bool:
        return isinstance(self.c0, Fraction)

    @property
    def coeffs(self) -> dict[int, object]:
        return dict(self.terms)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.terms)


def ratio_character_sum(gamma: Partition, f: FourierData):
    """Limiting twisted-to-plain ratio R as the character sum over partitions
    of |gamma|: sum of chi_gamma(lam) * prod c_i^{mult}/mult!."""
    c = f.coeffs
    total = 0
    for lam in partitions_of(gamma.weight):
        term = 1
        for i, a in lam.multiplicities().items():
            if i not in c:
                break
            term = term * c[i] ** a / math.factorial(a)
        else:
            total += character_value(gamma, lam) * term
    return total


def ratio_schur_specialization(gamma: Partition, f: FourierData):
    """Same ratio as the Schur function s_gamma at p_i = i*c_i, by the
    Jacobi-Trudi determinant det(h_{gamma_i - i + j}).  The complete
    symmetric functions come from Newton's identity k h_k = sum_r p_r h_{k-r};
    no symmetric group character is read."""
    c = f.coeffs
    h = [Fraction(1)]  # exact on Fractions; a float coefficient turns it float
    for k in range(1, gamma.weight + 1):
        h.append(sum(r * c.get(r, 0) * h[k - r] for r in range(1, k + 1)) / k)
    size = gamma.length
    return _determinant(
        [[h[d] if d >= 0 else 0 for d in range(p - i, p - i + size)] for i, p in enumerate(gamma.parts)]
    )


def _determinant(rows: list[list]):
    """Determinant by Gaussian elimination with largest-magnitude pivots;
    exact on Fractions."""
    det = 1
    for col in range(len(rows)):
        pivot = max(range(col, len(rows)), key=lambda r: abs(rows[r][col]))
        if not rows[pivot][col]:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        top = rows[col]
        det *= top[col]
        for row in rows[col + 1 :]:
            factor = row[col] / top[col]
            for j in range(col, len(rows)):
                row[j] -= factor * top[j]
    return det


@dataclass(frozen=True)
class SchurSpecialization:
    """The ratio R carried with its label, from the character sum; in
    verification mode the Jacobi-Trudi determinant, which reads no character
    value, must agree: exactly on Fractions, to 1e-9 on floats."""

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

    With exact coefficients and c0 = 0 the value is an exact rational;
    otherwise a float.
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
    c = f.coeffs
    total = 0
    m = G.matrix_size
    retained_weight = 0.0  # sum of |series coefficients| at the tail's scale
    for spec in _supported_partitions(f.support, weight_cutoff):
        lam = Partition(i for i, a in spec for _ in range(a))
        coeff = 1
        tail_term = 1.0
        for i, a in spec:
            fact = math.factorial(a)
            coeff = coeff * c[i] ** a / fact
            tail_term *= (m * abs(float(c[i]))) ** a / fact
        retained_weight += tail_term
        value = expect_twisted(G, gamma, lam)
        if value:
            term = coeff * value
            total += term if exact_out else float(term)

    prefactor = math.exp(n * float(f.c0))
    if not exact_out:
        total = float(total) * prefactor
    dim = weyl_dimension(G.family, n, gamma)
    full_weight = math.exp(m * sum(abs(float(v)) for v in c.values()))
    tail_bound = dim * prefactor * max(0.0, full_weight - retained_weight)
    return total, tail_bound


def weyl_dimension(family: Family, n: int, gamma: Partition) -> int:
    """Dimension of the representation labeled gamma, by the classical
    product formulas over the exponents of `weyl_exponents`, in exact
    rational arithmetic.

    For the even orthogonal family with l(gamma) = n this is the dimension
    of the mirror-image sum, twice that of either irreducible.
    """
    a, b, mirror = weyl_exponents(family, n, gamma)
    # the formula is homogeneous of degree 0 in the exponents, and doubled
    # they are integers on every family, so the products stay integral
    a = [int(2 * x) for x in a]
    b = [int(2 * x) for x in b]
    num = den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= a[i] ** 2 - a[j] ** 2
            den *= b[i] ** 2 - b[j] ** 2
    if family is not Family.SO_EVEN:
        num *= math.prod(a)
        den *= math.prod(b)
    if num % den:
        raise ConsistencyError(
            f"dimension formula produced non-integer {Fraction(num, den)} "
            f"for {family}, n={n}, {gamma}"
        )
    return mirror * (num // den)
