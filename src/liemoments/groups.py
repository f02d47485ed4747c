"""Identification of the compact classical group families and their specs."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .partitions import Partition


class Family(enum.Enum):
    """The three families whose Haar averages this package computes."""

    SP = "sp"
    SO_EVEN = "so-even"
    SO_ODD = "so-odd"

    @classmethod
    def parse(cls, text: str) -> "Family":
        key = text.strip().lower().replace("_", "-")
        aliases = {
            "sp": cls.SP,
            "symplectic": cls.SP,
            "so-even": cls.SO_EVEN,
            "soeven": cls.SO_EVEN,
            "so-odd": cls.SO_ODD,
            "soodd": cls.SO_ODD,
        }
        try:
            return aliases[key]
        except KeyError:
            raise ValueError(
                f"unknown family {text!r}; expected one of sp, so-even, so-odd"
            ) from None

    @property
    def epsilon(self) -> int:
        """Sign exponent in the closed-form average: 1 for Sp, 0 for SO."""
        return 1 if self is Family.SP else 0

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class GroupSpec:
    """A concrete group Sp(2n), SO(2n) or SO(2n+1), or its stable limit.

    rank is the Lie rank n; rank=None denotes the stable regime where the
    closed-form averages hold for observables of any weight.
    """

    family: Family
    rank: int | None = None

    def __post_init__(self):
        if self.rank is not None and self.rank < 1:
            raise ValueError(f"rank must be a positive integer, got {self.rank}")

    @classmethod
    def sp(cls, n: int) -> "GroupSpec":
        return cls(Family.SP, n)

    @classmethod
    def so_even(cls, n: int) -> "GroupSpec":
        return cls(Family.SO_EVEN, n)

    @classmethod
    def so_odd(cls, n: int) -> "GroupSpec":
        return cls(Family.SO_ODD, n)

    @classmethod
    def stable(cls, family: Family) -> "GroupSpec":
        return cls(family, None)

    @property
    def is_stable(self) -> bool:
        return self.rank is None

    @property
    def matrix_size(self) -> int:
        """Size of the defining matrices: 2n for Sp and SO(2n), 2n+1 for SO(2n+1)."""
        if self.rank is None:
            raise ValueError("the stable group has no defining matrix size")
        if self.family is Family.SO_ODD:
            return 2 * self.rank + 1
        return 2 * self.rank

    def covers_weight(self, k: int) -> bool:
        """Whether the stable-range hypothesis rank >= k holds."""
        return self.rank is None or self.rank >= k

    def __str__(self) -> str:
        if self.rank is None:
            return {
                Family.SP: "Sp(2n) stable",
                Family.SO_EVEN: "SO(2n) stable",
                Family.SO_ODD: "SO(2n+1) stable",
            }[self.family]
        return {
            Family.SP: f"Sp({2 * self.rank})",
            Family.SO_EVEN: f"SO({2 * self.rank})",
            Family.SO_ODD: f"SO({2 * self.rank + 1})",
        }[self.family]


def weyl_exponents(
    family: Family, n: int, gamma: Partition
) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...], int]:
    """Weyl data (a, b, mirror) of the label gamma at rank n: b_j = n - j - s
    and a_j = gamma_j + b_j for j = 1..n, with the shift s = 0 for Sp(2n),
    1/2 for SO(2n+1) and 1 for SO(2n).  The character on the half spectrum
    is mirror * det trig(theta_i a_j) / det trig(theta_i b_j), with cos for
    SO(2n) and sin otherwise.
    """
    if gamma.length > n:
        raise ValueError(f"label {gamma} is longer than the rank {n}")
    shift = {Family.SP: 0, Family.SO_ODD: Fraction(1, 2), Family.SO_EVEN: 1}[family]
    parts = list(gamma.parts) + [0] * (n - gamma.length)
    b = tuple(Fraction(n - j) - shift for j in range(n))
    a = tuple(p + bj for p, bj in zip(parts, b))
    return a, b, mirror_factor(family, n, gamma)


def mirror_factor(family: Family, n: int | None, gamma: Partition) -> int:
    """2 for an SO(2n) label of full length n, else 1 (also for the stable
    group, n = None).  Such a label names the sum of the two mirror-image
    irreducibles, the O(2n) character restricted, and the cosine ratio of
    `weyl_exponents` is half of that sum."""
    return 2 if family is Family.SO_EVEN and gamma.length == n and n > 0 else 1
