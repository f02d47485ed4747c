"""Littlewood-Richardson coefficients and derived expansions.

The coefficient c^lam_{mu,nu} is counted directly as the number of skew
semistandard tableaux of shape lam/mu and content nu whose reading word is a
lattice word.  Cells are filled in reading order (rows top to bottom, right
to left within a row), which lets every constraint, including the lattice
condition, be checked incrementally so dead branches are cut immediately.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .groups import Family
from .partitions import Partition, even_partitions_of, partitions_of


def lr_coefficient(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Structure constant of the Schur basis: the multiplicity of s_lam in
    s_mu * s_nu.  Zero unless |lam| = |mu| + |nu| and mu, nu both fit
    inside lam."""
    if lam.weight != mu.weight + nu.weight:
        return 0
    if not (lam.contains(mu) and lam.contains(nu)):
        return 0
    if not nu:
        return 1 if lam == mu else 0
    return _count_tableaux(lam.parts, mu.parts, nu.parts)


@lru_cache(maxsize=None)
def _count_tableaux(lam: tuple[int, ...], mu: tuple[int, ...], nu: tuple[int, ...]) -> int:
    rows = len(lam)
    mu_padded = mu + (0,) * (rows - len(mu))
    cells = [
        (r, c)
        for r in range(rows)
        for c in range(lam[r] - 1, mu_padded[r] - 1, -1)
    ]
    grid = [[0] * lam[r] for r in range(rows)]
    counts = [0] * (len(nu) + 2)  # 1-indexed letters; sentinel at both ends

    def fill(pos: int) -> int:
        if pos == len(cells):
            return 1
        r, c = cells[pos]
        right = grid[r][c + 1] if c + 1 < lam[r] else None
        above = grid[r - 1][c] if r > 0 and c >= mu_padded[r - 1] else None
        total = 0
        for v in range(1, len(nu) + 1):
            if counts[v] >= nu[v - 1]:
                continue
            if v > 1 and counts[v] + 1 > counts[v - 1]:
                continue  # lattice word would break here
            if right is not None and v > right:
                continue
            if above is not None and v <= above:
                continue
            grid[r][c] = v
            counts[v] += 1
            total += fill(pos + 1)
            counts[v] -= 1
            grid[r][c] = 0
        return total

    return fill(0)


def schur_product(mu: Partition, nu: Partition, rows: int | None = None) -> dict[Partition, int]:
    """Expansion of s_mu * s_nu, as an ordered map from partitions of
    |mu| + |nu| to positive coefficients (canonical order); with `rows`,
    only the terms with at most that many rows."""
    k = mu.weight + nu.weight
    out: dict[Partition, int] = {}
    for lam in partitions_of(k, rows):
        c = lr_coefficient(lam, mu, nu)
        if c:
            out[lam] = c
    return out


def paired_partitions(family: Family, w: int) -> list[Partition]:
    """Partitions of w that restrict a Schur function to the family in the
    stable range: all parts even for SO, all multiplicities even (the
    conjugates of the even partitions) for Sp.  Empty for odd w."""
    evens = even_partitions_of(w)
    if family is Family.SP:
        return [nu.conjugate() for nu in evens]
    return evens


@dataclass
class BranchingTarget:
    """Decomposition of a restricted representation: multiplicities of the
    target family's irreducibles, valid in the stable rank range."""

    family: Family
    coeffs: dict[Partition, int]


def branching_decomposition(lam: Partition, family: Family) -> BranchingTarget:
    """Restriction multiplicities of the unitary irreducible labeled lam to
    the symplectic or orthogonal subgroup, as Littlewood-Richardson sums.

    The multiplicity of mu is the sum of c^lam_{beta, mu} over beta in
    `paired_partitions`: the universal labels mu, valid verbatim when the
    group rank is at least |lam|.  This function takes no rank and folds
    nothing: at rank n a label longer than n folds by `characters.king_rule`.
    """
    k = lam.weight
    coeffs: dict[Partition, int] = {}
    for w in range(0, k + 1, 2):
        for beta in paired_partitions(family, w):
            for mu in partitions_of(k - w):
                c = lr_coefficient(lam, beta, mu)
                if c:
                    coeffs[mu] = coeffs.get(mu, 0) + c
    ordered = dict(sorted(coeffs.items(), key=lambda kv: kv[0].sort_key))
    return BranchingTarget(family, ordered)
