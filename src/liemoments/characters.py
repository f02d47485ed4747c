"""Symmetric group characters, King's rule and Jacobi-Trudi determinants.

Character values are computed by the classical border-strip recursion,
implemented on first-column beta numbers: removing a border strip of length
r from the diagram is the same as replacing one beta number b by b - r
(provided b - r is not already a beta number), and the height of the strip
is the number of beta numbers strictly between the two.  All arithmetic is
exact integers.  The removals of each (shape, strip length) are computed
once per process and shared by every recursion step that meets that shape.
The removal that empties the last row is King's modification rule.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import ResourceBoundError
from .groups import Family
from .partitions import Partition, partitions_of


def character_value(lam: Partition, mu: Partition) -> int:
    """Value of the irreducible character labeled lam on the class mu.

    Both must be partitions of the same k.  chi_(k)(mu) = 1 (trivial) and
    chi_(1^k)(mu) = sgn(mu) fall out of the recursion rather than being
    special-cased.
    """
    if lam.weight != mu.weight:
        raise ValueError(
            f"label {lam} and class {mu} have different weights "
            f"({lam.weight} vs {mu.weight})"
        )
    return _strip_recursion(lam.parts, mu.parts)


@lru_cache(maxsize=None)
def _strip_recursion(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    if not mu:
        return 1
    r, rest = mu[0], mu[1:]
    total = 0
    for stripped, height in _border_strip_removals(lam, r):
        term = _strip_recursion(stripped, rest)
        total += -term if height % 2 else term
    return total


@lru_cache(maxsize=None)
def _border_strip_removals(lam: tuple[int, ...], r: int):
    """All ways to remove a border strip of length r, as (smaller shape, height)."""
    ell = len(lam)
    beta = [lam[i] + ell - 1 - i for i in range(ell)]
    beta_set = set(beta)
    out = []
    for b in beta:
        nb = b - r
        if nb < 0 or nb in beta_set:
            continue
        height = sum(1 for c in beta if nb < c < b)
        new_beta = sorted((beta_set - {b}) | {nb}, reverse=True)
        parts = tuple(new_beta[j] - (ell - 1 - j) for j in range(ell))
        out.append((tuple(p for p in parts if p > 0), height))
    return tuple(out)


def king_rule(family: Family, m: int, delta: Partition) -> tuple[int, Partition]:
    """King's modification rule (J. Phys. A 4, 1971; Koike and Terada,
    J. Algebra 107, 1987): the universal character labeled delta equals
    sign * chi_label on the group of matrix size m, with sign 0 when it
    vanishes.  While 2 l(delta) > m, the border strip of length
    h = 2l - m - 2 (Sp) or 2l - m (O) that empties the last row is removed.
    With height r it spans c = h - r columns, for the sign (-1)^c (Sp) or
    (-1)^(c-1) (O, where the det factor is invisible on SO)."""
    parts, sign = delta.parts, 1
    while 2 * len(parts) > m:
        h = 2 * len(parts) - m - 2 * family.epsilon
        strips = [(p, h - r) for p, r in _border_strip_removals(parts, h) if len(p) < len(parts)]
        if not strips:
            return 0, delta
        parts, c = strips[0]
        sign *= (-1) ** (c - 1 + family.epsilon)
    return sign, Partition(parts)


def jacobi_trudi(family: Family | None, gamma: Partition, h):
    """Determinant in the complete symmetric functions h(k), h_k = 0 for
    k < 0: the Schur function det(h_{g_i - i + j}) for family None, and the
    Koike-Terada universal characters (J. Algebra 107, 1987)
    sp_gamma = det(h_{g_i - i + 1} | h_{g_i - i + j} + h_{g_i - i - j + 2})
    and o_gamma = det(h_{g_i - i + j} - h_{g_i - i - j}) for Sp and either
    SO family, i, j = 1..l(gamma).  Exact when h is integer or rational."""

    def hk(k):
        return h(k) if k >= 0 else 0

    def entry(a, j):
        if family is None:
            return hk(a + j)
        if family is Family.SP:
            return hk(a + 1) if j == 1 else hk(a + j) + hk(a - j + 2)
        return hk(a + j) - hk(a - j)

    cols = range(1, gamma.length + 1)
    return _determinant([[entry(p - i, j) for j in cols] for i, p in enumerate(gamma.parts, 1)])


def _determinant(rows: list[list]):
    """Determinant by Bareiss' fraction-free elimination with partial
    pivoting.  Each division is exact, so integer entries stay integers and
    rational ones stay exact; floats take the pivot of largest size."""
    sign, prev = 1, Fraction(1)
    for col in range(len(rows)):
        pivot = max(range(col, len(rows)), key=lambda r: abs(rows[r][col]))
        if not rows[pivot][col]:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            sign = -sign
        top = rows[col]
        for row in rows[col + 1 :]:
            for j in range(col + 1, len(rows)):
                num = row[j] * top[col] - row[col] * top[j]
                row[j] = num // prev if isinstance(num, int) else num / prev
        prev = top[col]
    return sign * prev


class CharacterTable:
    """Exact character table of the symmetric group on k points.

    Rows are irreducible labels and columns are class types, both in the
    canonical reverse lexicographic order, so values[0] is the trivial
    character and the last column (identity class) holds the dimensions.
    """

    __slots__ = ("k", "labels", "values")

    def __init__(self, k: int, labels, values):
        self.k = k
        self.labels: tuple[Partition, ...] = tuple(labels)
        self.values: tuple[tuple[int, ...], ...] = tuple(tuple(row) for row in values)

    @classmethod
    def build(cls, k: int) -> "CharacterTable":
        labels = partitions_of(k)
        values = [
            tuple(character_value(lam, mu) for mu in labels) for lam in labels
        ]
        return cls(k, labels, values)

    @property
    def classes(self) -> tuple[Partition, ...]:
        # Class types of S_k are the same partitions as the labels.
        return self.labels

    def __eq__(self, other):
        if isinstance(other, CharacterTable):
            return (
                self.k == other.k
                and self.labels == other.labels
                and self.values == other.values
            )
        return NotImplemented

    def __repr__(self):
        return f"CharacterTable(k={self.k}, {len(self.labels)} irreducibles)"


_TABLE_MEMO: dict[int, CharacterTable] = {}

#: Largest k that `character_table` serves.  On a 2-vCPU host a build takes
#: about 7 s and 100 MB at k = 20, and 11 s and 170 MB at k = 21.
TABLE_BOUND = 20


def character_table(k: int, *, cache_dir=None) -> CharacterTable:
    """Character table for S_k, memoized per process and optionally on disk.

    A corrupt or stale disk file is ignored and rebuilt, never trusted.
    k above `TABLE_BOUND` is refused before any build or cache access.
    """
    if k > TABLE_BOUND:
        raise ResourceBoundError(
            f"refusing to build the character table of S_{k} (bound {TABLE_BOUND})"
        )
    table = _TABLE_MEMO.get(k)
    if table is not None:
        return table
    if cache_dir is not None:
        from . import tablecache

        table = tablecache.load_table(k, cache_dir)
    if table is None:
        table = CharacterTable.build(k)
        if cache_dir is not None:
            from . import tablecache

            tablecache.save_table(table, cache_dir)
    _TABLE_MEMO[k] = table
    return table
