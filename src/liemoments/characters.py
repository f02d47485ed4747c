"""Irreducible characters of symmetric groups and their character tables.

Character values are computed by the classical border-strip recursion,
implemented on first-column beta numbers: removing a border strip of length
r from the diagram is the same as replacing one beta number b by b - r
(provided b - r is not already a beta number), and the height of the strip
is the number of beta numbers strictly between the two.  All arithmetic is
exact integers.  The removals of each (shape, strip length) are computed
once per process and shared by every recursion step that meets that shape.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import ResourceBoundError
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
