"""Integer partitions and the exact combinatorial quantities attached to them.

Partitions are the universal index object in this package: they label
conjugacy classes and irreducible characters of symmetric groups, highest
weights of the compact classical groups, and the multi-indices of power-sum
observables.  Everything here is exact integer arithmetic.
"""

from __future__ import annotations

from math import comb, factorial, prod
from typing import Iterable, Iterator

from .errors import ResourceBoundError

#: Guard for full enumerations of all partitions of k.  p(30) = 5604 is still
#: cheap; the guard exists to catch runaway weights before they allocate.
ENUMERATION_BOUND = 30


class Partition:
    """Weakly decreasing tuple of positive integers.

    Immutable value type with structural equality and hashing.  The
    constructor accepts any iterable of non-negative integers, sorts it and
    drops zeros, so callers may pass unsorted multisets straight from union
    or splitting loops.
    """

    __slots__ = ("_parts",)

    def __init__(self, parts: Iterable[int] = ()):
        ps = sorted((int(p) for p in parts), reverse=True)
        if ps and ps[-1] < 0:
            raise ValueError(f"partition parts must be non-negative, got {ps}")
        while ps and ps[-1] == 0:
            ps.pop()
        self._parts: tuple[int, ...] = tuple(ps)

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Parse comma-separated parts; '' and '0' both denote the empty partition."""
        text = text.strip()
        if text in ("", "0"):
            return cls()
        try:
            return cls(int(tok) for tok in text.split(","))
        except ValueError as exc:
            raise ValueError(f"cannot parse partition from {text!r}") from exc

    @property
    def parts(self) -> tuple[int, ...]:
        return self._parts

    @property
    def weight(self) -> int:
        """Sum of the parts."""
        return sum(self._parts)

    @property
    def length(self) -> int:
        """Number of (nonzero) parts."""
        return len(self._parts)

    def multiplicities(self) -> dict[int, int]:
        """Map part value -> multiplicity, keys in decreasing order."""
        out: dict[int, int] = {}
        for p in self._parts:
            out[p] = out.get(p, 0) + 1
        return out

    def conjugate(self) -> "Partition":
        """Transpose of the Young diagram."""
        if not self._parts:
            return Partition()
        cols = [sum(1 for p in self._parts if p > j) for j in range(self._parts[0])]
        return Partition(cols)

    def contains(self, other: "Partition") -> bool:
        """Containment of Young diagrams: other[i] <= self[i] for every row."""
        if other.length > len(self._parts):
            return False
        return all(o <= s for s, o in zip(self._parts, other._parts))

    @property
    def sort_key(self) -> tuple:
        """Key realizing the canonical order: by weight, then reverse
        lexicographic within a weight, so (k) comes before (k-1,1) and the
        all-ones partition comes last."""
        return (self.weight, tuple(-p for p in self._parts))

    def __iter__(self) -> Iterator[int]:
        return iter(self._parts)

    def __len__(self) -> int:
        return len(self._parts)

    def __getitem__(self, i):
        return self._parts[i]

    def __bool__(self) -> bool:
        return bool(self._parts)

    def __eq__(self, other) -> bool:
        if isinstance(other, Partition):
            return self._parts == other._parts
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("Partition", self._parts))

    def __repr__(self) -> str:
        return f"Partition({list(self._parts)})"

    def __str__(self) -> str:
        if not self._parts:
            return "0"
        return ",".join(str(p) for p in self._parts)


def z(lam: Partition) -> int:
    """Order of the centralizer in the symmetric group of a permutation of
    cycle type lam: the product over parts i of i**mult(i) * mult(i)!."""
    return prod(i**m * factorial(m) for i, m in lam.multiplicities().items())


def sgn(lam: Partition) -> int:
    """Sign of a permutation of cycle type lam: (-1) ** (weight - length)."""
    return -1 if (lam.weight - lam.length) % 2 else 1


def _descending_parts(total: int, largest: int) -> Iterator[tuple[int, ...]]:
    if total == 0:
        yield ()
        return
    for first in range(min(total, largest), 0, -1):
        for rest in _descending_parts(total - first, first):
            yield (first,) + rest


def partitions_of(k: int) -> list[Partition]:
    """All partitions of k in canonical (reverse lexicographic) order.

    The first entry is (k) and the last is (1,...,1).  Guarded by
    `ENUMERATION_BOUND` because callers usually enumerate in inner loops.
    """
    if k < 0:
        raise ValueError(f"cannot partition a negative integer {k}")
    if k > ENUMERATION_BOUND:
        raise ResourceBoundError(
            f"refusing to enumerate partitions of {k} (bound {ENUMERATION_BOUND})"
        )
    return [Partition(p) for p in _descending_parts(k, k)]


def even_partitions_of(k: int) -> list[Partition]:
    """Partitions of k with all parts even, canonical order.  Empty for odd k."""
    if k % 2:
        return []
    return [Partition(2 * p for p in rho.parts) for rho in partitions_of(k // 2)]


def sub_splittings(lam: Partition, w: int) -> list[tuple[Partition, Partition, int]]:
    """Split the multiset lam into complementary sub-multisets (a, b) with
    |a| = w, together with the number of ways m that split arises from
    distinguishable parts.

    m is the product over part values i of C(mult(i), mult_a(i)); summing m
    over all splittings of weight w gives the number of w-subsets of the
    multiset counted with labels.
    """
    if w < 0 or w > lam.weight:
        raise ValueError(f"splitting weight {w} outside [0, {lam.weight}]")
    mults = list(lam.multiplicities().items())
    results: list[tuple[Partition, Partition, int]] = []

    def rec(idx: int, remaining: int, chosen: list[int]) -> None:
        if remaining == 0:
            chosen_full = chosen + [0] * (len(mults) - idx)
            a_parts: list[int] = []
            b_parts: list[int] = []
            m = 1
            for (part, mult), c in zip(mults, chosen_full):
                a_parts.extend([part] * c)
                b_parts.extend([part] * (mult - c))
                m *= comb(mult, c)
            results.append((Partition(a_parts), Partition(b_parts), m))
            return
        if idx == len(mults):
            return
        part, mult = mults[idx]
        for c in range(min(mult, remaining // part), -1, -1):
            rec(idx + 1, remaining - c * part, chosen + [c])

    rec(0, w, [])
    results.sort(key=lambda t: t[0].sort_key)
    return results
