"""Perfect matchings fixed by a permutation, three independent ways.

g(lam) counts the perfect matchings of k = |lam| points that are preserved
by a fixed permutation of cycle type lam.  It is computed either by brute
force over all (k-1)!! matchings, or through the per-part-value product
formula, and for the single-cycle-type tail there is the small-rank count
of fixed-point-free involutions filtered by decreasing-subsequence length.
These routes are kept strictly separate: the brute force is the oracle the
closed form is tested against.  Only the brute force is vectorized, and it
imports numpy when first called, so the closed form and the involution
count run without it.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from math import comb
from typing import TYPE_CHECKING

from .errors import ResourceBoundError
from .partitions import Partition

if TYPE_CHECKING:
    import numpy as np

#: (k-1)!! matchings at k = 14 is 135135 rows of 14 ints; beyond that the
#: exhaustive routes stop being "seconds" and the guard kicks in.
BRUTE_FORCE_BOUND = 14


def double_factorial(m: int) -> int:
    """m!! with the empty-product conventions (-1)!! = 0!! = 1."""
    if m < -1:
        raise ValueError(f"double factorial undefined for {m}")
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


def matchings(k: int):
    """Yield every perfect matching of {0,...,k-1} as a partner tuple p with
    p[p[i]] = i and p[i] != i.

    Enumeration always pairs the smallest unmatched point first, so the
    order is deterministic and the count is (k-1)!!.
    """
    if k % 2:
        return
    points = tuple(range(k))

    def rec(avail: tuple[int, ...], partner: list[int]):
        if not avail:
            yield tuple(partner)
            return
        a = avail[0]
        for j in range(1, len(avail)):
            b = avail[j]
            partner[a], partner[b] = b, a
            yield from rec(avail[1:j] + avail[j + 1 :], partner)
        partner[a] = -1

    yield from rec(points, [-1] * k)


@lru_cache(maxsize=None)
def matchings_array(k: int) -> np.ndarray:
    """All matchings of k points stacked into an ((k-1)!!, k) partner array."""
    import numpy as np

    if k > BRUTE_FORCE_BOUND:
        raise ResourceBoundError(
            f"matchings_array(k={k}) exceeds the brute-force bound {BRUTE_FORCE_BOUND}"
        )
    arr = np.array(list(matchings(k)), dtype=np.int64)
    arr.setflags(write=False)
    return arr


def canonical_permutation(lam: Partition) -> np.ndarray:
    """One fixed permutation of cycle type lam, with cycles laid out on
    consecutive points: image array sigma with sigma[i] the image of i."""
    import numpy as np

    k = lam.weight
    sigma = np.arange(k, dtype=np.int64)
    start = 0
    for c in lam.parts:
        for i in range(c):
            sigma[start + i] = start + (i + 1) % c
        start += c
    return sigma


def g_bruteforce(lam: Partition) -> int:
    """Count preserved matchings by scanning all of them.

    A matching with partner array p is preserved by sigma exactly when
    p[sigma[i]] = sigma[p[i]] for every point i; the check runs vectorized
    over the full stack of matchings.
    """
    k = lam.weight
    if k % 2:
        return 0
    if k == 0:
        return 1
    import numpy as np

    p = matchings_array(k)  # refuses k beyond the bound before sigma is built
    sigma = canonical_permutation(lam)
    preserved = np.all(p[:, sigma] == sigma[p], axis=1)
    return int(np.count_nonzero(preserved))


def _g_single_value(j: int, a: int) -> int:
    # Matchings of the disjoint union of `a` cycles of length j preserved by
    # the rotation; odd j forces cycles to pair up two at a time.
    if j % 2:
        if a % 2:
            return 0
        return j ** (a // 2) * double_factorial(a - 1)
    return sum(
        comb(a, 2 * t) * j**t * double_factorial(2 * t - 1)
        for t in range(a // 2 + 1)
    )


def g_closed(lam: Partition) -> int:
    """Closed-form count of preserved matchings: a product over distinct part
    values, each factor depending only on the value and its multiplicity."""
    if lam.weight % 2:
        return 0
    out = 1
    for j, a in lam.multiplicities().items():
        out *= _g_single_value(j, a)
        if out == 0:
            break
    return out


def decreasing_subsequence_length(word) -> int:
    """Length of the longest strictly decreasing subsequence, by the patience
    method on the negated word (O(k log k))."""
    tails: list[int] = []
    for v in word:
        x = -v
        pos = bisect_left(tails, x)
        if pos == len(tails):
            tails.append(x)
        else:
            tails[pos] = x
    return len(tails)


def fpf_involutions_lds(k: int, bound: int) -> int:
    """Number of fixed-point-free involutions of k points whose longest
    strictly decreasing subsequence (as a word in one-line notation) has
    length at most `bound`.

    This is the below-stable-range count for the symplectic average of the
    k-th power of the trace; it stabilizes to (k-1)!! once bound >= k.
    """
    if bound < 1:
        raise ValueError(f"bound must be positive, got {bound}")
    if k % 2:
        return 0
    if k == 0:
        return 1
    if k > BRUTE_FORCE_BOUND:
        raise ResourceBoundError(
            f"involution scan at k={k} exceeds bound {BRUTE_FORCE_BOUND}"
        )
    count = 0
    for p in matchings(k):
        word = [x + 1 for x in p]
        if decreasing_subsequence_length(word) <= bound:
            count += 1
    return count
