"""Independent reference implementations used to check the package.

Everything here deliberately avoids the algorithms under test: characters
come from a signed coefficient extraction instead of border strips,
dimensions from hook lengths, decreasing-subsequence lengths from a
quadratic scan, induction values from splitting cycle types, sampled
matrices from the defining relations of their group, and the even
orthogonal mirror-pair character from cosine determinants alone.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import permutations

import numpy as np

from liemoments.groups import Family


@lru_cache(maxsize=None)
def frobenius_character(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """Irreducible character of S_k by coefficient extraction.

    chi_lam(mu) is the coefficient of x^(lam+delta) in the Vandermonde
    alternant times the power sum p_mu, over k variables with
    delta = (k-1, ..., 0).  The alternant contributes sign(sigma) at
    exponent sigma(delta), so the coefficient is a signed count of ways
    to split the remaining exponent vector among the parts of mu.
    """
    k = sum(lam)
    assert sum(mu) == k
    delta = tuple(range(k - 1, -1, -1))
    target = tuple((lam[i] if i < len(lam) else 0) + delta[i] for i in range(k))

    def assignments(parts: tuple[int, ...], budget: list[int]) -> int:
        # number of maps part-slot -> variable with the given column sums
        if not parts:
            return 1 if all(b == 0 for b in budget) else 0
        p, rest = parts[0], parts[1:]
        total = 0
        for i in range(k):
            if budget[i] >= p:
                budget[i] -= p
                total += assignments(rest, budget)
                budget[i] += p
        return total

    total = 0
    for perm in permutations(range(k)):
        residual = [target[i] - delta[perm[i]] for i in range(k)]
        if any(r < 0 for r in residual):
            continue
        count = assignments(mu, residual)
        if count:
            sign = perm_sign(perm)
            total += sign * count
    return total


def perm_sign(perm) -> int:
    seen = [False] * len(perm)
    sign = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def hook_dimension(lam: tuple[int, ...]) -> int:
    k = sum(lam)
    conj = [sum(1 for p in lam if p > i) for i in range(lam[0])] if lam else []
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= (row - j) + (conj[j] - i) - 1
    return math.factorial(k) // hooks


def is_horizontal_strip(lam: tuple[int, ...], mu: tuple[int, ...]) -> bool:
    """lam/mu is a horizontal strip: containment with interleaving rows."""
    padded_mu = tuple(mu) + (0,) * (len(lam) - len(mu))
    if len(mu) > len(lam):
        return False
    for i in range(len(lam)):
        if padded_mu[i] > lam[i]:
            return False
        if i + 1 < len(lam) and lam[i + 1] > padded_mu[i]:
            return False
    return True


def lds_quadratic(word) -> int:
    """Longest strictly decreasing subsequence, O(k^2) dynamic program."""
    best = [0] * len(word)
    out = 0
    for i, w in enumerate(word):
        best[i] = 1 + max((best[j] for j in range(i) if word[j] > w), default=0)
        out = max(out, best[i])
    return out


def cycle_type(perm) -> tuple[int, ...]:
    seen = [False] * len(perm)
    lengths = []
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def hyperoctahedral_induced_value(k: int, mu: tuple[int, ...]) -> int:
    """Value at class mu of the character induced from the trivial character
    of the stabilizer of the matching {(0,1), (2,3), ...}, by direct counting
    over S_k.  Feasible for k <= 6."""
    tau = list(range(k))
    for i in range(0, k, 2):
        tau[i], tau[i + 1] = tau[i + 1], tau[i]
    centralizer = []
    for perm in permutations(range(k)):
        if all(perm[tau[i]] == tau[perm[i]] for i in range(k)):
            centralizer.append(perm)
    in_class = sum(1 for perm in centralizer if cycle_type(perm) == tuple(mu))
    z_mu = centralizer_order(mu)
    value = z_mu * in_class / len(centralizer)
    assert value == int(value)
    return int(value)


def centralizer_order(mu) -> int:
    mults: dict[int, int] = {}
    for p in mu:
        mults[p] = mults.get(p, 0) + 1
    out = 1
    for i, a in mults.items():
        out *= i**a * math.factorial(a)
    return out


#: largest entrywise residual each group relation may show on a sampled matrix
RESIDUAL_LIMITS = {
    "unitarity": 1e-10,
    "symplectic": 1e-10,
    "orthogonality": 1e-10,
    "determinant": 1e-8,
}


def matrix_residuals(family: Family, mats: np.ndarray) -> dict[str, np.ndarray]:
    """Residual of each defining relation, one value per matrix of a stack:
    g g* = I for all; g J g^T = J with J = [[0,-I],[I,0]] for Sp(2n);
    g g^T = I and det g = 1 for SO(m)."""
    m = mats.shape[-1]
    eye = np.eye(m)

    def worst(diff):
        return np.max(np.abs(diff), axis=(1, 2))

    out = {"unitarity": worst(mats @ np.conj(np.swapaxes(mats, 1, 2)) - eye)}
    if family is Family.SP:
        n = m // 2
        j = np.zeros((m, m))
        j[:n, n:] = -np.eye(n)
        j[n:, :n] = np.eye(n)
        out["symplectic"] = worst(mats @ j @ np.swapaxes(mats, 1, 2) - j)
    else:
        out["orthogonality"] = worst(mats @ np.swapaxes(mats, 1, 2) - eye)
        out["determinant"] = np.abs(np.linalg.det(mats) - 1.0)
    return out


def orthogonal_mirror_sum(gamma: tuple[int, ...], angles: np.ndarray) -> np.ndarray:
    """Even orthogonal restriction character on a stack of half spectra:
    the sum of the two mirror images when the label has full length, the
    single character otherwise.

    Computed from the cosine determinants alone, so it does not depend on
    the signed (plus) evaluation or on the sine determinant.
    """
    n = angles.shape[1]
    parts = list(gamma) + [0] * (n - len(gamma))
    a = np.array([parts[j] + (n - 1 - j) for j in range(n)], dtype=float)
    bexp = np.array([n - 1 - j for j in range(n)], dtype=float)
    det_cos_a = np.linalg.det(np.cos(angles[:, :, None] * a[None, None, :]))
    det_cos_b = np.linalg.det(np.cos(angles[:, :, None] * bexp[None, None, :]))
    if np.any(np.abs(det_cos_b) < 1e-12):
        raise ValueError("Weyl denominator below the significance floor")
    scale = 2.0 if (len(gamma) == n and n > 0) else 1.0
    return scale * det_cos_a / det_cos_b
