"""Independent reference implementations used to check the package.

Everything here deliberately avoids the algorithms under test: characters
come from a signed coefficient extraction instead of border strips,
dimensions from hook lengths, decreasing-subsequence lengths from a
quadratic scan, induction values from splitting cycle types, sampled
matrices from the defining relations of their group, Sp(2n) draws by
quaternionic Gram-Schmidt instead of QR, power traces from repeated
matrix products instead of split products, per-sample random
streams from a Generator built afresh for each sample, and Haar averages
from the Weyl integration formula on the maximal torus, with the even
orthogonal mirror sum taken as an elementary symmetric function of the
eigenvalues instead of a ratio of Weyl determinants, characters at
labels longer than the rank from the Koike-Terada determinants instead of
King's modification rule, and dimensions from Weyl's product formula
instead of a determinant at the identity.
"""

from __future__ import annotations

import math
from fractions import Fraction
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


def z(lam) -> int:
    """Order of the centralizer in the symmetric group of a permutation of
    cycle type lam (a Partition): the product over parts i of
    i**mult(i) * mult(i)!."""
    return math.prod(i**m * math.factorial(m) for i, m in lam.multiplicities().items())


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


def reference_generator(seed: int, index: int) -> np.random.Generator:
    """Sample `index`'s stream as a Generator of its own: Philox keyed by
    (seed, index) reduced mod 2^64, the construction the sampler re-keys."""
    mask = (1 << 64) - 1
    key = np.array([seed & mask, index & mask], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sp_gram_schmidt(n: int, streams) -> np.ndarray:
    """Haar draws on Sp(2n) by quaternionic Gram-Schmidt, one per stream
    handle, reading the same normals the sampler reads.

    n complex Gaussian columns of height 2n are orthonormalized together
    with their quaternionic partners T(v) = J conj(v), J = [[0,-I],[I,0]]:
    column k is v_k with its components along c_j and T(c_j), j < k,
    removed, then normalized.  A unitary matrix whose columns come in
    (c, T c) pairs commutes with the antiunitary map x -> J conj(x), which
    is the symplectic condition g J g^T = J for this J.  Orthogonalization
    is two-pass classical Gram-Schmidt, whose residuals sit at rounding
    level.
    """
    dim = 2 * n
    z = np.empty((len(streams), 2, dim, n))
    for row, stream in zip(z, streams):
        rng = reference_generator(stream.seed, stream.index)
        if stream.used:
            rng.standard_normal(stream.used)
        rng.standard_normal(out=row)
        stream.used += row.size
    v = z[:, 0] + 1j * z[:, 1]
    del z

    def partner(x):
        out = np.empty_like(x)
        out[..., :n] = -np.conj(x[..., n:])
        out[..., n:] = np.conj(x[..., :n])
        return out

    g = np.zeros((len(streams), dim, dim), dtype=np.complex128)
    for k in range(n):
        col = v[:, :, k]
        for _ in range(2):  # second pass scrubs the first pass's rounding
            if k > 0:
                basis = np.concatenate((g[:, :, :k], g[:, :, n : n + k]), axis=2)
                overlaps = np.einsum("bij,bi->bj", np.conj(basis), col)
                col = col - np.einsum("bij,bj->bi", basis, overlaps)
        col = col / np.linalg.norm(col, axis=1, keepdims=True)
        g[:, :, k] = col
        g[:, :, n + k] = partner(col)
    return g


def trace_powers_repeated(mats: np.ndarray, pmax: int) -> tuple[np.ndarray, np.ndarray]:
    """Traces of g^i for i = 1..pmax by pmax - 1 repeated matrix products;
    returns (real traces of shape (batch, pmax), worst imaginary residual
    per matrix), the outputs of `sampling.trace_powers_batch`."""
    b = mats.shape[0]
    if pmax <= 0:
        return np.zeros((b, 0)), np.zeros(b)
    out = np.empty((b, pmax), dtype=np.complex128)
    power = mats
    out[:, 0] = np.trace(power, axis1=1, axis2=2)
    for i in range(1, pmax):
        power = power @ mats
        out[:, i] = np.trace(power, axis1=1, axis2=2)
    return out.real.copy(), np.max(np.abs(out.imag), axis=1)


def torus_average(
    family: Family, n: int, lam: tuple[int, ...], *, twist_en: bool = False
) -> float:
    """Haar average of prod_i tr(g^{lam_i}) over Sp(2n), SO(2n) or SO(2n+1),
    optionally times e_n of the 2n eigenvalues e^{+-i theta_j}, by the Weyl
    integration formula on the maximal torus.

    The density is prod_{i<j} (cos theta_i - cos theta_j)^2, times
    prod sin^2 theta_i for Sp and prod sin^2(theta_i / 2) for SO(2n+1).
    Every factor is a trigonometric polynomial, of degree at most
    2n + |lam| + 1 in each angle, so the trapezoid rule with more points per
    axis than that is exact up to rounding.  On SO(2n), e_n is the O(2n)
    character of (1^n) restricted, i.e. the sum of the two mirror-image
    irreducibles, and no Weyl determinant enters.
    """
    points = 2 * n + sum(lam) + 2
    grid = 2 * np.pi * np.arange(points) / points
    theta = np.meshgrid(*[grid] * n, indexing="ij", sparse=True)
    cos = [np.cos(t) for t in theta]
    density = np.ones((points,) * n)
    for i in range(n):
        for j in range(i + 1, n):
            density = density * (cos[i] - cos[j]) ** 2
    for c in cos:
        if family is Family.SP:
            density = density * (1.0 - c * c)
        elif family is Family.SO_ODD:
            density = density * (1.0 - c)  # 2 sin^2(theta/2); constants cancel
    value = density
    fixed = 1.0 if family is Family.SO_ODD else 0.0
    for k in lam:
        value = value * (fixed + sum(2.0 * np.cos(k * t) for t in theta))
    if twist_en:
        # coefficient of x^n in prod_j (1 + 2 cos(theta_j) x + x^2)
        e = [1.0] + [0.0] * n
        for c in cos:
            e = [e[0]] + [
                e[r] + 2.0 * c * e[r - 1] + (e[r - 2] if r >= 2 else 0.0)
                for r in range(1, n + 1)
            ]
        value = value * e[n]
    return float(value.sum() / density.sum())


def weyl_twisted_average(
    family: Family, n: int, gamma: tuple[int, ...], lam: tuple[int, ...]
) -> float:
    """Haar average of chi_gamma(g) * prod_i tr(g^{lam_i}) over Sp(2n), SO(2n)
    or SO(2n+1) by the Weyl integration formula: the torus sum of
    num * den * p_lam over the torus sum of den^2.

    num and den are the Weyl determinants det trig(e_j theta_i) at the
    exponents e = gamma + rho and e = rho, with rho_j = n - j + 1, n - j + 1/2
    and n - j on Sp, SO(2n+1) and SO(2n), and trig = cos on SO(2n), sin
    otherwise.  den^2 is the Haar density up to a constant, and num / den is
    the character, or on SO(2n) half the mirror sum for a label of full
    length, which is doubled here.  Every factor is a trigonometric
    polynomial whose degree per angle is below the 2n + |lam| + gamma_1 + 3
    grid points, so the trapezoid rule is exact up to rounding.
    """
    points = 2 * n + sum(lam) + (gamma[0] if gamma else 0) + 3
    grid = 2 * np.pi * np.arange(points) / points
    theta = np.meshgrid(*[grid] * n, indexing="ij", sparse=True)
    num, den = _weyl_alternants(family, n, gamma, theta)
    value = num * den
    fixed = 1.0 if family is Family.SO_ODD else 0.0
    for k in lam:
        value = value * (fixed + sum(2.0 * np.cos(k * t) for t in theta))
    mirror = 2 if family is Family.SO_EVEN and len(gamma) == n else 1
    return mirror * float(value.sum() / (den * den).sum())


def _weyl_alternants(family: Family, n: int, gamma: tuple[int, ...], theta):
    """The Weyl determinants (num, den) of `weyl_twisted_average` at the
    angles theta, one array or number per angle."""
    shift = {Family.SP: 1.0, Family.SO_ODD: 0.5, Family.SO_EVEN: 0.0}[family]
    rho = [n - 1 - j + shift for j in range(n)]
    trig = np.cos if family is Family.SO_EVEN else np.sin

    def alternant(exponents):
        total = 0.0
        for perm in permutations(range(n)):
            term = perm_sign(perm)
            for i, j in enumerate(perm):
                term = term * trig(exponents[j] * theta[i])
            total = total + term
        return total

    parts = list(gamma) + [0] * (n - len(gamma))
    return alternant([p + r for p, r in zip(parts, rho)]), alternant(rho)


def weyl_character(family: Family, n: int, gamma: tuple[int, ...], theta) -> float:
    """Character of the label gamma, l(gamma) <= n, at the torus angles
    theta: num / den of `weyl_twisted_average`, doubled on SO(2n) for a
    full-length label, so that it is the O(2n) character restricted."""
    num, den = _weyl_alternants(family, n, gamma, theta)
    mirror = 2 if family is Family.SO_EVEN and len(gamma) == n else 1
    return mirror * num / den


def weyl_product_dimension(family: Family, n: int, gamma: tuple[int, ...]) -> int:
    """Dimension of the label gamma, l(gamma) <= n, by Weyl's product formula
    over the exponents a = gamma + rho and rho of `weyl_twisted_average`:
    prod_{i<j} (a_i^2 - a_j^2) / (rho_i^2 - rho_j^2), times prod a_i / rho_i
    except on SO(2n), and doubled on SO(2n) for a label of full length."""
    shift = {Family.SP: 1, Family.SO_ODD: Fraction(1, 2), Family.SO_EVEN: 0}[family]
    rho = [n - 1 - j + shift for j in range(n)]
    a = [p + r for p, r in zip(list(gamma) + [0] * (n - len(gamma)), rho)]
    value = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            value *= Fraction(a[i] ** 2 - a[j] ** 2) / (rho[i] ** 2 - rho[j] ** 2)
        if family is not Family.SO_EVEN:
            value *= Fraction(a[i]) / rho[i]
    mirror = 2 if family is Family.SO_EVEN and len(gamma) == n else 1
    assert value.denominator == 1, (family, n, gamma, value)
    return mirror * int(value)


def koike_terada_character(family: Family, n: int, delta: tuple[int, ...], theta) -> complex:
    """Universal character of the label delta, of any length, at the torus
    angles theta of the group of rank n, by the Koike-Terada determinants
    (J. Algebra 107, 1987) in the complete symmetric functions h_k of the
    eigenvalues e^{+-i theta_j} (and 1 on SO(2n+1)):
    sp_delta = det(h_{d_i - i + 1} | h_{d_i - i + j} + h_{d_i - i - j + 2})
    and o_delta = det(h_{d_i - i + j} - h_{d_i - i - j}), i, j = 1..l."""
    eigen = [np.exp(s * 1j * t) for t in theta for s in (1, -1)]
    eigen += [1.0] if family is Family.SO_ODD else []
    ell = len(delta)
    top = (delta[0] if delta else 0) + ell
    h = np.zeros(top + 1, dtype=complex)
    h[0] = 1.0
    for x in eigen:  # times 1 / (1 - x t), one eigenvalue at a time
        for d in range(1, top + 1):
            h[d] += x * h[d - 1]

    def hk(d):
        return h[d] if 0 <= d <= top else 0.0

    mat = np.empty((ell, ell), dtype=complex)
    for i in range(ell):
        a = delta[i] - i - 1  # d_i - i, 1-based i
        for j in range(ell):
            if family is Family.SP:
                mat[i, j] = hk(a + 1) if j == 0 else hk(a + j + 1) + hk(a - j + 1)
            else:
                mat[i, j] = hk(a + j + 1) - hk(a - j - 1)
    return complex(np.linalg.det(mat)) if ell else 1.0
