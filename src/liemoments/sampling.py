"""Haar-distributed sampling and numerical evaluation on the compact groups.

Everything here is batch-first: matrices are drawn and processed in stacks
with vectorized linear algebra, and each sample's randomness comes from a
counter-based generator keyed by (seed, sample index), so a sample is a
pure function of those two integers no matter how work is scheduled.

Constructions:

  SO(m): QR of a real Gaussian matrix with the R-diagonal sign correction
  (multiply each column of Q by the sign of the matching R diagonal entry),
  which gives Haar on O(m); determinant -1 draws are pushed into SO(m) by
  swapping the first two columns, a measure-preserving right translation.

  Sp(2n): n complex Gaussian columns of height 2n orthonormalized together
  with their quaternionic partners T(v) = J conj(v), J = [[0,-I],[I,0]].
  A unitary matrix whose columns come in (v, J conj v) pairs commutes with
  the antiunitary map x -> J conj(x), and that is equivalent to the
  symplectic condition g J g^T = J for this J, so no basis change is needed
  afterwards.  Orthogonalization is two-pass classical Gram-Schmidt, whose
  residuals sit at rounding level (the tests hold them below 1e-10).
"""

from __future__ import annotations

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .groups import Family, GroupSpec
from .partitions import Partition

_MASK64 = (1 << 64) - 1


def rng_for_sample(seed: int, index: int) -> np.random.Generator:
    """Counter-based stream for one sample: Philox keyed by (seed, index)."""
    key = np.array([seed & _MASK64, index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# ---------------------------------------------------------------------------
# matrix construction


def _so_batch(m: int, rngs) -> np.ndarray:
    a = np.stack([rng.standard_normal((m, m)) for rng in rngs])
    q, r = np.linalg.qr(a)
    d = np.sign(np.diagonal(r, axis1=1, axis2=2)).copy()
    d[d == 0] = 1.0  # zero diagonal has probability 0; keep the column
    q = q * d[:, None, :]
    neg = np.linalg.det(q) < 0
    if np.any(neg):
        q[neg] = q[neg][:, :, [1, 0, *range(2, m)]]  # swap the first two columns
    return q


def _quaternion_partner(v: np.ndarray) -> np.ndarray:
    """Apply x -> J conj(x) columnwise; v has shape (batch, 2n)."""
    n = v.shape[-1] // 2
    out = np.empty_like(v)
    out[..., :n] = -np.conj(v[..., n:])
    out[..., n:] = np.conj(v[..., :n])
    return out


def _sp_batch(n: int, rngs) -> np.ndarray:
    b = len(rngs)
    dim = 2 * n
    v = np.empty((b, dim, n), dtype=np.complex128)
    for idx, rng in enumerate(rngs):
        v[idx] = rng.standard_normal((dim, n)) + 1j * rng.standard_normal((dim, n))
    g = np.zeros((b, dim, dim), dtype=np.complex128)
    for k in range(n):
        col = v[:, :, k]
        for _ in range(2):  # second pass scrubs the first pass's rounding
            if k > 0:
                basis = np.concatenate((g[:, :, :k], g[:, :, n : n + k]), axis=2)
                overlaps = np.einsum("bij,bi->bj", np.conj(basis), col)
                col = col - np.einsum("bij,bj->bi", basis, overlaps)
        norm = np.linalg.norm(col, axis=1, keepdims=True)
        # norm ~ 0 would mean 2k Gaussian vectors were linearly dependent
        # (probability 0).
        col = col / norm
        g[:, :, k] = col
        g[:, :, n + k] = _quaternion_partner(col)
    return g


def sample_matrices(G: GroupSpec, rngs) -> np.ndarray:
    """Draw one matrix per generator, stacked on axis 0."""
    if G.is_stable:
        raise ValueError("cannot sample the stable group; pick a finite rank")
    if G.family is Family.SP:
        return _sp_batch(G.rank, rngs)
    return _so_batch(G.matrix_size, rngs)


# ---------------------------------------------------------------------------
# spectra


def half_spectrum_batch(mats: np.ndarray, family: Family) -> tuple[np.ndarray, np.ndarray]:
    """Representative angles for a stack of matrices.

    Returns (angles of shape (batch, n) ascending, residual per matrix).
    The residual is the worst mismatch |t_a - conj(t_b)| over the claimed
    pairs; callers treat residual > tolerance as a degenerate draw.
    """
    ev = np.linalg.eigvals(mats)
    b, m = ev.shape
    if family is Family.SO_ODD:
        # one eigenvalue is forced to +1; drop the nearest per matrix
        drop = np.argmin(np.abs(ev - 1.0), axis=1)
        keep = np.ones((b, m), dtype=bool)
        keep[np.arange(b), drop] = False
        ev = ev[keep].reshape(b, m - 1)
        m -= 1
    theta = np.angle(ev)
    order = np.argsort(np.abs(theta), axis=1, kind="stable")
    ev = np.take_along_axis(ev, order, axis=1)
    theta = np.abs(np.take_along_axis(theta, order, axis=1))
    first, second = ev[:, 0::2], ev[:, 1::2]
    residual = np.max(np.abs(first - np.conj(second)), axis=1)
    angles = 0.5 * (theta[:, 0::2] + theta[:, 1::2])
    return angles, residual


# ---------------------------------------------------------------------------
# Weyl character evaluation on angles


def weyl_character_batch(
    family: Family,
    gamma: Partition,
    angles: np.ndarray,
    *,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> tuple[np.ndarray, np.ndarray]:
    """Character values on a stack of half spectra.

    Returns (complex values, degenerate mask).  Degenerate means the Weyl
    denominator fell below the configured floor, where the ratio loses all
    significance; callers resample those rows.
    """
    n = angles.shape[1]
    if gamma.length > n:
        raise ValueError(f"label {gamma} is longer than the rank {n}")
    parts = list(gamma.parts) + [0] * (n - gamma.length)

    if family is not Family.SO_EVEN:
        # symplectic and odd orthogonal: ratio of sine alternants, with the
        # odd orthogonal exponents shifted down by 1/2
        shift = 0.5 if family is Family.SO_ODD else 0.0
        a = np.array([parts[j] + n - j - shift for j in range(n)])
        bexp = np.array([n - j - shift for j in range(n)])
        num = np.linalg.det(np.sin(angles[:, :, None] * a[None, None, :]))
        den = np.linalg.det(np.sin(angles[:, :, None] * bexp[None, None, :]))
        bad = np.abs(den) < tolerances.denominator_min
        values = np.where(bad, 1.0, num / np.where(bad, 1.0, den)).astype(np.complex128)
        return values, bad

    # even orthogonal: signed character as (detCos + i^n detSin)/detCos
    a = np.array([parts[j] + (n - 1 - j) for j in range(n)], dtype=float)
    bexp = np.array([n - 1 - j for j in range(n)], dtype=float)
    det_cos_a = np.linalg.det(np.cos(angles[:, :, None] * a[None, None, :]))
    det_sin_a = np.linalg.det(np.sin(angles[:, :, None] * a[None, None, :]))
    det_cos_b = np.linalg.det(np.cos(angles[:, :, None] * bexp[None, None, :]))
    bad = np.abs(det_cos_b) < tolerances.denominator_min
    safe = np.where(bad, 1.0, det_cos_b)
    values = (det_cos_a + (1j**n) * det_sin_a) / safe
    return np.where(bad, 1.0, values), bad


# ---------------------------------------------------------------------------
# batched trace powers


def trace_powers_batch(mats: np.ndarray, pmax: int) -> tuple[np.ndarray, np.ndarray]:
    """Traces of g^i for i = 1..pmax over a stack; returns (real traces of
    shape (batch, pmax), worst imaginary residual per matrix)."""
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
