"""Haar-distributed sampling and numerical evaluation on the compact groups.

Everything here is batch-first: matrices are drawn and processed in stacks
with vectorized linear algebra, and each sample's randomness comes from a
counter-based generator keyed by (seed, sample index), so a sample is a
pure function of those two integers no matter how work is scheduled.

Stream contract: the r-th draw of sample i reads the next standard normals
of numpy's Philox keyed by (seed mod 2^64, i mod 2^64) with counter zero,
exactly as a fresh `Generator(Philox(key=...))` would give them; a redraw
continues the same stream after the normals earlier draws took.
`rng_for_sample` returns a handle (seed, index, normals used), not a
Generator; each batch draw re-keys one Philox per handle, which is about
ten times cheaper than building a Generator per sample.

Constructions, both from one QR with the R-diagonal phase fix (Mezzadri,
"How to generate random matrices from the classical compact groups",
Notices AMS 54, 2007): scaling each column of Q by the phase of the
matching R diagonal entry turns the QR of a Gaussian matrix into a Haar
draw.  A batch is one block of a Monte Carlo chunk (`montecarlo`), which
bounds its bytes, so QR, which holds about four copies of its input, runs
on the whole batch at once.  The draw and the trace powers write into the
arrays of a workspace (`_workspace`) when given one, so the blocks of a
chunk reuse one allocation; without one they allocate their own.

  SO(m): QR of a real Gaussian matrix, where the phase is the sign; this
  gives Haar on O(m), and determinant -1 draws are pushed into SO(m) by
  swapping the first two columns, a measure-preserving right translation.

  Sp(2n): n complex Gaussian columns v_k of height 2n, interleaved with
  their quaternionic partners T(v) = J conj(v), J = [[0,-I],[I,0]], as
  [v_0, T v_0, v_1, T v_1, ...].  The span of the first 2k columns is
  closed under T, so column 2k of the phase-fixed Q is v_k orthonormalized
  against {c_j, T c_j : j < k}; these are the c_k.  A unitary matrix whose
  columns come in (c, T c) pairs commutes with the antiunitary map
  x -> J conj(x), which for this J is the symplectic condition
  g J g^T = J, so g = [c_0 .. c_{n-1}, T c_0 .. T c_{n-1}] needs no basis
  change.  The partner half is built exactly from the c_k rather than
  taken from Q's odd columns, so g has the quaternion block structure bit
  for bit and tr g^k is real to rounding.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from . import config
from .groups import Family, GroupSpec, weyl_exponents
from .partitions import Partition

_MASK64 = (1 << 64) - 1


@dataclass(slots=True)
class SampleStream:
    """Handle on one sample's stream: Philox keyed by (seed, index), of
    which the first `used` normals have been read."""

    seed: int
    index: int
    used: int = 0


def rng_for_sample(seed: int, index: int) -> SampleStream:
    """Stream handle for one sample; reading it costs nothing until a draw."""
    return SampleStream(seed, index)


def _workspace(G: GroupSpec, rows: int, pmax: int) -> dict[str, np.ndarray]:
    """The arrays that the draws and trace powers of up to `rows` samples
    write into, as views of one allocation: the "normals", the "stack" (Sp
    only; SO writes its QR over the normals), the powers "power2" ..
    "power<h>" that `trace_powers_batch` forms for traces up to g^pmax, and
    its complex "traces".  A block of b <= rows samples uses the first b
    rows of each."""
    m, sp = G.matrix_size, G.family is Family.SP
    entry = np.complex128 if sp else np.float64
    shapes = {"normals": ((rows, 2, m, G.rank) if sp else (rows, m, m), np.float64)}
    if sp:
        shapes["stack"] = ((rows, m, m), entry)
    for k in range(2, (pmax + 1) // 2 + 1):
        shapes[f"power{k}"] = ((rows, m, m), entry)
    shapes["traces"] = ((rows, pmax), np.complex128)
    sizes = [math.prod(shape) * np.dtype(dtype).itemsize for shape, dtype in shapes.values()]
    starts = np.cumsum([0] + [-(-size // 64) * 64 for size in sizes])  # whole cache lines each
    memory = np.empty(starts[-1], np.uint8)
    return {
        name: memory[start : start + size].view(dtype).reshape(shape)
        for (name, (shape, dtype)), start, size in zip(shapes.items(), starts, sizes)
    }


def _buffer(work, name, shape, dtype) -> np.ndarray:
    """A new array of `shape`, or without one the first rows of the
    workspace's array `name`."""
    return np.empty(shape, dtype) if work is None else work[name][: shape[0]]


#: serializes the row loop of `_normals` across threads
_NORMALS_LOCK = threading.Lock()


def _normals(streams, shape, work=None) -> np.ndarray:
    """The next normals of each stream, stacked to (len(streams), *shape),
    in the normals of the workspace `work` when one is given.

    One Philox per call is re-keyed to each stream in turn (counter zero,
    empty buffer), skips the normals that stream already gave, and fills
    its row.  Calls share no generator state, so the bits do not depend on
    which thread makes them.  Each row's `standard_normal` gives up and
    retakes the interpreter lock, so two threads filling side by side hand
    it back and forth and run slower than one; the row loop therefore holds
    a process-wide lock and runs as one block, while other threads' QR and
    matrix products, which release the interpreter lock, still overlap it.
    """
    bitgen = np.random.Philox(key=0)
    rng = np.random.Generator(bitgen)
    state = bitgen.state
    key = state["state"]["key"]
    out = _buffer(work, "normals", (len(streams), *shape), np.float64)
    with _NORMALS_LOCK:
        for row, stream in zip(out, streams):
            key[0] = stream.seed & _MASK64
            key[1] = stream.index & _MASK64
            bitgen.state = state
            if stream.used:
                rng.standard_normal(stream.used)
            rng.standard_normal(out=row)
            stream.used += row.size
    return out


# ---------------------------------------------------------------------------
# matrix construction


def _haar_qr(a: np.ndarray) -> np.ndarray:
    """Q of a stack of Gaussian matrices, each column scaled by the phase of
    the matching R diagonal entry, written over `a`: Haar on O(m) for real
    input and on U(m) for complex.  For real input the phase is the sign."""
    q, r = np.linalg.qr(a)
    d = np.diagonal(r, axis1=1, axis2=2)
    size = np.abs(d)
    zero = size == 0  # probability 0; keep the column
    phase = np.where(zero, 1.0, d / np.where(zero, 1.0, size))
    np.multiply(q, phase[:, None, :], out=a)
    return a


def _so_batch(m: int, streams, work) -> np.ndarray:
    q = _haar_qr(_normals(streams, (m, m), work))
    neg = np.linalg.det(q) < 0
    if np.any(neg):
        q[neg, :, 0], q[neg, :, 1] = q[neg, :, 1], q[neg, :, 0]  # swap the first two columns
    return q


def _fill_partners(src: np.ndarray, dst: np.ndarray) -> None:
    """Write J conj(x) of each column x of `src` (shape (batch, 2n, k)) into
    `dst`, exactly: [-conj(x_bottom); conj(x_top)]."""
    n = src.shape[1] // 2
    top = dst[:, :n]
    np.conj(src[:, n:], out=top)
    np.negative(top, out=top)
    np.conj(src[:, :n], out=dst[:, n:])


def _sp_batch(n: int, streams, work) -> np.ndarray:
    dim = 2 * n
    z = _normals(streams, (2, dim, n), work)  # real parts, then imaginary parts
    a = _buffer(work, "stack", (len(streams), dim, dim), np.complex128)
    v = a[:, :, 0::2]
    v.real = z[:, 0]
    v.imag = z[:, 1]
    del z
    _fill_partners(v, a[:, :, 1::2])  # [v_0, J conj v_0, v_1, J conj v_1, ...]
    _haar_qr(a)
    a[:, :, :n] = a[:, :, 0::2]  # the c_k; numpy copies the overlapping source first
    _fill_partners(a[:, :, :n], a[:, :, n:])
    return a


def sample_matrices(G: GroupSpec, streams, *, work=None) -> np.ndarray:
    """Draw one matrix per stream handle, stacked on axis 0; a handle drawn
    from again continues its stream, which is how redraws stay
    deterministic.  Given a workspace `work` (`_workspace`), the draw is
    written into its arrays, and the next draw into it overwrites it."""
    if G.is_stable:
        raise ValueError("cannot sample the stable group; pick a finite rank")
    if G.family is Family.SP:
        return _sp_batch(G.rank, streams, work)
    return _so_batch(G.matrix_size, streams, work)


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
    family: Family, gamma: Partition, angles: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Character values on a stack of half spectra, by the Weyl character
    formula with the exponents and mirror factor of `weyl_exponents`.

    Returns (real values, degenerate mask).  Degenerate means the Weyl
    denominator fell below the constant floor
    `config.DEFAULT_TOLERANCES.denominator_min`, where the ratio loses all
    significance; callers resample those rows.
    """
    a, b, mirror = weyl_exponents(family, angles.shape[1], gamma)
    trig = np.cos if family is Family.SO_EVEN else np.sin
    num = np.linalg.det(trig(angles[:, :, None] * np.array(a, dtype=float)))
    den = np.linalg.det(trig(angles[:, :, None] * np.array(b, dtype=float)))
    bad = np.abs(den) < config.DEFAULT_TOLERANCES.denominator_min
    return np.where(bad, 1.0, mirror * num / np.where(bad, 1.0, den)), bad


# ---------------------------------------------------------------------------
# batched trace powers


def trace_powers_batch(mats: np.ndarray, pmax: int, *, work=None) -> tuple[np.ndarray, np.ndarray]:
    """Traces of g^i for i = 1..pmax over a stack; returns (real traces of
    shape (batch, pmax), worst imaginary residual per matrix).  Given a
    workspace `work`, the powers and the complex traces are its arrays.

    Only g, g^2, ..., g^h with h = ceil(pmax/2) are formed by matrix
    products.  A higher power k takes tr g^k = tr(g^h g^(k-h)), the sum of
    (g^h)_ij (g^(k-h))_ji, which costs O(m^2) per matrix instead of a
    product's O(m^3); the traces agree with repeated products to rounding.
    """
    b = mats.shape[0]
    if pmax <= 0:
        return np.zeros((b, 0)), np.zeros(b)
    h = (pmax + 1) // 2
    powers = [mats]
    for k in range(2, h + 1):
        power = _buffer(work, f"power{k}", mats.shape, mats.dtype)
        powers.append(np.matmul(powers[-1], mats, out=power))
    out = _buffer(work, "traces", (b, pmax), np.complex128)  # column k: tr g^(k+1)
    for k, power in enumerate(powers):
        out[:, k] = np.trace(power, axis1=1, axis2=2)
    for k in range(h, pmax):
        out[:, k] = np.einsum("bij,bji->b", powers[-1], powers[k - h])
    return out.real.copy(), np.max(np.abs(out.imag), axis=1)
