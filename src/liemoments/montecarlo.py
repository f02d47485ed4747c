"""Reproducible Monte Carlo estimators over the compact groups.

Estimates are deterministic functions of (seed, samples): sample i is drawn
from a counter-based stream keyed by (seed, i), chunks of consecutive
indices are processed with batched linear algebra, per-sample values land
in an index-ordered array, and the mean is taken over that array with
numpy's pairwise summation.  Worker count therefore cannot change any bit
of the result, only the wall time.

A worker takes one chunk of `CHUNK` samples at a time and makes its stream
handles and one workspace for it (`sampling._workspace`: a block's
normals, matrix stack, powers and traces in a single allocation).  It
then draws, checks and evaluates the chunk in consecutive blocks of
`_block_rows` samples in the workspace's first rows, writing each block's
values into the chunk's output.  So a worker holds the chunk's handles,
values and workspace plus QR's three block-sized temporaries, whatever
the matrix size.  The workspace is one allocation because glibc's malloc
trims its heap only above twice the largest mapping freed so far: once a
chunk's workspace is freed, QR's freed temporaries stay in the heap from
block to block instead of being faulted in again.  Each sample's values
depend only on its own draws, so the block size changes no bit either.

Every observable is one product, characters times power traces times Phi,
evaluated by `_Product.evaluate`; the public classes only name their
factors.

Degenerate draws (failed conjugate pairing, vanishing Weyl denominator,
complex trace residual) are redrawn from the same per-sample stream, which
preserves determinism; a run where more than 1% of samples ever needed a
redraw aborts, because that signals a broken configuration rather than
bad luck.  An observable whose values could overflow the stderr is
refused before the first draw (`_check_range`).
"""

from __future__ import annotations

import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, fields

import numpy as np

from . import config
from .errors import DegeneracyError
from .groups import Family, GroupSpec
from .partitions import Partition
from .sampling import (
    _workspace,
    half_spectrum_batch,
    rng_for_sample,
    sample_matrices,
    trace_powers_batch,
    weyl_character_batch,
)
from .szego import FourierData, weyl_dimension

CHUNK = 4096
#: bytes of each block-sized array (the normals, the matrix stack, each
#: power); with the 1024-sample cap, Sp(8) and SO(11) keep 1024-sample blocks
_BLOCK_BYTES = 1 << 20
MAX_RESAMPLE_ROUNDS = 12
DEGENERACY_BUDGET = 0.01
#: ln of the largest float; exp overflows beyond it
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    stderr: float
    samples: int
    seed: int


@dataclass(frozen=True)
class RatioEstimate:
    """Ratio of two means over shared samples, with a linearized stderr."""

    ratio: float
    stderr: float
    samples: int
    seed: int


class _Product:
    """An observable chi_{gamma_1} ... chi_{gamma_r} * prod_i tr(g^{lam_i}) * Phi.

    Every observable has this one shape, and a subclass only declares its
    factors as fields: `lam` for the power traces, `f` for Phi, and every
    other field (`gamma`, `mu`) for a character.  Its label is `kind` with
    the partition fields in brackets.  The value is multiplied from ones in
    that order: characters, power traces, then Phi.
    """

    kind: str
    lam = Partition()
    f: FourierData | None = None

    @property
    def char_labels(self) -> tuple[Partition, ...]:
        """Character labels with repeats, in field order."""
        return tuple(getattr(self, x.name) for x in fields(self) if x.name not in ("lam", "f"))

    @property
    def label(self) -> str:
        parts = [str(getattr(self, x.name)) for x in fields(self) if x.name != "f"]
        return f"{self.kind}[{';'.join(parts)}]" if parts else self.kind

    def max_power(self) -> int:
        support = self.f.support if self.f is not None else ()
        return max((*self.lam.parts, *support), default=0)

    def evaluate(self, rank: int, traces: np.ndarray, chars: dict) -> np.ndarray:
        """Per-sample values from the (batch, max power) real power traces
        and the character values by label."""
        out = np.ones(traces.shape[0])
        for lab in self.char_labels:
            out = out * chars[lab]
        for p in self.lam.parts:
            out = out * traces[:, p - 1]
        if self.f is not None:
            exponent = np.full(traces.shape[0], rank * float(self.f.c0))
            for i, c in self.f.terms:
                exponent = exponent + float(c) * traces[:, i - 1]
            out = out * np.exp(exponent)
        return out


@dataclass(frozen=True)
class TraceProductObservable(_Product):
    lam: Partition
    kind = "trace-product"


@dataclass(frozen=True)
class TwistedObservable(_Product):
    gamma: Partition
    lam: Partition
    kind = "twisted"


@dataclass(frozen=True)
class PhiObservable(_Product):
    f: FourierData
    kind = "phi"


@dataclass(frozen=True)
class TwistedPhiObservable(_Product):
    gamma: Partition
    f: FourierData
    kind = "twisted-phi"


@dataclass(frozen=True)
class CharacterProductObservable(_Product):
    """Product of two character values; the orthonormality probe."""

    gamma: Partition
    mu: Partition
    kind = "char-product"


def _block_rows(G: GroupSpec) -> int:
    """Samples per block: as many m x m matrices of the group's entry type
    (complex for Sp, real for SO) as fit in `_BLOCK_BYTES`, at most 1024
    and at least one: 1024 up to Sp(8) and SO(11), 163 for Sp(20), 40 for
    Sp(40) and 10 for Sp(80)."""
    itemsize = 16 if G.family is Family.SP else 8
    return max(1, min(1024, _BLOCK_BYTES // (itemsize * G.matrix_size**2)))


def _chunk_block(G, observables, seed, i0, i1, pmax, labels):
    """Values of samples [i0, i1), shape (num observables, i1 - i0), and the
    number of samples that needed a redraw, computed in blocks of
    `_block_rows(G)` samples that share one workspace."""
    rngs = [rng_for_sample(seed, i) for i in range(i0, i1)]
    rows = _block_rows(G)
    work = _workspace(G, min(rows, i1 - i0), pmax)
    out = np.empty((len(observables), i1 - i0))
    degenerate = 0
    for s in range(0, i1 - i0, rows):
        block = slice(s, s + rows)
        degenerate += _evaluate_block(
            G, observables, rngs[block], pmax, labels, out[:, block], work
        )
    return out, degenerate


def _evaluate_block(G, observables, rngs, pmax, labels, out, work) -> int:
    """Draw one matrix per handle into the workspace `work`, redraw the
    degenerate ones from their own streams until none is left, and write
    each observable's values into its row of `out`; returns how many
    samples were redrawn."""
    tolerances = config.DEFAULT_TOLERANCES
    mats = sample_matrices(G, rngs, work=work)
    ever_degenerate = np.zeros(len(rngs), dtype=bool)
    for _ in range(MAX_RESAMPLE_ROUNDS + 1):
        traces, imag = trace_powers_batch(mats, pmax, work=work)
        bad = imag > tolerances.trace_imag
        chars: dict[Partition, np.ndarray] = {}
        if labels:
            angles, residual = half_spectrum_batch(mats, G.family)
            bad = bad | (residual > tolerances.pairing)
            for lab in labels:
                values, cbad = weyl_character_batch(G.family, lab, angles)
                bad = bad | cbad
                chars[lab] = values
        if not bad.any():
            for row, obs in zip(out, observables):
                row[:] = obs.evaluate(G.rank, traces, chars)
            return int(ever_degenerate.sum())
        ever_degenerate |= bad
        idx = np.nonzero(bad)[0]
        mats[idx] = sample_matrices(G, [rngs[i] for i in idx])  # new arrays, not `work`'s
    raise DegeneracyError(
        f"samples [{rngs[0].index},{rngs[-1].index + 1}) still degenerate "
        f"after {MAX_RESAMPLE_ROUNDS} redraw rounds"
    )


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one (a CPU-limited container or `taskset`), else the
    machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _check_range(G: GroupSpec, obs: _Product, samples: int) -> None:
    """Refuse an observable whose estimate could overflow, before any draw.

    Each value is at most B = prod_gamma dim(gamma) * m^l(lam) * exp(E) in
    size, since |chi_gamma| <= dim(gamma), |tr g^p| <= m for matrix size m
    and |log Phi| <= E = n|c0| + m sum_i |c_i|.  The stderr sums `samples`
    squared deviations from the mean, each at most (2B)^2, so that sum
    stays finite when 2 ln(2B) + ln(samples) <= ln of the largest float.
    """
    n, m = G.rank, G.matrix_size
    log_scale = obs.lam.length * math.log(m) + sum(
        math.log(weyl_dimension(G.family, n, lab)) for lab in obs.char_labels
    )
    room = (_LOG_FLOAT_MAX - math.log(samples)) / 2 - math.log(2) - log_scale
    f = obs.f
    exponent = n * abs(f.c0) + m * sum(abs(c) for _, c in f.terms) if f is not None else 0
    if exponent > room:
        raise ValueError(
            f"{obs.label} is too large to estimate on {G} from {samples} samples: "
            f"its stderr squares the values, which needs n|c0| + m*sum|c_i| <= {room:.6g}"
        )


def sample_values(
    G: GroupSpec,
    observables,
    samples: int,
    seed: int,
    *,
    threads: int | None = None,
) -> np.ndarray:
    """Per-sample observable values, shape (num observables, samples), in
    sample-index order.  All observables share the same draws."""
    observables = list(observables)
    if samples < 100:
        raise ValueError(f"at least 100 samples required, got {samples}")
    if threads is not None and threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    if G.is_stable:
        raise ValueError("cannot sample the stable group; pick a finite rank")
    # each label's length is checked by `_check_range` through weyl_dimension
    labels = list(dict.fromkeys(lab for obs in observables for lab in obs.char_labels))
    for obs in observables:
        _check_range(G, obs, samples)
    pmax = max((obs.max_power() for obs in observables), default=0)

    values = np.empty((len(observables), samples))
    ranges = [(i, min(i + CHUNK, samples)) for i in range(0, samples, CHUNK)]
    degenerate = 0

    def work(span):
        i0, i1 = span
        return i0, i1, _chunk_block(G, observables, seed, i0, i1, pmax, labels)

    workers = min(threads or _usable_cpus(), len(ranges))
    with ThreadPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        mapper = pool.map if pool else map
        for i0, i1, (block, ndeg) in mapper(work, ranges):
            values[:, i0:i1] = block
            degenerate += ndeg

    if degenerate > DEGENERACY_BUDGET * samples:
        raise DegeneracyError(
            f"{degenerate} of {samples} samples hit numerical degeneracy "
            f"(budget {DEGENERACY_BUDGET:.0%}); check rank and labels"
        )
    return values


def estimate_many(
    G: GroupSpec,
    observables,
    samples: int,
    seed: int,
    *,
    threads: int | None = None,
) -> list[MCEstimate]:
    """One estimate per observable, all from the same shared sample set."""
    observables = list(observables)
    values = sample_values(G, observables, samples, seed, threads=threads)
    out = []
    for row in values:
        mean = float(np.mean(row))
        stderr = float(np.std(row, ddof=1) / np.sqrt(samples))
        out.append(MCEstimate(mean=mean, stderr=stderr, samples=samples, seed=seed))
    return out


def estimate(
    G: GroupSpec,
    observable,
    samples: int,
    seed: int,
    *,
    threads: int | None = None,
) -> MCEstimate:
    return estimate_many(G, [observable], samples, seed, threads=threads)[0]


def estimate_ratio(
    G: GroupSpec,
    numerator,
    denominator,
    samples: int,
    seed: int,
    *,
    threads: int | None = None,
) -> RatioEstimate:
    """Ratio of means over shared samples; stderr by the delta method with
    the empirical covariance, which accounts for the strong correlation
    between numerator and denominator."""
    values = sample_values(G, [numerator, denominator], samples, seed, threads=threads)
    num, den = values
    mean_n = float(np.mean(num))
    mean_d = float(np.mean(den))
    if mean_d == 0.0:
        raise ZeroDivisionError("denominator observable has zero sample mean")
    cov = np.cov(num, den, ddof=1)
    var = (
        cov[0, 0] / mean_d**2
        + mean_n**2 * cov[1, 1] / mean_d**4
        - 2.0 * mean_n * cov[0, 1] / mean_d**3
    ) / samples
    return RatioEstimate(
        ratio=mean_n / mean_d,
        stderr=float(np.sqrt(max(var, 0.0))),
        samples=samples,
        seed=seed,
    )
