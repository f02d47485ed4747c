"""Reproducible Monte Carlo estimators over the compact groups.

Estimates are deterministic functions of (seed, samples): sample i is drawn
from a counter-based stream keyed by (seed, i), chunks of consecutive
indices are processed with batched linear algebra, per-sample values land
in an index-ordered array, and the mean is taken over that array with
numpy's pairwise summation.  Worker count therefore cannot change any bit
of the result, only the wall time.

Degenerate draws (failed conjugate pairing, vanishing Weyl denominator,
complex trace residual) are redrawn from the same per-sample stream, which
preserves determinism; a run where more than 1% of samples ever needed a
redraw aborts, because that signals a broken configuration rather than
bad luck.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import DegeneracyError
from .groups import GroupSpec
from .partitions import Partition
from .sampling import (
    half_spectrum_batch,
    rng_for_sample,
    sample_matrices,
    trace_powers_batch,
    weyl_character_batch,
)
from .szego import FourierData

CHUNK = 4096
MAX_RESAMPLE_ROUNDS = 12
DEGENERACY_BUDGET = 0.01


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


@dataclass
class _EvalContext:
    group: GroupSpec
    traces: np.ndarray  # (batch, pmax) real
    chars: dict[Partition, np.ndarray] = field(default_factory=dict)


@dataclass(frozen=True)
class TraceProductObservable:
    lam: Partition

    @property
    def label(self) -> str:
        return f"trace-product[{self.lam}]"

    def max_power(self) -> int:
        return self.lam.parts[0] if self.lam else 0

    def characters(self) -> tuple[Partition, ...]:
        return ()

    def evaluate(self, ctx: _EvalContext) -> np.ndarray:
        out = np.ones(ctx.traces.shape[0])
        for p in self.lam.parts:
            out = out * ctx.traces[:, p - 1]
        return out


@dataclass(frozen=True)
class TwistedObservable:
    gamma: Partition
    lam: Partition

    @property
    def label(self) -> str:
        return f"twisted[{self.gamma};{self.lam}]"

    def max_power(self) -> int:
        return self.lam.parts[0] if self.lam else 0

    def characters(self) -> tuple[Partition, ...]:
        return (self.gamma,)

    def evaluate(self, ctx: _EvalContext) -> np.ndarray:
        out = ctx.chars[self.gamma].real.copy()
        for p in self.lam.parts:
            out = out * ctx.traces[:, p - 1]
        return out


@dataclass(frozen=True)
class PhiObservable:
    f: FourierData

    @property
    def label(self) -> str:
        return "phi"

    def max_power(self) -> int:
        support = self.f.support
        return support[-1] if support else 0

    def characters(self) -> tuple[Partition, ...]:
        return ()

    def evaluate(self, ctx: _EvalContext) -> np.ndarray:
        exponent = np.full(ctx.traces.shape[0], ctx.group.rank * float(self.f.c0))
        for i, c in self.f.coeffs.items():
            exponent = exponent + float(c) * ctx.traces[:, i - 1]
        return np.exp(exponent)


@dataclass(frozen=True)
class TwistedPhiObservable:
    gamma: Partition
    f: FourierData

    @property
    def label(self) -> str:
        return f"twisted-phi[{self.gamma}]"

    def max_power(self) -> int:
        support = self.f.support
        return support[-1] if support else 0

    def characters(self) -> tuple[Partition, ...]:
        return (self.gamma,)

    def evaluate(self, ctx: _EvalContext) -> np.ndarray:
        return ctx.chars[self.gamma].real * PhiObservable(self.f).evaluate(ctx)


@dataclass(frozen=True)
class CharacterProductObservable:
    """Product of two character values; the orthonormality probe."""

    gamma: Partition
    mu: Partition

    @property
    def label(self) -> str:
        return f"char-product[{self.gamma};{self.mu}]"

    def max_power(self) -> int:
        return 0

    def characters(self) -> tuple[Partition, ...]:
        return (self.gamma, self.mu) if self.gamma != self.mu else (self.gamma,)

    def evaluate(self, ctx: _EvalContext) -> np.ndarray:
        return ctx.chars[self.gamma].real * ctx.chars[self.mu].real


def _chunk_block(G, observables, seed, i0, i1, pmax, labels, tolerances):
    batch = i1 - i0
    rngs = [rng_for_sample(seed, i) for i in range(i0, i1)]
    mats = sample_matrices(G, rngs)
    ever_degenerate = np.zeros(batch, dtype=bool)
    for _ in range(MAX_RESAMPLE_ROUNDS + 1):
        if pmax:
            traces, imag = trace_powers_batch(mats, pmax)
            bad = imag > tolerances.trace_imag
        else:
            traces = np.zeros((batch, 0))
            bad = np.zeros(batch, dtype=bool)
        chars: dict[Partition, np.ndarray] = {}
        if labels:
            angles, residual = half_spectrum_batch(mats, G.family)
            bad = bad | (residual > tolerances.pairing)
            for lab in labels:
                values, cbad = weyl_character_batch(
                    G.family, lab, angles, tolerances=tolerances
                )
                bad = bad | cbad
                chars[lab] = values
        if not bad.any():
            ctx = _EvalContext(group=G, traces=traces, chars=chars)
            block = np.stack([obs.evaluate(ctx) for obs in observables])
            return block, int(ever_degenerate.sum())
        ever_degenerate |= bad
        idx = np.nonzero(bad)[0]
        mats[idx] = sample_matrices(G, [rngs[i] for i in idx])
    raise DegeneracyError(
        f"chunk [{i0},{i1}) still degenerate after {MAX_RESAMPLE_ROUNDS} redraw rounds"
    )


def sample_values(
    G: GroupSpec,
    observables,
    samples: int,
    seed: int,
    *,
    threads: int | None = None,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> np.ndarray:
    """Per-sample observable values, shape (num observables, samples), in
    sample-index order.  All observables share the same draws."""
    observables = list(observables)
    if samples < 100:
        raise ValueError(f"at least 100 samples required, got {samples}")
    if G.is_stable:
        raise ValueError("cannot sample the stable group; pick a finite rank")
    n = G.rank
    labels: list[Partition] = []
    for obs in observables:
        for lab in obs.characters():
            if lab.length > n:
                raise ValueError(f"character label {lab} is longer than the rank {n}")
            if lab not in labels:
                labels.append(lab)
    pmax = max((obs.max_power() for obs in observables), default=0)

    values = np.empty((len(observables), samples))
    ranges = [(i, min(i + CHUNK, samples)) for i in range(0, samples, CHUNK)]
    degenerate = 0

    def work(span):
        i0, i1 = span
        return i0, i1, _chunk_block(
            G, observables, seed, i0, i1, pmax, labels, tolerances
        )

    workers = threads if threads is not None else (os.cpu_count() or 1)
    workers = max(1, min(workers, len(ranges)))
    with ThreadPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        mapper = pool.map if pool else map
        for i0, i1, (block, ndeg) in mapper(work, ranges):
            values[:, i0:i1] = block
            degenerate += ndeg

    if degenerate > DEGENERACY_BUDGET * samples:
        raise DegeneracyError(
            f"{degenerate} of {samples} samples hit numerical degeneracy "
            f"(budget {DEGENERACY_BUDGET:.0%}); check rank, labels and tolerances"
        )
    return values


def estimate_many(
    G: GroupSpec,
    observables,
    samples: int,
    seed: int,
    *,
    threads: int | None = None,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> list[MCEstimate]:
    """One estimate per observable, all from the same shared sample set."""
    observables = list(observables)
    values = sample_values(
        G, observables, samples, seed, threads=threads, tolerances=tolerances
    )
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
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> MCEstimate:
    return estimate_many(
        G, [observable], samples, seed, threads=threads, tolerances=tolerances
    )[0]


def estimate_ratio(
    G: GroupSpec,
    numerator,
    denominator,
    samples: int,
    seed: int,
    *,
    threads: int | None = None,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> RatioEstimate:
    """Ratio of means over shared samples; stderr by the delta method with
    the empirical covariance, which accounts for the strong correlation
    between numerator and denominator."""
    values = sample_values(
        G, [numerator, denominator], samples, seed, threads=threads, tolerances=tolerances
    )
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
