"""Reproducible Monte Carlo estimators over the compact groups.

Estimates are deterministic functions of (seed, samples): sample i is drawn
from a counter-based stream keyed by (seed, i), chunks of consecutive
indices are processed with batched linear algebra, per-sample values land
in an index-ordered array, and the mean is taken over that array with
numpy's pairwise summation.  Worker count therefore cannot change any bit
of the result, only the wall time.

Every observable is one product, characters times power traces times Phi,
evaluated by `_Product.evaluate`; the public classes only name their
factors.

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
from dataclasses import dataclass, fields

import numpy as np

from . import config
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

    def characters(self) -> tuple[Partition, ...]:
        return tuple(dict.fromkeys(self.char_labels))

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


def _chunk_block(G, observables, seed, i0, i1, pmax, labels):
    tolerances = config.DEFAULT_TOLERANCES
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
                values, cbad = weyl_character_batch(G.family, lab, angles)
                bad = bad | cbad
                chars[lab] = values
        if not bad.any():
            block = np.stack([obs.evaluate(G.rank, traces, chars) for obs in observables])
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
        return i0, i1, _chunk_block(G, observables, seed, i0, i1, pmax, labels)

    workers = min(threads or os.cpu_count() or 1, len(ranges))
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
