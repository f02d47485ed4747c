"""Monte Carlo workloads: mc-trace and mc-twisted.

A call is one estimate_many or estimate_ratio over one group.  Every call
runs twice with the same seed, first with threads=1 and then with
threads=2, and each observable in it is one cell.  A cell fails when a
call raises, when the two thread counts disagree in any bit of the mean or
the stderr, or when |z| of its estimate pooled over the run's passes
against the exact reference exceeds Z_BOUND.

Sample counts are multiples of the package's 4096-sample chunk, so every
chunk is full and per-chunk layer times compare across groups.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from statistics import median

import numpy as np

from liemoments import (
    CharacterProductObservable,
    Family,
    FourierData,
    GroupSpec,
    Partition,
    PhiObservable,
    TraceProductObservable,
    TwistedObservable,
    TwistedPhiObservable,
    estimate_many,
    estimate_ratio,
    expect_phi_series,
    expect_trace_product,
    expect_twisted,
    partitions_of,
)

#: |z| above this fails a cell; a correct cell fails by chance with
#: probability about 6e-7, and a run checks fewer than 50 cells.
Z_BOUND = 5.0
CHUNK = 4096
GROUP_KEYS = ("sp2", "sp8", "so4", "so8", "so9", "sp20")
LAYERS = ("stream", "draw", "traces", "spectrum", "weyl")
#: checks that send a sample back for a redraw, in the order they run
REDRAW_CAUSES = ("trace_imag", "pairing", "denominator")

# Small coefficients keep the weight-truncated series far below the MC
# stderr: the first omitted term at rank 4 is about c1^6 * 15 / 6! ~ 1e-4.
COEFFS = FourierData.parse("c1=2/5,c2=-1/5,c3=1/10")


def group_key(G: GroupSpec) -> str:
    return f"{'sp' if G.family is Family.SP else 'so'}{G.matrix_size}"


@dataclass(frozen=True)
class Call:
    group: GroupSpec
    observables: tuple
    refs: tuple  # exact reference per cell
    samples: int
    ratio: bool = False

    @property
    def key(self) -> str:
        return group_key(self.group)

    def cells(self) -> tuple:
        return (self.observables[0],) if self.ratio else self.observables

    def known_defect(self, obs) -> bool:
        """Even orthogonal cells with a label of full length: the sampler
        evaluates Re chi_+ on eigen-angles, which cannot tell chi_+ from its
        mirror image, while the exact side uses the mirror-pair sum."""
        if self.group.family is not Family.SO_EVEN:
            return False
        labels = [getattr(obs, name, None) for name in ("gamma", "mu")]
        if self.ratio:
            labels += [getattr(o, "gamma", None) for o in self.observables]
        return any(lab is not None and lab.length == self.group.rank for lab in labels)

    def run(self, seed: int, threads: int) -> list[tuple[float, float]]:
        if self.ratio:
            est = estimate_ratio(self.group, *self.observables, self.samples, seed, threads=threads)
            return [(est.ratio, est.stderr)]
        ests = estimate_many(self.group, self.observables, self.samples, seed, threads=threads)
        return [(e.mean, e.stderr) for e in ests]


def P(*parts) -> Partition:
    return Partition(parts)


def _trace_call(G: GroupSpec, lams, samples: int, extra=()) -> Call:
    obs = [TraceProductObservable(lam) for lam in lams]
    refs = [expect_trace_product(G, lam) for lam in lams]
    for o, r in extra:
        obs.append(o)
        refs.append(r)
    return Call(G, tuple(obs), tuple(refs), samples)


def trace_calls() -> list[Call]:
    """Trace-only observables; the character path does nothing here."""
    lams = [lam for k in range(1, 5) for lam in partitions_of(k)]
    sp20 = GroupSpec.sp(10)
    phi_ref, _ = expect_phi_series(sp20, Partition(), COEFFS, 10)
    return [
        _trace_call(GroupSpec.sp(4), lams, 2 * CHUNK),
        _trace_call(GroupSpec.so_even(4), lams, 2 * CHUNK),
        _trace_call(GroupSpec.so_odd(4), lams, 2 * CHUNK),
        _trace_call(sp20, [P(1, 1, 1, 1)], 2 * CHUNK, extra=[(PhiObservable(COEFFS), phi_ref)]),
        # below the stable range: E[(tr g)^4] over Sp(2) counts involutions
        _trace_call(GroupSpec.sp(1), [P(1, 1, 1, 1)], 2 * CHUNK),
    ]


# (gamma, lambda) pairs at rank 4: rank equal to weight and a full-length label
TWISTED_R4 = [
    (P(1), P(1)),
    (P(2), P(1, 1)),
    (P(1, 1), P(2)),
    (P(2, 1), P(2, 1)),
    (P(2, 1), P(1, 1, 1, 1)),
    (P(3, 1), P(2, 1, 1)),
    (P(1, 1, 1, 1), P(1, 1, 1, 1)),
]
PRODUCTS_R4 = [
    (P(1), P(1)),
    (P(2), P(1, 1)),
    (P(2, 1), P(2, 1)),
    (P(2, 2), P(3, 1)),
    (P(1, 1, 1, 1), P(1, 1, 1, 1)),
]
# SO(4): the full-length label (1,1) against weights equal to the rank
TWISTED_SO4 = [(P(1), P(1)), (P(2), P(2)), (P(1, 1), P(1, 1)), (P(1, 1), P(2))]
PRODUCTS_SO4 = [(P(2), P(2)), (P(2), P(1, 1)), (P(1, 1), P(1, 1))]


def _twisted_call(G: GroupSpec, twisted, products, samples: int) -> Call:
    obs = [TwistedObservable(g, lam) for g, lam in twisted]
    refs = [expect_twisted(G, g, lam) for g, lam in twisted]
    obs += [CharacterProductObservable(g, mu) for g, mu in products]
    refs += [int(g == mu) for g, mu in products]  # orthonormality
    return Call(G, tuple(obs), tuple(refs), samples)


def _ratio_call(G: GroupSpec, gamma: Partition, samples: int) -> Call:
    num, _ = expect_phi_series(G, gamma, COEFFS, G.rank)
    den, _ = expect_phi_series(G, Partition(), COEFFS, G.rank)
    obs = (TwistedPhiObservable(gamma, COEFFS), PhiObservable(COEFFS))
    return Call(G, obs, (num / den,), samples, ratio=True)


def twisted_calls() -> list[Call]:
    """Character-twisted observables on all three families.  SO(8) takes
    twice the samples of the others: its full-length twisted cell is off by
    about 0.04 standard deviations per sample, which needs some 30000 pooled
    samples to stand clear of Z_BOUND."""
    sp8, so8, so9, so4 = (
        GroupSpec.sp(4),
        GroupSpec.so_even(4),
        GroupSpec.so_odd(4),
        GroupSpec.so_even(2),
    )
    return [
        _twisted_call(sp8, TWISTED_R4, PRODUCTS_R4, 2 * CHUNK),
        _twisted_call(so8, TWISTED_R4, PRODUCTS_R4, 4 * CHUNK),
        _twisted_call(so9, TWISTED_R4, PRODUCTS_R4, 2 * CHUNK),
        _twisted_call(so4, TWISTED_SO4, PRODUCTS_SO4, 2 * CHUNK),
        _ratio_call(sp8, P(1, 1), 2 * CHUNK),
        _ratio_call(so8, P(1, 1), 2 * CHUNK),
        _ratio_call(so9, P(1, 1), 2 * CHUNK),
    ]


@dataclass
class CellResult:
    call: Call
    label: str
    ok: bool
    known_defect: bool
    reason: str


class MCWorkload:
    """Whole passes over the calls, each pass with fresh seeds.  A cell is
    checked once per run, on its estimates pooled over the passes; timings
    are reduced to one median per (call, thread count)."""

    MIN_PASSES = 3

    def __init__(self, name: str, seed: int, tracer=None):
        self.name = name
        self.seed = seed
        self.tracer = tracer
        self.calls = trace_calls() if name == "mc-trace" else twisted_calls()
        self.estimates: list[list] = [[] for _ in self.calls]  # per call: (t1, t2) per pass
        self.errors: list[list[str]] = [[] for _ in self.calls]
        self.times: dict[tuple[int, int], list[float]] = {}
        self.latencies_ms: list[float] = []
        self.passes = 0

    def _timed(self, c: int, seed: int, threads: int):
        """One call; None when it raises, which fails all of its cells."""
        t0 = time.perf_counter()
        try:
            return self.calls[c].run(seed, threads)
        except Exception as exc:
            self.errors[c].append(f"threads={threads}: {type(exc).__name__}: {exc}")
            return None
        finally:
            dt = time.perf_counter() - t0
            self.latencies_ms.append(1e3 * dt)
            self.times.setdefault((c, threads), []).append(dt)

    def run_pass(self) -> None:
        for c, call in enumerate(self.calls):
            seed = (self.seed * 1_000_003 + self.passes * 1009 + c) & 0xFFFFFFFF
            if self.tracer is not None:
                self.tracer.tag = call.key
                self.tracer.run = len(self.latencies_ms)
            pair = (self._timed(c, seed, 1), self._timed(c, seed, 2))
            if None not in pair:
                self.estimates[c].append(pair)
        self.passes += 1

    def run(self, seconds: float, ops: int | None = None) -> None:
        """`ops` passes if given; otherwise at least MIN_PASSES, and after
        that a pass starts only if it is expected to end in time."""
        deadline = time.perf_counter() + seconds
        while True:
            t0 = time.perf_counter()
            self.run_pass()
            now = time.perf_counter()
            if ops is not None:
                if self.passes >= ops:
                    break
            elif self.passes >= self.MIN_PASSES and now + (now - t0) > deadline:
                break

    @property
    def ops_done(self) -> int:
        return self.passes

    @property
    def cells(self) -> list[CellResult]:
        out = []
        for c, call in enumerate(self.calls):
            passes = self.estimates[c]
            for i, obs in enumerate(call.cells()):
                # an error or a thread mismatch is never excused as the known defect
                if self.errors[c]:
                    out.append(CellResult(call, obs.label, False, False, self.errors[c][0]))
                    continue
                if any(r1[i] != r2[i] for r1, r2 in passes):
                    out.append(CellResult(call, obs.label, False, False, "threads=1 and threads=2 differ"))
                    continue
                # independent equal-size estimates: average the means, add the variances
                mean = sum(r1[i][0] for r1, _ in passes) / len(passes)
                stderr = math.sqrt(sum(r1[i][1] ** 2 for r1, _ in passes)) / len(passes)
                ref = float(call.refs[i])
                z = (mean - ref) / stderr if stderr > 0 else (0.0 if mean == ref else math.inf)
                out.append(
                    CellResult(call, obs.label, abs(z) <= Z_BOUND, call.known_defect(obs), f"z={z:+.1f}")
                )
        return out

    def metrics(self) -> dict:
        per_pass = sum(call.samples for call in self.calls)
        t1, t2 = (
            sum(median(self.times[c, threads]) for c in range(len(self.calls))) for threads in (1, 2)
        )
        return {
            "work_per_s": 2 * per_pass / (t1 + t2),
            "first_ms": 1e3 * CHUNK * t1 / per_pass,
            "repeat_ms": 1e3 * CHUNK * t2 / per_pass,
            # one latency per (call, thread count): its median over the passes,
            # so that a percentile between two calls does not move with the
            # slowest or fastest pass of either
            "op_latencies_ms": [1e3 * median(ts) for ts in self.times.values()],
            "aliases": {
                "mc_samples_per_s_t1": (per_pass / t1, "1/s"),
                "mc_samples_per_s_t2": (per_pass / t2, "1/s"),
                "mc.passes": (self.passes, "count"),
            },
        }


# ---------------------------------------------------------------------------
# tracing


def install_tracing(tracer) -> None:
    """Wrap the sampling names that liemoments.montecarlo imports, and its
    sample_values.  Redraw causes are read off the wrapped outputs."""
    from liemoments import montecarlo
    from liemoments.config import DEFAULT_TOLERANCES as tol

    local = threading.local()
    rng_for_sample = montecarlo.rng_for_sample

    def close_stream():
        stream = getattr(local, "stream", None)
        if stream is not None:
            tracer.record("sampling.stream", *stream)
            local.stream = None

    def traced_rng(seed, index):
        t0 = time.perf_counter()
        out = rng_for_sample(seed, index)
        t1 = time.perf_counter()
        stream = getattr(local, "stream", None)
        if stream is None:
            local.stream = [t0, t1]
        else:
            stream[1] = t1
        return out

    def stage(name, func, after):
        def wrapper(*args, **kwargs):
            close_stream()
            t0 = time.perf_counter()
            out = func(*args, **kwargs)
            tracer.record(name, t0, time.perf_counter())
            after(out)
            return out

        return wrapper

    def flag(cause, mask):
        masks = getattr(local, "masks", {})
        masks[cause] = masks[cause] | mask if cause in masks else mask
        local.masks = masks

    def drawn(out):
        """A draw ends the previous round of checks on this thread.  Count
        the samples that round sent back for a redraw, each under the first
        cause that flagged it, so that the causes sum to the redraws."""
        seen = None
        for cause in REDRAW_CAUSES:
            mask = getattr(local, "masks", {}).get(cause)
            if mask is not None:
                fresh = mask if seen is None else mask & ~seen
                tracer.count(f"sampling.redraws.{cause}", int(np.count_nonzero(fresh)))
                seen = mask if seen is None else seen | mask
        local.masks = {}
        tracer.count("sampling.matrices_drawn", len(out))

    montecarlo.rng_for_sample = traced_rng
    montecarlo.sample_matrices = stage("sampling.draw", montecarlo.sample_matrices, drawn)
    montecarlo.trace_powers_batch = stage(
        "sampling.traces",
        montecarlo.trace_powers_batch,
        lambda out: flag("trace_imag", out[1] > tol.trace_imag),
    )
    montecarlo.half_spectrum_batch = stage(
        "sampling.spectrum",
        montecarlo.half_spectrum_batch,
        lambda out: flag("pairing", out[1] > tol.pairing),
    )
    montecarlo.weyl_character_batch = stage(
        "sampling.weyl", montecarlo.weyl_character_batch, lambda out: flag("denominator", out[1])
    )

    sample_values = montecarlo.sample_values

    def traced_sample_values(G, observables, samples, seed, **kwargs):
        previous = tracer.parent
        index = tracer.open("montecarlo.sample_values")
        tracer.parent = index
        try:
            return sample_values(G, observables, samples, seed, **kwargs)
        finally:
            tracer.close(index)
            tracer.parent = previous
            tracer.count("montecarlo.samples", samples)

    montecarlo.sample_values = traced_sample_values


def layer_metrics(tracer) -> dict[str, float]:
    """Per-chunk layer times by group and overall, MC self time and counts."""
    spans = tracer.spans
    chunks = {key: 0 for key in GROUP_KEYS}
    busy = {(layer, key): 0.0 for layer in LAYERS for key in GROUP_KEYS}
    for s in spans:
        if s.name.startswith("sampling.") and s.tag in chunks:
            layer = s.name.split(".", 1)[1]
            busy[layer, s.tag] += s.ms
            if layer == "stream":
                chunks[s.tag] += 1
    total_chunks = sum(chunks.values())
    out: dict[str, float] = {}
    for layer in LAYERS:
        total = sum(busy[layer, key] for key in GROUP_KEYS)
        out[f"sampling.{layer}_ms"] = total / total_chunks if total_chunks else 0.0
        for key in GROUP_KEYS:
            n = chunks[key]
            out[f"sampling.{layer}_ms.{key}"] = busy[layer, key] / n if n else 0.0
    self_ms = sum(
        tracer.self_ms(i) for i, s in enumerate(spans) if s.name == "montecarlo.sample_values"
    )
    out["montecarlo.self_ms"] = self_ms / total_chunks if total_chunks else 0.0
    out["montecarlo.chunks"] = total_chunks
    drawn = tracer.counters["sampling.matrices_drawn"]
    out["sampling.matrices_drawn"] = drawn
    for cause in REDRAW_CAUSES:
        out[f"sampling.redraws.{cause}"] = tracer.counters[f"sampling.redraws.{cause}"]
    redrawn = drawn - tracer.counters["montecarlo.samples"]
    out["sampling.redraw_share"] = redrawn / drawn if drawn else 0.0
    return out


# ---------------------------------------------------------------------------
# computed kernel counts


def kernel_counts(G: GroupSpec, pmax: int = 4) -> dict[str, tuple[float, float]]:
    """(flops, bytes) per sample for the draw, traces and spectrum, computed
    from the algorithms and array sizes, not measured; bytes ignore cache
    misses.  Flops use the usual LAPACK leading terms: QR with explicit Q
    8/3 m^3, LU determinant 2/3 m^3, nonsymmetric eigenvalues only 10 m^3,
    and 4 real flops per complex flop (8 per complex multiply-add)."""
    m = G.matrix_size
    if G.family is Family.SP:
        n = G.rank
        earlier = n * (n - 1) // 2  # columns orthogonalized against, summed over k
        # two passes, each an overlap and an update of 2n x 2k complex
        # entries, then a norm and a scaling of each 2n-long column
        draw = (128 * n * earlier + 12 * n * n, 16 * (24 * n * earlier + 2 * n * n + m * m))
        traces = (8 * (pmax - 1) * m**3, 16 * 3 * (pmax - 1) * m * m)
        spectrum = (40 * m**3, 16 * (m * m + m))
    else:
        draw = ((8 / 3 + 2 / 3) * m**3, 8 * 7 * m * m)  # normals, QR, sign fix, det
        traces = (2 * (pmax - 1) * m**3, 8 * 3 * (pmax - 1) * m * m)
        spectrum = (10 * m**3, 8 * m * m + 16 * m)
    return {"draw": draw, "traces": traces, "spectrum": spectrum}
