"""Benchmark for liemoments: Monte Carlo throughput, exact-query latency and
CLI cold/warm cost.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from src/.
NAME is one of mc-trace, mc-twisted, exact, cli, or `all`, which runs each
workload untraced and traced and prints every metric.  The last line of
stdout is one JSON object: correct, attempted, failed and metrics (the
end-to-end metrics of BENCHMARK.json with --trace 0, the per-layer ones
with --trace 1).  Everything else goes to the lines before it.

One client runs a closed loop: each operation starts when the previous one
has returned.  The end-to-end metrics have the same names on every
workload, because every run reports all of them; what an operation is
depends on the workload:

  metric       mc-trace, mc-twisted         exact              cli
  work_per_s   samples/s, both thread       queries/s          invocations/s
               counts
  op_ms_p50,   one estimate call, at its    one query          one invocation, at
  op_ms_p90    median over passes                              its median over passes
  first_ms     ms per 4096 samples at       mean first-seen    cold char-table
               threads=1                    query              (build and write)
  repeat_ms    ms per 4096 samples at       mean repeated      warm char-table
               threads=2 (the same calls)   query              (read from disk)
  ok_share     share of operations that pass their correctness check
  peak_rss_mb  this process                 this process       largest child
  setup_s      median of 7 fresh interpreters: start, import, first result

The MC rates come from the median time of each call over the run's passes;
the cli cold and warm costs are means per pass, then a median over passes.
Per-workload figures under their own names (mc_samples_per_s_t1, exact_query_ms_p90,
cli_table_cold_s, ops_failed_share, ...) are printed above the JSON line.

A traced run (--trace 1) runs the workload traced for half the time, then
the same operations (the same seed and count) untraced in a child process,
and reports the difference in work_per_s as tracing.overhead_share.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("mc-trace", "mc-twisted", "exact", "cli")
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 170


def child_env() -> dict[str, str]:
    """The environment without liemoments settings, with src importable."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("LIEMOMENTS_")}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def env_stamp(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy has no dict form
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": {
            k: os.environ.get(k, "unset")
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "seed": seed,
    }


def setup_seconds(workload: str, env: dict) -> float:
    """Median wall time of fresh interpreters that import the package and
    produce a first result; one unmeasured run first writes bytecode."""
    if workload == "cli":
        from cliload import CLI_ENTRY

        cmd = [*CLI_ENTRY, "expect-twisted", "--group", "sp", "--gamma", "1", "--lambda", "2,1"]
    else:
        kind = "mc" if workload.startswith("mc") else "exact"
        cmd = [sys.executable, str(BENCH / "child.py"), "probe", kind]
    times = []
    for i in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, capture_output=True, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        if i:
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def quantile(values, q: float) -> float:
    """Linear interpolation between order statistics (numpy's default)."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def make_workload(name: str, seed: int, tracer, workdir: str):
    if name.startswith("mc"):
        from mc import MCWorkload

        return MCWorkload(name, seed, tracer)
    if name == "exact":
        from exact import ExactWorkload

        return ExactWorkload(seed, tracer)
    from cliload import CLIWorkload

    return CLIWorkload(seed, str(ROOT), child_env(), workdir, traced=tracer is not None)


def outcome(name: str, w) -> tuple[int, int, bool, list[str]]:
    """(attempted, failed, correct, report lines).  Cells of the known
    even-orthogonal defect count as failed but do not make the run
    incorrect; anything else does."""
    if name.startswith("mc"):
        cells = w.cells
        failed = [c for c in cells if not c.ok]
        lines = [
            f"failed cell: {c.call.group} {c.label} {c.reason}"
            + (" (known defect: even orthogonal full-length label)" if c.known_defect else "")
            for c in failed
        ]
        return len(cells), len(failed), all(c.known_defect for c in failed), lines
    return w.attempted, len(w.failures), not w.failures, [f"failed: {f}" for f in w.failures]


def measure(name: str, seed: int, seconds: float, traced: bool, workdir: str, ops=None):
    """Run one workload; returns (attempted, failed, correct, metrics, lines)."""
    tracer = None
    lines = []
    if traced:
        from tracer import Tracer, trace_layers

        seconds = seconds / 2  # the other half repeats the same operations untraced
        tracer = Tracer()
    else:
        setup_s = setup_seconds(name, child_env())
    w = make_workload(name, seed, tracer, workdir)
    if traced:
        trace_layers(tracer)
        if name.startswith("mc"):
            from mc import install_tracing

            install_tracing(tracer)
    w.run(seconds, ops)
    attempted, failed, correct, fail_lines = outcome(name, w)
    lines += fail_lines
    m = w.metrics()
    lat = m["op_latencies_ms"]
    for alias, (value, unit) in m["aliases"].items():
        lines.append(f"{alias} = {value:.6g} {unit}")
    lines.append(f"ops_failed_share = {failed / attempted:.6g} share ({failed} of {attempted})")
    p90 = quantile(lat, 0.9)
    lines.append(f"operations timed = {len(lat)}; beyond p90: {sum(1 for x in lat if x > p90)}")
    if traced:
        metrics = layer_metrics(name, w, tracer)
        if name.startswith("mc"):
            from mc import REDRAW_CAUSES

            lines += kernel_lines(w)
            causes = sum(metrics[f"sampling.redraws.{c}"] for c in REDRAW_CAUSES)
            lines.append(
                f"sampling.redraw_share base: {metrics['sampling.matrices_drawn']} matrices drawn; "
                f"{causes} redrawn, each counted under the first check that flagged it"
            )
        from liemoments.partitions import ENUMERATION_BOUND

        lines.append(f"largest partition enumeration: k = {metrics['partitions.max_k']} (bound {ENUMERATION_BOUND})")
        untraced = run_child(name, seed, seconds, trace=False, ops=w.ops_done)
        metrics["tracing.overhead_share"] = 1 - m["work_per_s"] / untraced["metrics"]["work_per_s"]["value"]
    else:
        who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
        metrics = {
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
            "ok_share": 1 - failed / attempted,
            "work_per_s": m["work_per_s"],
            "op_ms_p50": quantile(lat, 0.5),
            "op_ms_p90": p90,
            "first_ms": m["first_ms"],
            "repeat_ms": m["repeat_ms"],
        }
    return attempted, failed, correct, metrics, lines


def layer_metrics(name: str, w, tracer) -> dict[str, float]:
    """Every per-layer metric; layers a workload does not reach read 0."""
    from mc import layer_metrics as mc_layers
    from tracer import cache_sizes, exact_layer_metrics, span_totals

    out = mc_layers(tracer)
    out["exact.repeat_share"] = sum(w.repeat) / len(w.repeat) if name == "exact" else 0.0
    if name == "cli":
        out.update(w.layer_metrics())
        return out
    ops = w.attempted if name == "exact" else len(w.latencies_ms)
    # spans without a parent come from the benchmark's own checks
    inside = [s for s in tracer.spans if s.parent is not None]
    out.update(exact_layer_metrics(span_totals(inside), ops, tracer.counters, cache_sizes()))
    for key in ("cli.import_ms", "cli.handler_ms", "cli.emit_ms", "cli.stdout_bytes", "tablecache.bytes"):
        out[key] = 0.0
    return out


def kernel_lines(w) -> list[str]:
    from mc import kernel_counts

    lines, seen = [], set()
    for call in w.calls:
        if call.key in seen:
            continue
        seen.add(call.key)
        for kernel, (flops, nbytes) in kernel_counts(call.group).items():
            lines.append(
                f"kernel {call.key} {kernel} (computed): {flops:.4g} flop/sample, "
                f"{nbytes:.4g} bytes/sample, {flops / nbytes:.3g} flop/byte"
            )
    return lines


def run_child(name: str, seed: int, seconds: float, trace: bool, ops=None) -> dict:
    """Run this script on one workload in a child process; returns its result."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    if ops is not None:
        cmd += ["--ops", str(ops)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=4 * seconds + 120)
    sys.stdout.write("".join(f"  {line}\n" for line in proc.stdout.splitlines()[:-1]))
    if proc.returncode != 0:
        raise RuntimeError(f"{name} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_all(seed: int, seconds: float) -> dict:
    """Every workload untraced, then traced; one combined result."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (False, True):
            print(f"== {name} trace={int(trace)}")
            doc = run_child(name, seed, seconds, trace)
            result["metrics"].update({f"{name}.{k}": v for k, v in doc["metrics"].items()})
            result["correct"] &= doc["correct"]
            result["attempted"] += doc["attempted"]
            result["failed"] += doc["failed"]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--ops", type=int, default=None,
        help="run exactly this many operations (MC and cli passes, exact queries) instead of --seconds",
    )
    args = parser.parse_args(argv)

    if not (SRC / "liemoments" / "__init__.py").is_file():
        print(f"error: no liemoments sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key in [k for k in os.environ if k.startswith("LIEMOMENTS_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))

    print("env: " + json.dumps(env_stamp(args.seed), sort_keys=True))
    if args.workload == "all":
        print(json.dumps(run_all(args.seed, args.seconds)))
        return 0

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=ROOT / ".bench_work")
    try:
        attempted, failed, correct, metrics, lines = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir, args.ops
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:  # another run still uses it
            pass

    declared = spec["per_layer" if args.trace else "end_to_end"]
    if {m["name"] for m in declared} != set(metrics):
        raise SystemExit(f"metric set differs from BENCHMARK.json: {sorted(set(metrics) ^ {m['name'] for m in declared})}")
    for line in lines:
        print(line)
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}
    for key, value in out.items():
        print(f"{key} = {value['value']:.6g} {value['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
