"""The cli workload: one fresh interpreter per invocation.

Each pass starts from an empty cache directory.  It builds and writes the
k = 16 and k = 18 character tables (cold), reads them back twice each
(warm), and mixes in small commands: expect-twisted, selftest and a
20000-sample mc-verify.  Start-up is most of a small command, and this is
the only workload that writes the table cache.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import subprocess
import sys
import time
from statistics import median

from mc import Z_BOUND

# What the installed `liemoments` console script runs.
CLI_ENTRY = [sys.executable, "-c", "import sys; from liemoments.cli import main; sys.exit(main())"]
TABLE_KS = (16, 18)
TIMEOUT_S = 150


TWISTED_ARGS = [("1", "2,1"), ("2", "2,2"), ("2,1", "3,1,1,1"), ("1,1", "4,2"), ("3", "3,2,1"), ("2,2", "2,2,1,1")]


def _small_commands(rng: random.Random, seed: int) -> list[list[str]]:
    """Four expect-twisted queries, a selftest and a 20000-sample mc-verify
    on a trace product in the stable range."""
    twisted = [
        ["expect-twisted", "--group", rng.choice(("sp", "so-even", "so-odd")), "--gamma", g, "--lambda", lam, "--verify"]
        for g, lam in rng.sample(TWISTED_ARGS, 4)
    ]
    mc_verify = [
        "mc-verify", "--group", rng.choice(("sp", "so-odd")), "--n", "4",
        "--lambda", rng.choice(("2,1,1", "2,2", "3,1", "1,1,1,1", "2,1")),
        "--samples", "20000", "--seed", str(seed),
    ]
    return [twisted[0], twisted[1], ["selftest"], twisted[2], mc_verify, twisted[3]]


class CLIWorkload:
    """Whole passes of invocations; a pass starts only if it is expected to
    end in time.  Cold and warm costs are reduced per pass, then by median."""

    def __init__(self, seed: int, root, env: dict, workdir, traced: bool):
        self.rng = random.Random(seed)
        self.seed = seed
        self.root = root
        self.env = env
        self.workdir = workdir
        self.traced = traced
        self.records: list[dict] = []
        self.latencies_ms: list[float] = []
        self.slot_ms: dict[int, list[float]] = {}  # per position in a pass, one time per pass
        self.cold_ms: list[float] = []  # per pass, mean over its cold invocations
        self.warm_ms: list[float] = []  # per pass, mean over its warm invocations
        self.stdout_bytes: list[int] = []
        self.table_bytes: list[int] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.passes = 0

    def invoke(self, argv: list[str]) -> tuple[dict | None, bytes]:
        record_path = os.path.join(self.workdir, "record.json")
        if self.traced:
            cmd = [sys.executable, os.path.join(self.root, "bench", "child.py"), "cli", record_path, *argv]
        else:
            cmd = [*CLI_ENTRY, *argv]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, env=self.env, cwd=self.root, timeout=TIMEOUT_S)
        dt = 1e3 * (time.perf_counter() - t0)
        self.attempted += 1
        self.latencies_ms.append(dt)
        self.stdout_bytes.append(len(proc.stdout))
        if self.traced and os.path.exists(record_path):
            with open(record_path, encoding="utf-8") as fh:
                self.records.append(json.load(fh))
            os.unlink(record_path)
        if proc.returncode != 0:
            self.failures.append(f"{' '.join(argv)}: exit {proc.returncode}: {proc.stderr.decode()[-300:]}")
            return None, proc.stdout
        try:
            return json.loads(proc.stdout), proc.stdout
        except json.JSONDecodeError as exc:
            self.failures.append(f"{' '.join(argv)}: bad JSON: {exc}")
            return None, proc.stdout

    def _table(self, k: int, cache: str, cold: bool, reference: dict) -> float:
        """One char-table invocation; returns its wall time in ms."""
        doc, raw = self.invoke(["char-table", "--k", str(k), "--cache-dir", cache])
        if doc is None:
            return self.latencies_ms[-1]
        dims = [int(row[-1]) for row in doc["table"]["values"]]
        if sum(d * d for d in dims) != math.factorial(k):
            self.failures.append(f"char-table k={k}: squared dimensions do not sum to {k}!")
        if cold:
            reference[k] = raw
        elif raw != reference.get(k):
            self.failures.append(f"char-table k={k}: table read from disk differs from the built one")
        return self.latencies_ms[-1]

    def _small(self, argv: list[str]) -> None:
        doc, _ = self.invoke(argv)
        if doc is not None and argv[0] == "mc-verify":
            z = doc["mc"].get("z")
            if z is None or abs(z) > Z_BOUND:
                self.failures.append(f"{' '.join(argv)}: z={z}")

    def run_pass(self) -> None:
        first = len(self.latencies_ms)
        cache = os.path.join(self.workdir, f"cache{self.passes}")
        built: dict[int, bytes] = {}
        small = _small_commands(self.rng, self.seed * 1000 + self.passes)
        cold = [self._table(k, cache, True, built) for k in TABLE_KS]
        reads = list(TABLE_KS) * 2  # each table read back twice, between small commands
        warm = []
        for i, argv in enumerate(small):
            self._small(argv)
            if i < len(reads):
                warm.append(self._table(reads[i], cache, False, built))
        self.cold_ms.append(sum(cold) / len(cold))
        self.warm_ms.append(sum(warm) / len(warm))
        if os.path.isdir(cache):
            self.table_bytes.append(sum(os.path.getsize(os.path.join(cache, f)) for f in os.listdir(cache)))
            shutil.rmtree(cache)
        for slot, ms in enumerate(self.latencies_ms[first:]):
            self.slot_ms.setdefault(slot, []).append(ms)
        self.passes += 1

    def run(self, seconds: float, ops: int | None = None) -> None:
        """`ops` passes if given, otherwise whole passes expected to end in time."""
        deadline = time.perf_counter() + seconds
        while True:
            t0 = time.perf_counter()
            self.run_pass()
            now = time.perf_counter()
            if self.passes >= ops if ops is not None else now + (now - t0) > deadline:
                break

    @property
    def ops_done(self) -> int:
        return self.passes

    def metrics(self) -> dict:
        total = sum(self.latencies_ms)
        per_slot = [median(ms) for ms in self.slot_ms.values()]
        return {
            "work_per_s": 1e3 * len(self.latencies_ms) / total,
            "first_ms": median(self.cold_ms),
            "repeat_ms": median(self.warm_ms),
            # one latency per position in the pass, which fixes the command
            # kind: its median over the passes (a run makes two or three)
            "op_latencies_ms": per_slot,
            "aliases": {
                "cli_ms_p50": (median(per_slot), "ms"),
                # per pass: mean over the k = 16 and k = 18 invocations; median over passes
                "cli_table_cold_s": (median(self.cold_ms) / 1e3, "s"),
                "cli_table_warm_ms": (median(self.warm_ms), "ms"),
            },
        }

    def layer_metrics(self) -> dict[str, float]:
        from tracer import exact_layer_metrics

        records = self.records
        n = len(records)
        totals: dict[str, list] = {}
        counters: dict[str, int] = {}
        caches: dict[str, int] = {}
        for rec in records:
            for name, (ms, calls) in rec["totals"].items():
                total = totals.setdefault(name, [0.0, 0])
                total[0] += ms
                total[1] += calls
            for key, value in rec["counters"].items():
                merge = max if key == "partitions.max_k" else int.__add__
                counters[key] = merge(counters.get(key, 0), value)
            for key, value in rec["caches"].items():
                caches[key] = max(caches.get(key, 0), value)
        out = exact_layer_metrics(totals, n, counters, caches)
        out.update(
            {
                "cli.import_ms": sum(r["import_ms"] for r in records) / n,
                "cli.handler_ms": sum(r["handler_ms"] for r in records) / n,
                "cli.emit_ms": sum(r["emit_ms"] for r in records) / n,
                "cli.stdout_bytes": sum(self.stdout_bytes) / len(self.stdout_bytes),
                "tablecache.bytes": median(self.table_bytes) if self.table_bytes else 0,
            }
        )
        return out
