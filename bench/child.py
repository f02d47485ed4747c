"""Programs the benchmark starts in a fresh interpreter.

  child.py probe mc|exact      import liemoments and compute a first result
  child.py cli RECORD ARGS...  run the liemoments CLI on ARGS with tracing,
                               then write the per-layer record to RECORD
"""

from __future__ import annotations

import json
import sys
import time


def probe(kind: str) -> None:
    import liemoments as lm

    if kind == "mc":
        est = lm.estimate(lm.GroupSpec.sp(4), lm.TraceProductObservable(lm.Partition([1, 1])), 4096, 1, threads=1)
        print(est.mean)
    else:
        G = lm.GroupSpec.stable(lm.Family.SP)
        print(lm.expect_twisted(G, lm.Partition([2, 1]), lm.Partition([2, 1, 1, 1]), verify=True))


def traced_cli(record_path: str, argv: list[str]) -> int:
    t0 = time.perf_counter()
    import liemoments.cli as cli

    import_ms = 1e3 * (time.perf_counter() - t0)

    from tracer import Tracer, cache_sizes, span_totals, trace_layers

    tracer = Tracer()
    trace_layers(tracer)
    handler = []

    def wrap(func):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                handler.append((start, time.perf_counter()))

        return wrapper

    for name in [n for n in vars(cli) if n.startswith("cmd_")]:
        setattr(cli, name, wrap(getattr(cli, name)))

    start = time.perf_counter()
    code = cli.main(argv)
    end = time.perf_counter()
    sys.stdout.flush()
    record = {
        "import_ms": import_ms,
        "handler_ms": 1e3 * (handler[0][1] - handler[0][0]) if handler else 0.0,
        # everything main does after the handler returns: JSON encoding and the write
        "emit_ms": 1e3 * (end - handler[0][1]) if handler and code == 0 else 0.0,
        "main_ms": 1e3 * (end - start),
        "totals": span_totals(tracer.spans),
        "counters": dict(tracer.counters),
        "caches": cache_sizes(),
    }
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    if sys.argv[1] == "probe":
        probe(sys.argv[2])
    elif sys.argv[1] == "cli":
        sys.exit(traced_cli(sys.argv[2], sys.argv[3:]))
    else:
        sys.exit(f"unknown mode {sys.argv[1]!r}")
