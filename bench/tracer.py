"""Spans and counters recorded around calls into liemoments.

Tracing is done from outside the package: a traced run replaces the module
attributes that other liemoments modules look up at call time with
wrappers that record one span per call.  Spans stay in memory and are
reduced to per-layer metrics when the run ends.  Only a traced run installs wrappers, so untraced runs execute the
package exactly as shipped.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the causing span in Tracer.spans
    run: int | None  # operation id shared by the spans of one operation
    tag: str | None  # workload label, such as the sampled group

    @property
    def ms(self) -> float:
        return 1e3 * (self.end - self.start)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.run: int | None = None
        self.parent: int | None = None
        self.tag: str | None = None
        self._lock = threading.Lock()

    def record(self, name: str, start: float, end: float) -> int:
        """Add a finished span under the current parent; returns its index."""
        span = Span(name, start, end, self.parent, self.run, self.tag)
        with self._lock:
            self.spans.append(span)
            return len(self.spans) - 1

    def open(self, name: str) -> int:
        """Start a span whose end is set by close(); returns its index."""
        return self.record(name, time.perf_counter(), float("nan"))

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counters[key] += n

    def maximum(self, key: str, value: int) -> None:
        with self._lock:
            self.counters[key] = max(self.counters[key], value)

    def children(self, index: int) -> list[Span]:
        return [s for s in self.spans if s.parent == index]

    def self_ms(self, index: int) -> float:
        """Duration of a span minus the part of it that its children cover."""
        span = self.spans[index]
        return span.ms - 1e3 * covered(
            [(c.start, c.end) for c in self.children(index)], span.start, span.end
        )


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def replace_everywhere(original, replacement, package: str = "liemoments") -> None:
    """Point every module attribute of the package that is `original` at
    `replacement`, so that callers importing it by name see the wrapper."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == package or name.startswith(package + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def layer_wrapper(tracer: Tracer, layer: str, func, depth: threading.local):
    """Wrapper recording a span for the outermost call into `layer` on each
    thread; calls nested inside the same layer (`depth` is shared by all of
    the layer's wrappers) are part of that span."""

    def wrapper(*args, **kwargs):
        level = getattr(depth, "n", 0)
        if level:
            depth.n = level + 1
            try:
                return func(*args, **kwargs)
            finally:
                depth.n = level
        depth.n = 1
        t0 = time.perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            tracer.record(layer, t0, time.perf_counter())
            depth.n = 0

    return wrapper


def trace_layers(tracer: Tracer) -> None:
    """Wrap the public functions of the exact modules, the table cache and
    the table build, one layer name per group of functions."""
    from liemoments import characters, expectations, lr, matchings, partitions, szego, tablecache

    layers = {
        "expectations.route_a": [(expectations, "expect_twisted_route_a")],
        "expectations.route_b": [(expectations, "expect_twisted_route_b")],
        "lr": [(lr, n) for n in ("lr_coefficient", "schur_product", "branching_decomposition")],
        "szego": [
            (szego, n)
            for n in (
                "ratio_character_sum",
                "ratio_schur_specialization",
                "johansson_limit",
                "twisted_asymptotic",
                "expect_phi_series",
                "weyl_dimension",
            )
        ],
        "matchings": [(matchings, n) for n in ("g_closed", "g_bruteforce", "fpf_involutions_lds")],
        "partitions": [
            (partitions, n) for n in ("partitions_of", "even_partitions_of", "sub_splittings")
        ],
        "tablecache.save": [(tablecache, "save_table")],
        "tablecache.load": [(tablecache, "load_table")],
    }
    for layer, targets in layers.items():
        depth = threading.local()
        for module, attr in targets:
            original = getattr(module, attr)
            replace_everywhere(original, layer_wrapper(tracer, layer, original, depth))

    build = characters.CharacterTable.build  # classmethod, bound to the class
    characters.CharacterTable.build = classmethod(
        layer_wrapper(
            tracer, "characters.table_build", lambda _cls, k: build(k), threading.local()
        )
    )

    counted = partitions.partitions_of

    def partitions_of(k, *args, **kwargs):
        out = counted(k, *args, **kwargs)
        tracer.count("partitions.enumerated", len(out))
        tracer.maximum("partitions.max_k", k)
        return out

    replace_everywhere(counted, partitions_of)


def span_totals(spans) -> dict[str, list]:
    """Total ms and call count per span name."""
    out: dict[str, list] = {}
    for s in spans:
        total = out.setdefault(s.name, [0.0, 0])
        total[0] += s.ms
        total[1] += 1
    return out


def exact_layer_metrics(totals: dict, ops: int, counters, caches: dict) -> dict[str, float]:
    """Inclusive ms per operation for each exact layer, ms per table build,
    save and load, and the cache and enumeration counters."""

    def per_op(name):
        return totals.get(name, (0.0, 0))[0] / ops if ops else 0.0

    def per_call(name):
        ms, n = totals.get(name, (0.0, 0))
        return ms / n if n else 0.0

    out = {
        f"{name}_ms" if "." in name else f"{name}.ms": per_op(name)
        for name in (
            "expectations.route_a",
            "expectations.route_b",
            "lr",
            "szego",
            "matchings",
            "partitions",
        )
    }
    out["characters.table_build_ms"] = per_call("characters.table_build")
    out["characters.table_builds"] = totals.get("characters.table_build", (0.0, 0))[1]
    out["tablecache.save_ms"] = per_call("tablecache.save")
    out["tablecache.load_ms"] = per_call("tablecache.load")
    out["partitions.enumerated"] = counters.get("partitions.enumerated", 0)
    out["partitions.max_k"] = counters.get("partitions.max_k", 0)
    out.update(caches)
    return out


def cache_sizes() -> dict[str, int]:
    """Entry counts of the package's unbounded caches, read from outside."""
    from liemoments import characters, lr

    return {
        "characters.strip_cache_entries": characters._strip_recursion.cache_info().currsize,
        "lr.tableaux_cache_entries": lr._count_tableaux.cache_info().currsize,
    }
