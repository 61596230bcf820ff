"""Spans around the package's layers, recorded from outside the package.

The tracer swaps module attributes (``engine.simulate``,
``linalg.apply_on_qubits``, ...) for timing wrappers while it is installed.
Code inside the package looks these names up at call time, so its calls
are traced too.  Names bound by ``from ... import`` (the ``qcommlab``
re-exports) keep the originals, which is why the workloads call through
module attributes only.

A span is ``[name, start, end, parent, job]``: ``parent`` is the index of
the enclosing span (-1 at top level) and ``job`` the index of the workload
job that caused it.  A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

LAYERS = ("linalg", "engine", "zoo", "ranklab", "cli")

WRAPPED = (
    "linalg.apply_on_qubits",
    "linalg.is_unitary",
    "linalg.unitary_with_first_column",
    "linalg.numeric_rank",
    "linalg.exact_rank",
    "engine.simulate",
    "engine.acceptance_matrix",
    "engine.yao_kremer_decompose",
    "zoo.qsearch",
    "zoo.bcw_intersection",
    "zoo.recursive_intersection",
    "ranklab.protocol_to_witness",
    "ranklab.lemma2_scalarize",
    "ranklab.fold_to_polynomial",
    "ranklab.monomial_rank_audit",
    "ranklab.disj_triangular_audit",
    "cli.main",
)

# ProtocolStep.build is a dataclass field, not a module attribute; its
# closures are defined in zoo, so the span counts towards that layer.
STEP_BUILD = "zoo.step_build"

SEARCHES = ("zoo.bcw_intersection", "zoo.recursive_intersection")

# Counters the observers below fill in and the report shows, with units.
COUNTERS = {
    "linalg.apply_on_qubits.bytes": "B_computed",
    "ranklab.lemma2_scalarize.attempts": "count",
    "zoo.search.iterations": "count",
    "zoo.search.measurements": "count",
    "cli.out_bytes": "B",
}
# Pass times of a traced run, measured around the passes, not from spans.
PASS_TIMES = ("trace.cpu_s", "trace.overhead_s")


def metric_units() -> dict:
    """Name -> unit of every per-layer metric a traced run reports."""
    units = {}
    for name in WRAPPED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(COUNTERS)
    units.update({
        "engine.step_builds": "count",
        "engine.step_builds_per_pair": "1",
        "zoo.gate_build_s": "s",
        "zoo.search.hit_ratio": "1",
    })
    units.update({f"layer.{layer}.self_s": "s" for layer in LAYERS})
    units["trace.spans"] = "count"
    units.update({name: "s" for name in PASS_TIMES})
    return units


class _TracedBuild:
    """Data descriptor on ProtocolStep that traces every ``step.build``."""

    def __init__(self, tracer: "Tracer"):
        self.tracer = tracer

    def __get__(self, step, owner=None):
        if step is None:
            return self
        return self.tracer.wrap(STEP_BUILD, step.__dict__["build"])

    def __set__(self, step, value):
        step.__dict__["build"] = value


class Tracer:
    """In-memory span recorder for one traced pass at a time."""

    def __init__(self, modules):
        self.modules = modules
        self.job = -1
        self.reset()
        self._observers = {
            "linalg.apply_on_qubits": self._count_bytes,
            "ranklab.lemma2_scalarize": self._count_attempts,
            "zoo.bcw_intersection": self._count_search,
            "zoo.recursive_intersection": self._count_search,
        }

    def reset(self):
        self.spans = []
        self.stack = []
        self.counters = Counter()

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        observe = self._observers.get(name)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, self.job]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(args, result, parent)
            return result

        return traced

    def _count_bytes(self, args, result, parent):
        # computed, not measured: one read and one write of the complex128 state
        self.counters["linalg.apply_on_qubits.bytes"] += 2 * 16 * len(args[0])

    def _count_attempts(self, args, result, parent):
        self.counters["ranklab.lemma2_scalarize.attempts"] += result.attempt + 1

    def _count_search(self, args, result, parent):
        # recursive_intersection may delegate to bcw_intersection; count
        # each top-level search once
        if parent >= 0 and self.spans[parent][0] in SEARCHES:
            return
        self.counters["zoo.search.iterations"] += result.iterations
        self.counters["zoo.search.measurements"] += result.measurements
        self.counters["zoo.search.hits"] += result.found

    @contextmanager
    def installed(self):
        """Start a fresh recording and swap in the wrappers; the originals
        come back on exit."""
        self.reset()
        restore = []
        try:
            for name in WRAPPED:
                layer, attr = name.split(".")
                module = self.modules[layer]
                original = getattr(module, attr)
                restore.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
            cli = self.modules["cli"]
            emit = cli._emit
            restore.append((cli, "_emit", emit))

            def counted_emit(text, out_path):
                self.counters["cli.out_bytes"] += len(text.encode())
                return emit(text, out_path)

            cli._emit = counted_emit
            step_class = self.modules["engine"].ProtocolStep
            step_class.build = _TracedBuild(self)
            restore.append((step_class, "build", None))
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                if original is None:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)

    def pass_metrics(self) -> dict:
        """Per-layer metrics of the spans recorded since the last reset."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls = Counter()
        self_s = defaultdict(float)
        inclusive = defaultdict(float)
        for (name, start, end, _, _), inner in zip(spans, child):
            calls[name] += 1
            self_s[name] += end - start - inner
            inclusive[name] += end - start
        out = {}
        for name in WRAPPED:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        for name in COUNTERS:
            out[name] = self.counters[name]
        pairs = calls["engine.simulate"] + calls["engine.yao_kremer_decompose"]
        out["engine.step_builds"] = calls[STEP_BUILD]
        out["engine.step_builds_per_pair"] = calls[STEP_BUILD] / pairs if pairs else 0.0
        out["zoo.gate_build_s"] = inclusive[STEP_BUILD]
        measured = out["zoo.search.measurements"]
        hits = self.counters["zoo.search.hits"]
        out["zoo.search.hit_ratio"] = hits / measured if measured else 0.0
        for layer in LAYERS:
            out[f"layer.{layer}.self_s"] = sum(
                v for k, v in self_s.items() if k.startswith(layer + "."))
        out["trace.spans"] = len(spans)
        return out


def merge_passes(per_pass: list, untraced_s: float, traced_s: float) -> dict:
    """Medians of the timings over traced passes, counts from the first,
    and the pass time traced and its excess over the untraced one."""
    merged = {}
    for name, unit in metric_units().items():
        if name in PASS_TIMES:
            continue
        values = [p[name] for p in per_pass]
        merged[name] = statistics.median(values) if unit == "s" else values[0]
    merged["trace.cpu_s"] = traced_s
    merged["trace.overhead_s"] = traced_s - untraced_s
    return merged


def counts_of(metrics: dict) -> dict:
    """The exact counts of one pass, which a fixed job list must repeat."""
    units = metric_units()
    return {k: v for k, v in metrics.items() if units.get(k) not in ("s", None)}
