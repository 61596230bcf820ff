#!/usr/bin/env python3
"""Layered benchmark for qcommlab.

    python3 perfbench/run.py --workload tabulate|search|witness --seed N \
        --seconds S --trace 0|1 [--size full|tiny]

Run from the root of a source checkout: the package is imported from
``src/``.  One process, one closed-loop client, no threads: passes over the
workload's fixed job list run back to back until ``--seconds`` is spent.
Every result is checked; a failed check is counted, never fatal.

``--trace 0`` reports the end-to-end metrics: set-up time (repeated
imports and input builds, made between the passes, each step at its
fastest), the CPU time of a pass with tracing off, peak memory and the
paper's cost metric.  Times are CPU times of this single-threaded process
(see ``clock``).  ``--trace 1`` alternates untraced and
traced passes and reports per-layer calls, self times (medians over the
traced passes) and counters, the tracing overhead, and checks that every
wrapped function saw calls where it should.  Spans of the first traced
pass go to ``perfbench/out/``.

The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}``;
fail_ratio is failed / attempted.
"""

import argparse
import ctypes
import gzip
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

# One BLAS thread, set before numpy loads: more threads were slower and
# noisier on the n = 5 corpus.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# Jobs and set-up steps are timed in this process's CPU time.  The process
# is one thread with one BLAS thread and waits on nothing but a few small
# files, so on an idle machine its CPU time is its wall time; on a shared
# host CPU time leaves out the spells in which other tenants hold the CPU.
# With a busy loop on each of the two CPUs of a 2-core VM, the search pass
# took 2.1x its quiet wall time but only 1.3x its quiet CPU time.
clock = time.process_time

MIN_PASSES = 3
# set-ups timed before each pass: at least one, and at least this long in all
SETUP_SAMPLE_S = 0.1

END_TO_END_UNITS = {"setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
                    "cost_per_sqrt_n": "qubits"}


def _package_modules() -> dict:
    return {name: module for name, module in sys.modules.items()
            if name.split(".")[0] == "qcommlab"}


def set_up(workload: str, seed: int, tiny: bool):
    """Import qcommlab afresh from src/ and build the workload's inputs.

    numpy stays imported; only the package's own modules are reloaded, so
    every repeat pays the same import cost.  Returns the time of each
    step: the import, the build of each job, and the builder's tail."""
    for name in _package_modules():
        del sys.modules[name]
    marks = [clock()]
    pkg = importlib.import_module("qcommlab")
    qc = SimpleNamespace(**{layer: importlib.import_module(f"qcommlab.{layer}")
                            for layer in tracing.LAYERS})
    marks.append(clock())
    jobs = []
    for job in workloads.WORKLOADS[workload].build(qc, seed, tiny, OUT):
        jobs.append(job)
        marks.append(clock())
    marks.append(clock())
    if Path(pkg.__file__).resolve().parent != SRC / "qcommlab":
        raise RuntimeError(f"qcommlab imported from {pkg.__file__}, not {SRC}")
    return [b - a for a, b in zip(marks, marks[1:])], qc, jobs


def set_up_again(workload: str, seed: int, tiny: bool) -> list:
    """Time one more set-up, then put back the modules the timed jobs use,
    so that no call of theirs reaches the fresh copies."""
    kept = _package_modules()
    steps = set_up(workload, seed, tiny)[0]
    for name in _package_modules():
        del sys.modules[name]
    sys.modules.update(kept)
    return steps


def run_pass(jobs, checks, costs, tracer=None) -> list:
    """Run every job once; returns each job's CPU time."""
    times = []
    for index, (name, job) in enumerate(jobs):
        if tracer is not None:
            tracer.job = index
        start = clock()
        try:
            job(checks, costs)
        except Exception:
            checks.fail(f"{name} raised:\n{traceback.format_exc()}")
        times.append(clock() - start)
    return times


def fastest_pass(job_times: list) -> float:
    """One pass's time with each job at its fastest over the passes run;
    also one set-up's time with each step at its fastest.

    Load from other tenants of a shared machine comes in spells of
    seconds, and a job's fastest time finds the gaps between them.  On a
    2-core VM the median pass time of one seed moved by 17% between runs,
    and this sum by 6%."""
    return sum(min(times) for times in zip(*job_times))


class CpuRotation:
    """Moves this process to the next of its allowed CPUs on each call.

    On a 2-core VM one core at a time often ran 1.5x slower for tens of
    seconds; a run pinned to it had no fast pass.  Rotating gives every
    job passes on each core."""

    def __init__(self):
        self.allowed = os.sched_getaffinity(0)
        self.cpus = sorted(self.allowed)
        self.turn = 0

    def next(self):
        os.sched_setaffinity(0, {self.cpus[self.turn % len(self.cpus)]})
        self.turn += 1

    def restore(self):
        os.sched_setaffinity(0, self.allowed)


def write_spans(path, tracer, jobs):
    with gzip.open(path, "wt") as fh:
        fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "job"],
                             "jobs": [name for name, _ in jobs]}) + "\n")
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")


def _blas_threads():
    """Thread count reported by the OpenBLAS numpy loaded, or None."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else None


def provenance() -> dict:
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"git_sha": _git_sha(), "src_sha256": digest.hexdigest()[:16],
            "src_lines": lines, "python": platform.python_version(),
            "numpy": np.__version__, "nproc": len(os.sched_getaffinity(0)),
            "blas_thread_env": {v: os.environ[v] for v in BLAS_THREAD_VARS},
            "blas_threads": _blas_threads()}


def coverage_checks(checks, workload: str, layer_passes: list):
    """Every wrapped function is meant for some workload, gets calls on the
    workloads it is meant for and none where its layer must be idle, and a
    fixed job list repeats its counts exactly."""
    spec = workloads.WORKLOADS[workload]
    meant = {name for w in workloads.WORKLOADS.values() for name in w.exercises}
    wrapped = set(tracing.WRAPPED) | {tracing.STEP_BUILD}
    checks.expect(wrapped <= meant,
                  f"wrapped but on no workload: {sorted(wrapped - meant)}")
    first = layer_passes[0]
    for name in spec.exercises:
        calls = (first["engine.step_builds"] if name == tracing.STEP_BUILD
                 else first[f"{name}.calls"])
        checks.expect(calls > 0, f"{name}: no calls on {workload}")
    for name in spec.idle:
        calls = first[f"{name}.calls"]
        checks.expect(calls == 0, f"{name}: {calls} calls on {workload}")
    counts = tracing.counts_of(first)
    for other in layer_passes[1:]:
        checks.expect(tracing.counts_of(other) == counts,
                      "traced passes disagree on exact counts")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a seconds-long smoke-test version")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(args) -> int:
    if not (SRC / "qcommlab" / "__init__.py").is_file():
        print(f"no qcommlab sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    print("provenance " + json.dumps(provenance()))
    rotation = CpuRotation()
    try:
        return measure(args, rotation)
    finally:
        rotation.restore()


def measure(args, rotation) -> int:
    """Set up, run the passes, print the metrics and the JSON result."""
    tiny = args.size == "tiny"
    rotation.next()
    # the first set-up may compile bytecode; it is not one of the samples
    _, qc, jobs = set_up(args.workload, args.seed, tiny)

    checks = workloads.Checks()
    # one untimed pass first, so that lazy set-up in numpy and the package
    # is done before any pass is timed
    run_pass(jobs, checks, workloads.Costs())
    deadline = time.perf_counter() + args.seconds
    if args.trace:
        # untraced and traced passes alternate, so that both see the same
        # spells of load; their difference is the tracing overhead
        tracer = tracing.Tracer(vars(qc))
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        untraced, traced, layer_passes = [], [], []
        while (len(traced) < 2 or time.perf_counter()
               + sum(untraced[-1]) + sum(traced[-1]) <= deadline):
            # both passes of a pair on the same CPU
            rotation.next()
            untraced.append(run_pass(jobs, checks, workloads.Costs()))
            with tracer.installed():
                traced.append(run_pass(jobs, checks, workloads.Costs(), tracer))
            layer_passes.append(tracer.pass_metrics())
            if len(traced) == 1:
                write_spans(spans_path, tracer, jobs)
        coverage_checks(checks, args.workload, layer_passes)
        values = tracing.merge_passes(layer_passes, fastest_pass(untraced),
                                      fastest_pass(traced))
        units = tracing.metric_units()
    else:
        # set-ups before every pass, on the same CPU, so that they sample
        # the run's spells of load as the passes do
        setups, job_times, costs = [], [], []
        last = 0.0
        while (len(job_times) < MIN_PASSES
               or time.perf_counter() + last <= deadline):
            pass_costs = workloads.Costs()
            rotation.next()
            start = time.perf_counter()
            while True:
                setups.append(set_up_again(args.workload, args.seed, tiny))
                if time.perf_counter() - start >= SETUP_SAMPLE_S:
                    break
            job_times.append(run_pass(jobs, checks, pass_costs))
            last = time.perf_counter() - start
            costs.append(pass_costs.per_sqrt_n())
        checks.expect(len(set(costs)) == 1,
                      f"seeded cost metric differs between passes: {costs}")
        values = {
            "setup_s": fastest_pass(setups),
            "cpu_s": fastest_pass(job_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "cost_per_sqrt_n": costs[0],
        }
        units = END_TO_END_UNITS
        print(f"pass times ({len(job_times)}): "
              + " ".join(f"{sum(t):.4f}" for t in job_times))
        print(f"set-up times ({len(setups)}): "
              + " ".join(f"{sum(t):.5f}" for t in setups))
    for name, value in values.items():
        print(f"{name} {value} {units[name]}")
    print(f"fail_ratio {checks.failed / max(checks.attempted, 1)} "
          f"({checks.failed}/{checks.attempted})")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(parse_args()))
