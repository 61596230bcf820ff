"""The benchmark's three workloads: inputs, fixed job lists and checks.

Each builder takes the package's modules, the seed and the size, and
yields the jobs that one pass runs, each as soon as its inputs are built;
building them is the timed set-up, and the runner times it job by job.
A job is ``(name, fn)`` and ``fn(check, costs)``
does the package's work, checks the result against a reference computed
here with numpy and records the qubits the paper's cost metric counts.
Jobs call the package through module attributes so that the tracer's
wrappers see every call.

Why these workloads:

* tabulate -- state-vector simulation: ``engine.simulate`` and
  ``linalg.apply_on_qubits`` do most of the work, the search does none.
* search -- the intersection searches in ``zoo``; ``engine`` and
  ``linalg`` stay idle.  Small n with many trials measures per-trial
  overhead, n = 1024 the dense-vector path.
* witness -- ``engine`` through transcript branch tables (which grow as
  2^cost) rather than state vectors, plus ranklab's scalarisation,
  polynomial folding and exact rank.
"""

from __future__ import annotations

import io
import json
import math
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

# Probabilities from simulation against their closed form, and final
# states against their transcript reconstruction.
PROB_TOL = 1e-9
STATE_TOL = 1e-9
# The one-sided-error guarantee the acceptance suite checks per input.
MIN_SUCCESS = 0.43
PATTERN_TOL = 1e-9
MAX_REPORTED_FAILURES = 20


class Checks:
    """Counts checks and failures; a failure never stops the pass."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def expect(self, ok, what: str):
        self.attempted += 1
        if not ok:
            self.fail(what)

    def fail(self, what: str):
        self.failed += 1
        if self.failed <= MAX_REPORTED_FAILURES:
            print(f"check failed: {what}", file=sys.stderr)


class Costs:
    """Qubits per protocol run or search trial, grouped by input size n."""

    def __init__(self):
        self.by_n = {}

    def add(self, n: int, qubits: float):
        total, count = self.by_n.get(n, (0.0, 0))
        self.by_n[n] = (total + qubits, count + 1)

    def per_sqrt_n(self) -> float:
        """Mean qubits / sqrt(n) in each size class, averaged over classes."""
        return sum(total / count / math.sqrt(n)
                   for n, (total, count) in self.by_n.items()) / len(self.by_n)


def run_cli(qc, argv) -> tuple:
    """``qcomm argv`` in this process; returns (exit code, stdout text)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = qc.cli.main([str(a) for a in argv])
    return code, out.getvalue()


def _pattern(m) -> np.ndarray:
    m = np.abs(np.asarray(m))
    scale = m.max()
    return m > PATTERN_TOL * scale if scale else np.zeros(m.shape, dtype=bool)


def _table(fn: str, n: int) -> np.ndarray:
    xs = np.arange(1 << n)[:, None]
    ys = np.arange(1 << n)[None, :]
    common = (xs & ys) != 0
    return {"EQ": xs == ys, "NEQ": xs != ys, "INT": common,
            "DISJ": ~common}[fn].astype(np.uint8)


def _bits(value: int, n: int) -> str:
    return format(value, f"0{n}b")


# --------------------------------------------------------------- tabulate

def _acceptance(qc, protocol, reference, n, name, check, costs):
    am = qc.engine.acceptance_matrix(protocol)
    err = float(np.max(np.abs(am.values - reference)))
    check.expect(err <= PROB_TOL, f"{name}: acceptance error {err:.3g}")
    ell = protocol.declared_cost
    rank = qc.linalg.numeric_rank(am.values)
    bound = 1 << max(0, 2 * ell - 2)
    check.expect(rank <= bound, f"{name}: rank {rank} > 2^(2l-2) = {bound}")
    costs.add(n, ell)


def _sampled(qc, protocol, reference, pairs, n, name, check, costs):
    for x, y in pairs:
        res = qc.engine.simulate(protocol, int(x), int(y))
        err = abs(res.accept_prob - reference[x, y])
        check.expect(err <= PROB_TOL, f"{name} ({x},{y}): error {err:.3g}")
        check.expect(res.cost == protocol.declared_cost, f"{name}: cost {res.cost}")
    costs.add(n, protocol.declared_cost)


def _cli_simulate_pair(qc, argv, path, expected, check, costs):
    code, _ = run_cli(qc, argv + ["--out", path])
    check.expect(code == 0, f"qcomm {argv}: exit {code}")
    if code == 0:
        got = json.loads(Path(path).read_text())["accept_prob"]
        check.expect(abs(got - expected) <= PROB_TOL, f"qcomm {argv}: {got}")


def _cli_simulate_csv(qc, argv, path, expected, check, costs):
    code, _ = run_cli(qc, argv + ["--out", path])
    check.expect(code == 0, f"qcomm {argv}: exit {code}")
    if code == 0:
        got = np.loadtxt(path, delimiter=",", ndmin=2)
        check.expect(got.shape == expected.shape
                     and np.max(np.abs(got - expected)) <= PROB_TOL,
                     f"qcomm {argv}: table differs")


def _cli_ndet(qc, argv, cost, check, costs):
    code, text = run_cli(qc, argv)
    lines = text.splitlines()
    check.expect(code == 0 and lines[-1:] == ["agree"]
                 and f"protocol cost {cost}" in lines,
                 f"qcomm {argv}: exit {code}, {lines[-1:]}")


def _cli_matrix(qc, argv, path, expected, check, costs):
    code, _ = run_cli(qc, argv + ["--out", path])
    check.expect(code == 0, f"qcomm {argv}: exit {code}")
    if code == 0:
        # a 0/1 CSV alternates one digit and one separator byte
        raw = np.frombuffer(Path(path).read_bytes(), dtype=np.uint8)
        dim = expected.shape[0]
        ok = raw.size == 2 * dim * dim
        if ok:
            digits = (raw[0::2] - ord("0")).reshape(dim, dim)
            seps = raw[1::2].reshape(dim, dim)
            ok = (np.array_equal(digits, expected)
                  and np.all(seps[:, :-1] == ord(","))
                  and np.all(seps[:, -1] == ord("\n")))
        check.expect(ok, f"qcomm {argv}: table differs")


def _cli_audit(qc, argv, check, costs):
    code, text = run_cli(qc, argv)
    ok = code == 0 and json.loads(text)["ok"] is True
    check.expect(ok, f"qcomm {argv}: exit {code}")


def tabulate(qc, seed: int, tiny: bool, out_dir: Path) -> Iterator:
    """Acceptance matrices of every protocol_corpus entry at the small
    sizes, seeded simulate() samples of every entry at the larger ones up
    to the guard, and the CLI's tabulating subcommands.

    Whole corpora above n = 4 do not fit: n = 5 takes 2.6 s and n = 6
    about 35 s on a 2-core x86 VM.  Short jobs also keep the benchmark
    steady there: load from other tenants comes in spells of seconds, and
    a job's fastest time over many passes finds the gaps between them."""
    zoo, ranklab = qc.zoo, qc.ranklab
    if tiny:
        full_ns, samples = (2, 3), {4: 2}
    else:
        full_ns, samples = (3, 4), {5: 16, 6: 12}
    guard_n = max(samples)
    rng = np.random.default_rng(seed)
    reference = {}
    for n in full_ns + tuple(samples):
        for entry in zoo.protocol_corpus(n):
            kind, fn = entry.name.split("-")
            if kind == "trivial":
                ref = _table(fn, n).astype(float)
            else:
                # P(x,y) = c_x^2 |m_xy|^2 for the SVD protocol of m
                bundle = zoo.ndet_svd_protocol(ranklab.canonical_witness(fn, n))
                ref = (bundle.per_row_norm[:, None] ** 2
                       * np.abs(bundle.source_matrix) ** 2)
            reference[entry.name, n] = ref
            name = f"{entry.name} n={n}"
            if n in samples:
                pairs = rng.integers(0, 1 << n, size=(samples[n], 2))
                job = partial(_sampled, qc, entry.protocol, ref, pairs, n, name)
                yield (f"simulate {name}", job)
            else:
                job = partial(_acceptance, qc, entry.protocol, ref, n, name)
                yield (f"acceptance {name}", job)

    x, y = (int(v) for v in rng.integers(0, 1 << guard_n, size=2))
    argv = ["simulate", "--protocol", "svd", "--fn", "INT", "--n", guard_n,
            "--x", _bits(x, guard_n), "--y", _bits(y, guard_n)]
    yield ("qcomm simulate pair", partial(
        _cli_simulate_pair, qc, argv, out_dir / "simulate.json",
        reference["svd-INT", guard_n][x, y]))
    csv_n = full_ns[-1]
    argv = ["simulate", "--protocol", "trivial", "--fn", "DISJ", "--n", csv_n,
            "--format", "csv"]
    yield ("qcomm simulate csv", partial(
        _cli_simulate_csv, qc, argv, out_dir / "simulate.csv",
        _table("DISJ", csv_n).astype(float)))
    # NEQ has rank 2, so its SVD protocol costs log2(2) + 1 = 2 qubits
    yield ("qcomm ndet", partial(
        _cli_ndet, qc, ["ndet", "--fn", "NEQ", "--n", csv_n], 2))
    matrix_n = 4 if tiny else 10
    argv = ["matrix", "--fn", "EQ", "--n", matrix_n, "--format", "csv"]
    yield ("qcomm matrix", partial(
        _cli_matrix, qc, argv, out_dir / "matrix.csv", _table("EQ", matrix_n)))
    audit_n = 2 if tiny else 3
    yield ("qcomm audit rank-bound", partial(
        _cli_audit, qc, ["audit", "rank-bound", "--n", audit_n]))


# ----------------------------------------------------------------- search

SEARCH_CLASSES = ("disjoint", "unique", "dense")


def _search_pair(rng, n: int, kind: str):
    """Bit lists x, y of length n: disjoint (the search spends its whole
    budget), one common index (hardest to hit), or random with at least
    one common index."""
    x = rng.integers(0, 2, size=n)
    if kind == "dense":
        y = rng.integers(0, 2, size=n)
    else:
        y = (1 - x) * rng.integers(0, 2, size=n)
    if kind == "unique" or (kind == "dense" and not np.any(x & y)):
        i = int(rng.integers(n))
        x[i] = y[i] = 1
    return x.tolist(), y.tolist()


def _search(qc, rcfg, x, y, trials, stream, n, name, check, costs):
    zoo = qc.zoo
    common = {k for k in range(n) if x[k] & y[k]}
    hits = 0
    for t in range(trials):
        cfg = zoo.QSearchConfig(rng_seed=stream + (t,))
        if rcfg is None:
            res = zoo.bcw_intersection(x, y, cfg)
        else:
            res = zoo.recursive_intersection(x, y, rcfg, cfg)
        check.expect(res.index is None or res.index in common,
                     f"{name}: false positive {res.index}")
        hits += res.index is not None
        costs.add(n, res.cost)
    if common:
        check.expect(hits / trials >= MIN_SUCCESS,
                     f"{name}: success {hits}/{trials}")


def _cli_intersect(qc, argv, check, costs):
    code, text = run_cli(qc, argv)
    check.expect(code == 0 and "false_positives 0" in text.splitlines(),
                 f"qcomm {argv}: exit {code}")


def _cli_cost_only(qc, argv, check, costs):
    code, text = run_cli(qc, argv)
    fields = text.split()
    ok = code == 0 and fields[:1] == ["cost_model"]
    check.expect(ok and math.isfinite(float(fields[1])) and float(fields[1]) > 0,
                 f"qcomm {argv}: {text!r}")


def _log_star(n: float) -> int:
    count = 0
    while n > 1:
        n = math.log2(n)
        count += 1
    return count


def _envelope(qc, ns, check, costs):
    # the fit's inputs against the model and an iterated log computed
    # here, and the model's own promise that cost(n) grows with n; kappa
    # itself is the largest ratio, so a bound check on it could not fail
    zoo = qc.zoo
    fit = zoo.fit_cost_envelope(ns)
    ratios = [zoo.cost_model(n) / math.sqrt(n) for n in ns]
    same = (list(fit.log_stars) == [_log_star(n) for n in ns]
            and all(math.isclose(a, b, rel_tol=1e-12)
                    for a, b in zip(fit.ratios, ratios)))
    model = [r * math.sqrt(n) for r, n in zip(ratios, ns)]
    grows = all(a <= b * (1 + 1e-12) for a, b in zip(model, model[1:]))
    check.expect(same and grows, f"fit_cost_envelope: {fit}")


def search(qc, seed: int, tiny: bool, out_dir: Path) -> Iterator:
    """Seeded intersection trials per size and input class, with the flat
    BCW search and the blocked recursion (default and base_threshold=16)."""
    zoo = qc.zoo
    # (n, inputs per class, trials per input of the recursion, of BCW).
    # The recursion with base_threshold=16 succeeds on about 84% of trials
    # at n = 64, so 16 trials per input keep a false alarm of the >= 0.43
    # success check rarer than 1 in 10^4.  A BCW trial at n = 1024 builds a
    # dense 1024 x 1024 preparation (17 ms), so it gets two trials, and
    # every search succeeds on over 99% of trials there.  The recursion's
    # cost varies most from trial to trial (sd 45-60 qubits/sqrt(n) at
    # n = 1024), and its trials are cheap (2 ms), so it gets 32: they keep
    # cost_per_sqrt_n steady from seed to seed.
    sizes = ((4, 1, 8, 8), (16, 1, 8, 8)) if tiny else (
        (4, 2, 16, 16), (16, 2, 16, 16), (64, 2, 16, 16), (256, 2, 16, 16),
        (1024, 1, 32, 2))
    searches = {"bcw": None, "recursive": zoo.RecursionConfig(),
                "recursive-b16": zoo.RecursionConfig(base_threshold=16)}
    rng = np.random.default_rng(seed)
    index = 0
    for n, inputs, rec_trials, bcw_trials in sizes:
        for kind in SEARCH_CLASSES:
            for i in range(inputs):
                x, y = _search_pair(rng, n, kind)
                for label, rcfg in searches.items():
                    trials = bcw_trials if rcfg is None else rec_trials
                    name = f"{label} {kind} n={n} input {i}"
                    stream = (seed, index)
                    index += 1
                    yield (name, partial(_search, qc, rcfg, x, y, trials,
                                         stream, n, name))
    cli_n, cli_trials, model_n = (16, 8, 1 << 10) if tiny else (64, 32, 1 << 20)
    yield ("qcomm intersect", partial(_cli_intersect, qc, [
        "intersect", "--n", cli_n, "--seed", seed, "--trials", cli_trials]))
    yield ("qcomm intersect cost-only", partial(_cli_cost_only, qc, [
        "intersect", "--n", model_n, "--cost-only"]))
    probes = [1 << k for k in range(4, model_n.bit_length())]
    yield ("fit_cost_envelope", partial(_envelope, qc, probes))


# ---------------------------------------------------------------- witness

def _protocol(qc, kind: str, fn: str, n: int):
    zoo, ranklab = qc.zoo, qc.ranklab
    target = ranklab.build_comm_matrix(fn, n)
    if kind == "trivial":
        return zoo.trivial_exact_protocol(target), target
    return zoo.ndet_svd_protocol(ranklab.canonical_witness(fn, n)).protocol, target


def _to_witness(qc, protocol, target, seed, n, name, check, costs):
    w = qc.ranklab.protocol_to_witness(protocol, target, seed=seed)
    check.expect(np.array_equal(_pattern(w.matrix), target.values == 1),
                 f"{name}: witness pattern differs from the target")
    bound = 1 << (protocol.declared_cost - 1)
    check.expect(w.rank <= bound, f"{name}: witness rank {w.rank} > {bound}")
    costs.add(n, protocol.declared_cost)


def _transcript_families(engine, protocol):
    """Output-bit-1 transcript components A_i(x) and B_i(y), as
    [transcripts, 2^n, dim] arrays."""
    dim = 1 << protocol.input_bits
    a = [engine.yao_kremer_decompose(protocol, x, 0).output_components()[0]
         for x in range(dim)]
    b = [engine.yao_kremer_decompose(protocol, 0, y).output_components()[1]
         for y in range(dim)]
    return np.stack(a, axis=1), np.stack(b, axis=1)


def _scalarize(qc, a, b, target, seeds, name, check, costs):
    for s in seeds:
        trial = qc.ranklab.lemma2_scalarize(a, b, target, seed=s)
        ok = (trial.success and trial.witness is not None
              and np.array_equal(_pattern(trial.v_table), target.values == 1))
        check.expect(ok, f"{name} seed {s}: pattern differs from the target")
        if ok:
            check.expect(trial.witness.rank <= a.shape[0],
                         f"{name} seed {s}: rank above the family size")


def _reconstruct(qc, protocol, pairs, name, check, costs):
    engine = qc.engine
    for x, y in pairs:
        d = engine.yao_kremer_decompose(protocol, int(x), int(y))
        direct = engine.simulate(protocol, int(x), int(y)).final_state
        err = float(np.max(np.abs(d.reconstruct() - direct)))
        check.expect(err <= STATE_TOL, f"{name} ({x},{y}): error {err:.3g}")


def _monomials(qc, am, name, check, costs):
    rep = qc.ranklab.monomial_rank_audit(am)
    rank = qc.linalg.exact_rank(am.values)
    check.expect(rep.ok and rep.monomials == rank,
                 f"{name}: {rep.monomials} monomials, exact rank {rank}")


def witness(qc, seed: int, tiny: bool, out_dir: Path) -> Iterator:
    """Witness extraction from svd and trivial protocols, seeded Lemma 2
    scalarisations of fixed transcript families, transcript reconstruction
    against simulate(), and monomials = exact rank on AND-dependent
    matrices.

    Above n = 3 only two protocols are extracted, one of them with 2^5
    transcripts, and exact rank stops at n = 6: short jobs keep the
    benchmark steady under load from other tenants (see tabulate)."""
    engine = qc.engine
    rng = np.random.default_rng(seed)
    extract = [(kind, fn, n) for n in ((2,) if tiny else (2, 3))
               for kind, fn in (("svd", "EQ"), ("svd", "NEQ"), ("svd", "INT"),
                                ("svd", "DISJ"), ("trivial", "EQ"),
                                ("trivial", "DISJ"), ("trivial", "INT"))]
    if not tiny:
        extract += [("svd", "INT", 4), ("trivial", "EQ", 4)]
    recon_n, recon_pairs = (2, 1) if tiny else (3, 2)
    for kind, fn, n in extract:
        protocol, target = _protocol(qc, kind, fn, n)
        name = f"{kind}-{fn} n={n}"
        yield (f"protocol_to_witness {name}", partial(
            _to_witness, qc, protocol, target, seed, n, name))
        if n == recon_n:
            pairs = rng.integers(0, 1 << n, size=(recon_pairs, 2))
            yield (f"reconstruct {name}", partial(
                _reconstruct, qc, protocol, pairs, name))

    families = [("svd", "INT", 2)] if tiny else [
        ("svd", "INT", 3), ("trivial", "EQ", 3), ("svd", "DISJ", 3)]
    calls = 1 if tiny else 2
    for kind, fn, n in families:
        protocol, target = _protocol(qc, kind, fn, n)
        a, b = _transcript_families(engine, protocol)
        seeds = [seed * calls + k for k in range(calls)]
        name = f"lemma2 {kind}-{fn} n={n}"
        yield (name, partial(_scalarize, qc, a, b, target, seeds, name))

    for n in ((3,) if tiny else (4, 5, 6)):
        # P(x,y) = g(x AND y) with g drawn from {0, 1/8, ..., 1}
        g = rng.integers(0, 9, size=1 << n) / 8.0
        xs = np.arange(1 << n)
        am = engine.AcceptanceMatrix(n=n, values=g[xs[:, None] & xs[None, :]])
        name = f"monomial-rank n={n}"
        yield (name, partial(_monomials, qc, am, name))

    audit_n = 2 if tiny else 4
    for audit in ("disj-triangular", "monomial-rank", "eq-fullrank"):
        argv = ["audit", audit, "--n", audit_n, "--seed", seed, "--trials", 2]
        yield (f"qcomm audit {audit}", partial(_cli_audit, qc, argv))


@dataclass(frozen=True)
class Workload:
    build: Callable
    # wrapped names that must receive calls on this workload ...
    exercises: tuple
    # ... and names that must receive none
    idle: tuple = ()


WORKLOADS = {
    "tabulate": Workload(tabulate, exercises=(
        "linalg.apply_on_qubits", "linalg.is_unitary",
        "linalg.unitary_with_first_column", "linalg.numeric_rank",
        "engine.simulate", "engine.acceptance_matrix", "zoo.step_build",
        "cli.main"), idle=("zoo.qsearch", "zoo.bcw_intersection")),
    "search": Workload(search, exercises=(
        "zoo.qsearch", "zoo.bcw_intersection", "zoo.recursive_intersection",
        "cli.main"), idle=("engine.simulate", "linalg.apply_on_qubits")),
    "witness": Workload(witness, exercises=(
        "linalg.exact_rank", "linalg.numeric_rank", "engine.simulate",
        "engine.acceptance_matrix", "engine.yao_kremer_decompose",
        "ranklab.protocol_to_witness", "ranklab.lemma2_scalarize",
        "ranklab.fold_to_polynomial", "ranklab.monomial_rank_audit",
        "ranklab.disj_triangular_audit", "cli.main")),
}
