"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line on the real terminal (bypassing
capture) and then asserts, so a plain pytest run shows the scorecard.
"""

import math

import numpy as np

from helpers import grover_state
from qcommlab import cli, engine, linalg, ranklab, zoo


def _report(capsys, num, ok, detail):
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    with capsys.disabled():
        print(line)
    assert ok, line


def _pattern_matches(protocol, target):
    am = engine.acceptance_matrix(protocol)
    return bool(np.array_equal(am.values > 1e-9, target.values == 1))


def test_criterion_1_eq_disj_cost_equals_n_plus_1(capsys):
    details = []
    ok = True
    for fn in ("EQ", "DISJ"):
        for n in (1, 2, 3, 4):
            target = ranklab.build_comm_matrix(fn, n)
            bundle = zoo.ndet_svd_protocol(ranklab.canonical_witness(fn, n))
            good = (bundle.protocol.declared_cost == n + 1
                    and _pattern_matches(bundle.protocol, target))
            ok &= good
            details.append(f"{fn}_{n}:{bundle.protocol.declared_cost}")
    # the command-line path agrees
    ok &= cli.main(["ndet", "--fn", "EQ", "--n", "3"]) == 0
    ok &= cli.main(["ndet", "--fn", "DISJ", "--n", "3"]) == 0
    capsys.readouterr()
    _report(capsys, 1, ok, "costs " + " ".join(details))


def test_criterion_2_neq_and_int_upper_bounds(capsys):
    ok = True
    details = []
    for n in (1, 2, 3, 4):
        cost = zoo.ndet_svd_protocol(
            ranklab.canonical_witness("NEQ", n)).protocol.declared_cost
        ok &= cost == 2
        details.append(f"NEQ_{n}:{cost}")
    for n in (2, 4, 8):
        cost = zoo.ndet_svd_protocol(
            ranklab.canonical_witness("INT", n)).protocol.declared_cost
        ok &= cost == int(math.log2(n)) + 1
        details.append(f"INT_{n}:{cost}")
    _report(capsys, 2, ok, " ".join(details))


def test_criterion_3_rank_bound_over_corpus(capsys):
    ok = True
    worst = ""
    for n in (1, 2, 3, 4):
        for entry in zoo.protocol_corpus(n):
            am = engine.acceptance_matrix(entry.protocol)
            rank = linalg.numeric_rank(am.values)
            bound = 1 << max(0, 2 * entry.protocol.declared_cost - 2)
            good = rank <= bound
            if entry.exact_rational:
                good &= linalg.exact_rank(am.values) == rank
            if not good:
                worst = f"{entry.name}@n={n} rank {rank} bound {bound}"
            ok &= good
    _report(capsys, 3, ok, worst or "all corpus protocols within 2^(2l-2)")


def test_criterion_4_transcript_reconstruction(capsys):
    ok = True
    max_err = 0.0
    for n in (1, 2, 3):
        for entry in zoo.protocol_corpus(n):
            if entry.protocol.declared_cost > 8:
                continue
            for xi in range(1 << n):
                for yi in range(1 << n):
                    d = engine.yao_kremer_decompose(entry.protocol, xi, yi)
                    direct = engine.simulate(entry.protocol, xi, yi).final_state
                    err = float(np.linalg.norm(d.reconstruct() - direct))
                    max_err = max(max_err, err)
    ok = max_err <= 1e-9
    _report(capsys, 4, ok, f"max reconstruction error {max_err:.2e}")


def test_criterion_5_witness_pipeline_and_scalarization(capsys):
    ok = True
    details = []
    for fn, n in [("EQ", 2), ("NEQ", 2), ("INT", 4)]:
        target = ranklab.build_comm_matrix(fn, n)
        p = zoo.ndet_svd_protocol(ranklab.canonical_witness(fn, n)).protocol
        w = ranklab.protocol_to_witness(p, target, seed=5)
        bound = 1 << (p.declared_cost - 1)
        ok &= w.rank <= bound
        details.append(f"{fn}_{n}:rank{w.rank}<= {bound}")
    # 1000 seeded scalarization trials on the NEQ_2 transcript families
    target = ranklab.build_comm_matrix("NEQ", 2)
    p = zoo.ndet_svd_protocol(ranklab.canonical_witness("NEQ", 2)).protocol
    count = 1 << p.declared_cost
    a_parts = [engine.yao_kremer_decompose(p, xi, 0).output_components()[0]
               for xi in range(4)]
    b_parts = [engine.yao_kremer_decompose(p, 0, yi).output_components()[1]
               for yi in range(4)]
    a_tab = np.stack([np.stack([a_parts[xi][i] for xi in range(4)])
                      for i in range(count)])
    b_tab = np.stack([np.stack([b_parts[yi][i] for yi in range(4)])
                      for i in range(count)])
    hits = 0
    for seed in range(1000):
        trial = ranklab.lemma2_scalarize(a_tab, b_tab, target, seed=seed)
        hits += trial.success and trial.attempt == 0
    ok &= hits >= 999
    details.append(f"scalarization {hits}/1000")
    _report(capsys, 5, ok, " ".join(details))


def _intersection_stats(pairs, trials, runner):
    false_pos = 0
    min_success = 1.0
    for idx, (x, y) in enumerate(pairs):
        hits = 0
        for t in range(trials):
            res = runner(x, y, (idx, t))
            if res.index is not None:
                if x[res.index] & y[res.index]:
                    hits += 1
                else:
                    false_pos += 1
        if any(a & b for a, b in zip(x, y)):
            min_success = min(min_success, hits / trials)
    return false_pos, min_success


def test_criterion_6_one_sided_intersection(capsys):
    trials = 200
    # exhaustive at n = 4
    pairs4 = [([int(c) for c in format(xi, "04b")],
               [int(c) for c in format(yi, "04b")])
              for xi in range(16) for yi in range(16)]
    fp4, ms4 = _intersection_stats(
        pairs4, trials,
        lambda x, y, s: zoo.bcw_intersection(x, y, zoo.QSearchConfig(rng_seed=s)))
    rng = np.random.default_rng(2024)
    pairs8 = [(rng.integers(0, 2, size=8).tolist(),
               rng.integers(0, 2, size=8).tolist()) for _ in range(64)]
    fp8, ms8 = _intersection_stats(
        pairs8, trials,
        lambda x, y, s: zoo.bcw_intersection(x, y, zoo.QSearchConfig(rng_seed=s)))
    rcfg = zoo.RecursionConfig(base_threshold=16)  # force real recursion
    pairs64 = [(rng.integers(0, 2, size=64).tolist(),
                rng.integers(0, 2, size=64).tolist()) for _ in range(64)]
    fp64, ms64 = _intersection_stats(
        pairs64, trials,
        lambda x, y, s: zoo.recursive_intersection(
            x, y, rcfg, zoo.QSearchConfig(rng_seed=s)))
    ok = (fp4 == fp8 == fp64 == 0
          and min(ms4, ms8, ms64) >= 0.43)
    _report(capsys, 6, ok,
            f"false positives {fp4}/{fp8}/{fp64}, "
            f"min success n4={ms4:.3f} n8={ms8:.3f} n64={ms64:.3f}")


def test_criterion_7_cost_accounting_and_recursion(capsys):
    rcfg = zoo.RecursionConfig()
    cfg = lambda s: zoo.QSearchConfig(rng_seed=s)  # noqa: E731
    r1 = zoo.recursive_intersection([1], [1], rcfg, cfg(0))
    r0 = zoo.recursive_intersection([1], [0], rcfg, cfg(0))
    ok = r1.cost == 2 and r0.cost == 2

    def sample_costs(n, seeds):
        rng = np.random.default_rng(99)
        costs = []
        for s in seeds:
            x = rng.integers(0, 2, size=n).tolist()
            y = rng.integers(0, 2, size=n).tolist()
            costs.append(zoo.recursive_intersection(x, y, rcfg, cfg(s)).cost)
        return max(costs)

    # cost_model is the exact worst case over the coins: no seed exceeds it
    models = {n: zoo.cost_model(n, rcfg) for n in (4, 16, 64)}
    worst = {n: sample_costs(n, range(200)) for n in models}
    ok &= all(worst[n] <= models[n] for n in models)
    fit = zoo.fit_cost_envelope([2 ** 4, 2 ** 8, 2 ** 16, 2 ** 32, 2 ** 64])
    ok &= fit.monotone
    pairs = ", ".join(f"n={n} {worst[n]}/{models[n]:g}" for n in models)
    _report(capsys, 7, ok,
            "C_1=2 exact, sampled cost <= cost_model on seeds 0..199 "
            f"(worst/model {pairs}), "
            f"envelope ratios {[round(r, 1) for r in fit.ratios]}")


def test_criterion_8_diagonal_polynomial_chain(capsys):
    rng = np.random.default_rng(808)
    ok = True
    checked = 0
    for n in (2, 3, 4, 5):
        for _ in range(50):
            am = ranklab.random_and_dependent_acceptance(n, rng)
            poly = ranklab.fold_to_polynomial(am)
            monomials = poly.monomial_count()
            rank = linalg.exact_rank(am.values)
            ok &= monomials == rank == linalg.numeric_rank(am.values)
            checked += 1
    # exactly correct protocol is in particular 2/3-correct
    disj = ranklab.build_comm_matrix("DISJ", 3)
    am = engine.acceptance_matrix(zoo.trivial_exact_protocol(disj))
    rep = ranklab.nor_approx_audit(ranklab.fold_to_polynomial(am))
    ok &= rep.ok
    _report(capsys, 8, ok,
            f"{checked} matrices monomials==rank, NOR approx ok, "
            f"reported lower bound {rep.predicted_monomial_lower_bound:.3f}")


def test_criterion_9_amplitude_amplification(capsys):
    st = grover_state(np.full(4, 0.5), [2], 1)
    exact = abs(abs(st[2]) ** 2 - 1.0) <= 1e-9
    ok = exact
    rates = []
    for n in (4, 16, 64):
        hits = sum(
            zoo.qsearch(np.full(n, 1 / math.sqrt(n)), [n - 1],
                        zoo.QSearchConfig(rng_seed=s)).outcome is not None
            for s in range(200))
        rates.append(hits / 200)
        ok &= hits / 200 >= 0.5
    empty = zoo.qsearch(np.full(8, 1 / math.sqrt(8)), [],
                        zoo.QSearchConfig(rng_seed=0))
    ok &= empty.outcome is None
    _report(capsys, 9, ok,
            f"exact N=4 one-step {exact}, success rates {rates}, "
            "empty predicate returns none")
