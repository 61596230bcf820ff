import json

import numpy as np
import pytest

from qcommlab import engine, linalg, ranklab, zoo
from qcommlab.errors import (CapacityError, FamilyHypothesisError,
                             PatternMismatchError, ProbabilisticFailureError)


def test_build_comm_matrix_tables():
    eq2 = ranklab.build_comm_matrix("EQ", 2)
    assert np.array_equal(eq2.values, np.eye(4))
    disj2 = ranklab.build_comm_matrix("DISJ", 2)
    assert int(disj2.values.sum()) == 9
    int1 = ranklab.build_comm_matrix("INT", 1)
    assert np.array_equal(int1.values, [[0, 0], [0, 1]])
    neq2 = ranklab.build_comm_matrix("NEQ", 2)
    assert np.array_equal(neq2.values, 1 - eq2.values)
    with pytest.raises(ValueError):
        ranklab.build_comm_matrix("MAJ", 2)
    with pytest.raises(ValueError):
        ranklab.build_comm_matrix("EQ", 11)


def test_comm_matrix_reads_bool_and_numeric_tables_alike():
    table = np.random.default_rng(3).integers(0, 2, size=(8, 8))
    want = ranklab.CommMatrix(3, "f", table.astype(bool))
    assert want.values.dtype == np.uint8
    for dtype in (np.uint8, int, float):
        got = ranklab.CommMatrix(3, "f", table.astype(dtype))
        assert (got.n, got.name) == (want.n, want.name)
        assert got.values.dtype == np.uint8, dtype
        assert np.array_equal(got.values, want.values), dtype
    assert ranklab.build_comm_matrix("INT", 3).values.dtype == np.uint8
    for bad in (2, 0.5, -1):
        wrong = table.astype(type(bad))
        wrong[1, 2] = bad
        with pytest.raises(ValueError, match="0/1"):
            ranklab.CommMatrix(3, "f", wrong)


def test_table_and_polynomial_n_is_an_integer():
    # the integer rule of AcceptanceMatrix: a bool or a float is no n, and
    # a numpy integer is read as an int, also in the JSON
    for bad in (True, 1.0, np.True_, np.float64(1)):
        with pytest.raises(ValueError, match="^n must be an integer$"):
            ranklab.CommMatrix(bad, "f", np.eye(2, dtype=int))
        with pytest.raises(ValueError, match="^n must be an integer$"):
            ranklab.FoldedPolynomial(n=bad, coeffs=[1.0, -1])
    table = ranklab.CommMatrix(np.int64(1), "f", np.eye(2, dtype=int))
    assert type(table.n) is int
    assert json.loads(table.to_json()) == {"n": 1, "values": [[1, 0], [0, 1]]}
    poly = ranklab.FoldedPolynomial(n=np.uint8(1), coeffs=[1.0, -1])
    assert type(poly.n) is int and poly.evaluate(1) == 0.0


def test_canonical_witness_takes_the_sizes_and_names_of_the_tables():
    for fn in ranklab.FUNCTION_NAMES:
        # a bool or a non-integer is not a size, and fails the size rule
        for n in (0, -1, ranklab.COMM_N_GUARD + 1, True, 2.5, np.float64(2)):
            with pytest.raises(ValueError, match="n must be in"):
                ranklab.canonical_witness(fn, n)
            with pytest.raises(ValueError, match="n must be in"):
                ranklab.build_comm_matrix(fn, n)
        assert ranklab.canonical_witness(fn, np.int64(2)).shape == (4, 4)
    with pytest.raises(ValueError, match="unknown function"):
        ranklab.canonical_witness("MAJ", 2)


def test_comm_matrix_csv_matches_per_entry_format():
    cases = [(fn, n) for fn in ranklab.FUNCTION_NAMES for n in (1, 2, 3, 4)]
    for fn, n in cases + [("EQ", 10)]:
        cm = ranklab.build_comm_matrix(fn, n)
        want = "\n".join(",".join(str(int(v)) for v in row)
                         for row in cm.values) + "\n"
        assert cm.to_csv() == want, (fn, n)


def test_verify_witness_accepts_and_ranks():
    w = ranklab.verify_ndet_witness(np.eye(8), ranklab.build_comm_matrix("EQ", 3))
    assert w.rank == 8
    m = ranklab.canonical_witness("NEQ", 3)
    w = ranklab.verify_ndet_witness(m, ranklab.build_comm_matrix("NEQ", 3))
    assert w.rank == 2
    assert linalg.exact_rank(m) == 2


def test_verify_witness_rejects_wrong_shape():
    target = ranklab.build_comm_matrix("EQ", 2)
    for m in (np.eye(2), np.eye(8), np.ones(16), np.eye(4)[:, :3]):
        with pytest.raises(ValueError, match="witness shape does not match"):
            ranklab.verify_ndet_witness(m, target)


def test_verify_witness_rejects_with_counterexamples():
    with pytest.raises(PatternMismatchError) as err:
        ranklab.verify_ndet_witness(np.ones((4, 4)),
                                    ranklab.build_comm_matrix("EQ", 2))
    assert len(err.value.counterexamples) == 12


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_verify_witness_rejects_nan_and_inf(bad):
    m = ranklab.canonical_witness("NEQ", 2)
    m[0, 1] = bad
    with pytest.raises(ValueError):
        ranklab.verify_ndet_witness(m, ranklab.build_comm_matrix("NEQ", 2))


def test_small_witness_entry_keeps_its_acceptance_support():
    # P(x,y) = c_x^2 |m_xy|^2: an entry 1e-6 of the others in the witness
    # is accepted with probability ~1e-13 of the largest, which is nonzero
    # on the amplitude scale
    target = ranklab.build_comm_matrix("NEQ", 2)
    m = ranklab.canonical_witness("NEQ", 2)
    m[0, 1] *= 1e-6
    assert ranklab.verify_ndet_witness(m, target).rank == 3
    p = zoo.ndet_svd_protocol(m).protocol
    w = ranklab.protocol_to_witness(p, target, seed=1)
    assert w.rank <= 1 << (p.declared_cost - 1)
    am = engine.acceptance_matrix(p)
    assert 0 < am.values[0, 1] < 1e-9 * am.values.max()
    assert np.array_equal(am.support(), target.values == 1)


def test_eq_fullrank_audit():
    for n, trials in [(1, 10), (3, 100), (4, 100)]:
        rep = ranklab.eq_fullrank_audit(n, trials, seed=7)
        assert rep.ok and rep.trials == trials
        assert rep.detail["expected_rank"] == 2 ** n


@pytest.mark.parametrize("audit", [ranklab.eq_fullrank_audit,
                                   ranklab.disj_triangular_audit],
                         ids=["eq-fullrank", "disj-triangular"])
def test_fullrank_audits_reject_negative_trials(audit):
    for trials in (-3, -1):
        with pytest.raises(ValueError, match="^trials must be >= 0$"):
            audit(2, trials=trials, seed=1)
    rep = audit(2, trials=0, seed=1)
    assert rep.ok and rep.trials == 0
    # True is no count, and no audit runs 2.5 trials
    for trials in (True, 2.5):
        with pytest.raises(ValueError, match="^trials must be an integer$"):
            audit(2, trials=trials, seed=1)
    rep = audit(2, trials=np.int64(2), seed=1)
    assert rep.ok and json.loads(rep.to_json())["trials"] == 2


@pytest.mark.parametrize("audit", [ranklab.eq_fullrank_audit,
                                   ranklab.disj_triangular_audit],
                         ids=["eq-fullrank", "disj-triangular"])
@pytest.mark.parametrize("n", [-1, 0, 9, 2.5, True])
def test_fullrank_audits_take_sizes_1_to_8_only(audit, n):
    with pytest.raises(ValueError, match=r"^n must be an integer in 1\.\.8$"):
        audit(n, trials=1, seed=1)


def test_disj_ordering_triangularizes():
    rows, cols = ranklab.disj_ordering(2)
    disj = ranklab.build_comm_matrix("DISJ", 2).values
    perm = disj[np.ix_(rows, cols)]
    assert np.all(np.diag(perm) == 1)
    assert np.all(np.tril(perm, -1) == 0)


def test_disj_triangular_audit():
    for n, trials in [(1, 10), (2, 50), (4, 100)]:
        rep = ranklab.disj_triangular_audit(n, trials, seed=5)
        assert rep.ok, rep.failures
    obj = json.loads(rep.to_json())
    assert obj["ok"] is True


def reference_structure_failures(fn, n, rows, cols):
    """The audit's structural check as a loop over the ordered pattern."""
    pattern = ranklab.build_comm_matrix(fn, n).values
    failures = [{"kind": "diagonal", "i": i} for i in range(1 << n)
                if not pattern[rows[i], cols[i]]]
    for i in range(1 << n):
        for j in range(i):
            if pattern[rows[i], cols[j]]:
                failures.append({"kind": "below-diagonal", "i": i, "j": j})
    return failures


def test_fullrank_audit_structure_matches_loop_reference():
    flagged = 0
    for n in (1, 2, 3, 4):
        dim = 1 << n
        identity = list(range(dim))
        cases = [("EQ", identity, identity),
                 ("EQ", identity[::-1], identity),
                 ("DISJ", *ranklab.disj_ordering(n)),
                 ("DISJ", identity, identity)]
        for fn, rows, cols in cases:
            rep = ranklab._fullrank_audit(fn, n, 0, 5, rows, cols)
            want = reference_structure_failures(fn, n, rows, cols)
            assert rep.failures == want, (fn, n, rows)
            assert rep.ok == (not want)
            flagged += bool(want)
    # the identity ordering does not triangularize DISJ
    rep = ranklab._fullrank_audit("DISJ", 2, 5, 5, range(4), range(4))
    kinds = {f["kind"] for f in rep.failures}
    assert kinds == {"diagonal", "below-diagonal"}
    assert flagged == 8


def test_scalarize_rejects_family_violating_hypothesis():
    # e_x (x) e_y is never zero, so it cannot witness EQ's 0-set
    a = np.zeros((1, 2, 2))
    b = np.zeros((1, 2, 2))
    for v in range(2):
        a[0, v, v] = 1.0
        b[0, v, v] = 1.0
    with pytest.raises(FamilyHypothesisError):
        ranklab.lemma2_scalarize(a, b, ranklab.build_comm_matrix("EQ", 1))


def neq1_difference_family():
    # a_1(x) = x, b_1(y) = 1, a_2(x) = 1, b_2(y) = -y: sum = x - y
    a = np.zeros((2, 2, 1))
    b = np.zeros((2, 2, 1))
    for v in range(2):
        a[0, v, 0] = v
        b[0, v, 0] = 1.0
        a[1, v, 0] = 1.0
        b[1, v, 0] = -v
    return a, b


def test_scalarize_difference_family_for_neq():
    a, b = neq1_difference_family()
    trial = ranklab.lemma2_scalarize(a, b, ranklab.build_comm_matrix("NEQ", 1),
                                     seed=3)
    assert trial.success and trial.witness.rank <= 2
    assert np.all(trial.alpha >= 1.0) and np.all(trial.alpha < 2.0)


def test_scalarize_rejects_non_3d_families_and_disagreeing_sizes():
    a, b = neq1_difference_family()
    target = ranklab.build_comm_matrix("NEQ", 1)
    for bad_a, bad_b in ((a[0], b), (a, b[0]), (a[..., None], b),
                         (a, b[None]), (a[:, :1], b), (a, b[:, :1])):
        with pytest.raises(ValueError, match=r"families must be \[m, 2\^n"):
            ranklab.lemma2_scalarize(bad_a, bad_b, target)
    with pytest.raises(ValueError, match="family sizes disagree"):
        ranklab.lemma2_scalarize(a, b[:1], target)


def test_scalarize_failure_names_its_budget_and_bound(monkeypatch):
    a, b = neq1_difference_family()
    monkeypatch.setattr(ranklab, "SCALARIZE_RETRY_BUDGET", 0)
    with pytest.raises(ProbabilisticFailureError) as err:
        ranklab.lemma2_scalarize(a, b, ranklab.build_comm_matrix("NEQ", 1))
    # 2 ones in the NEQ_1 table, each missed with probability <= 2 / 2^24
    assert str(err.value) == ("no pattern match in 0 attempts "
                              "(per-attempt failure bound 2.38e-07)")


def test_scalarize_seeded_success_rate():
    t = ranklab.build_comm_matrix("NEQ", 2)
    p = zoo.ndet_svd_protocol(ranklab.canonical_witness("NEQ", 2)).protocol
    d = {xi: engine.yao_kremer_decompose(p, xi, 0).output_components()[0]
         for xi in range(4)}
    count = 1 << p.declared_cost
    a_tab = np.stack([np.stack([d[xi][i] for xi in range(4)])
                      for i in range(count)])
    b_tab = np.stack([np.stack(
        [engine.yao_kremer_decompose(p, 0, yi).output_components()[1][i]
         for yi in range(4)]) for i in range(count)])
    hits = 0
    for seed in range(100):
        trial = ranklab.lemma2_scalarize(a_tab, b_tab, t, seed=seed)
        hits += trial.success and trial.attempt == 0
    assert hits >= 99


def test_protocol_to_witness_rank_bounds():
    for fn, n in [("EQ", 2), ("NEQ", 2), ("INT", 4)]:
        target = ranklab.build_comm_matrix(fn, n)
        p = zoo.ndet_svd_protocol(ranklab.canonical_witness(fn, n)).protocol
        w = ranklab.protocol_to_witness(p, target, seed=1)
        assert w.rank <= 2 ** (p.declared_cost - 1), (fn, n)
        assert w.target.name == fn


def test_protocol_to_witness_trivial_eq2_is_tight():
    target = ranklab.build_comm_matrix("EQ", 2)
    p = zoo.trivial_exact_protocol(target)
    w = ranklab.protocol_to_witness(p, target, seed=2)
    assert w.rank == 4  # full rank forces cost >= n + 1


def test_protocol_to_witness_always_accept():
    lay = engine.RegisterLayout(0, 1, 0)
    x_gate = np.array([[0.0, 1.0], [1.0, 0.0]])
    def every_input(inputs):
        flips = np.broadcast_to(x_gate, (len(inputs), 2, 2))
        return [linalg.GateStack(flips, (0,))]

    p = engine.Protocol(lay, (engine.ProtocolStep(
        engine.ALICE, (0,), every_input),), input_bits=1)
    ones = ranklab.CommMatrix(1, "custom", np.ones((2, 2), dtype=int))
    w = ranklab.protocol_to_witness(p, ones, seed=0)
    assert w.rank == 1


def test_protocol_to_witness_requires_matching_pattern():
    p = zoo.trivial_exact_protocol(ranklab.build_comm_matrix("EQ", 2))
    with pytest.raises(ValueError):
        ranklab.protocol_to_witness(p, ranklab.build_comm_matrix("DISJ", 2))


def test_protocol_to_witness_rejects_a_target_of_another_size():
    p = zoo.trivial_exact_protocol(ranklab.build_comm_matrix("EQ", 2))
    for n in (1, 3):
        with pytest.raises(ValueError, match="disagree on n"):
            ranklab.protocol_to_witness(p, ranklab.build_comm_matrix("EQ", n))


def test_protocol_to_witness_of_a_protocol_that_never_accepts():
    # rank 0: no message, so the output qubit is never sent and its
    # output-1 components are the zero family
    p = zoo.ndet_svd_protocol(np.zeros((4, 4))).protocol
    assert p.declared_cost == 0
    a1, b1, holder = engine.yao_kremer_decompose(p, 1, 2).output_components()
    assert holder is None and not np.any(a1)
    a_tab, b_tab = engine.output_families(p)
    assert a_tab.shape[:2] == (1, 4) and not np.any(a_tab)
    never = ranklab.CommMatrix(2, "never", np.zeros((4, 4), dtype=int))
    with pytest.raises(ValueError, match="protocol never accepts"):
        ranklab.protocol_to_witness(p, never)


def test_is_and_dependent():
    disj = engine.acceptance_matrix(
        zoo.trivial_exact_protocol(ranklab.build_comm_matrix("DISJ", 2)))
    assert ranklab.is_and_dependent(disj)
    eq = engine.acceptance_matrix(
        zoo.trivial_exact_protocol(ranklab.build_comm_matrix("EQ", 2)))
    assert not ranklab.is_and_dependent(eq)
    half = engine.AcceptanceMatrix(n=2, values=np.full((4, 4), 0.5))
    assert ranklab.is_and_dependent(half)
    # 1 AND 2 = 0: one off-diagonal entry away from P(0, 0) breaks it
    broken = disj.values.copy()
    broken[1, 2] = 0.75
    assert not ranklab.is_and_dependent(engine.AcceptanceMatrix(n=2, values=broken))
    broken[1, 2] = 1.0 - 1e-12
    assert ranklab.is_and_dependent(engine.AcceptanceMatrix(n=2, values=broken))


def test_fold_constant_one():
    am = engine.AcceptanceMatrix(n=2, values=np.ones((4, 4)))
    poly = ranklab.fold_to_polynomial(am)
    assert poly.coeffs[0] == 1.0 and np.all(poly.coeffs[1:] == 0.0)


def test_fold_nor_pattern_small():
    am = engine.AcceptanceMatrix(n=1, values=np.array([[1.0, 1.0],
                                                       [1.0, 0.0]]))
    poly = ranklab.fold_to_polynomial(am)
    assert np.allclose(poly.coeffs, [1.0, -1.0])


def test_fold_common_ones_fraction():
    xs = np.arange(4)[:, None]
    ys = np.arange(4)[None, :]
    vals = np.vectorize(lambda v: bin(v).count("1") / 2.0)(xs & ys)
    am = engine.AcceptanceMatrix(n=2, values=vals)
    poly = ranklab.fold_to_polynomial(am)
    assert sorted(poly.coeffs) == [0.0, 0.0, 0.5, 0.5]
    rep = ranklab.monomial_rank_audit(am)
    assert rep == (2, 2, True)


def test_monomial_rank_on_disj_pattern():
    am = engine.AcceptanceMatrix(
        n=2, values=ranklab.build_comm_matrix("DISJ", 2).values.astype(float))
    poly = ranklab.fold_to_polynomial(am)
    assert np.allclose(poly.coeffs, [1, -1, -1, 1])
    rep = ranklab.monomial_rank_audit(am)
    assert rep == (4, 4, True)


def test_monomial_rank_random_and_dependent():
    rng = np.random.default_rng(21)
    for n in (2, 3, 4, 5):
        for _ in range(10):
            am = ranklab.random_and_dependent_acceptance(n, rng)
            rep = ranklab.monomial_rank_audit(am)
            assert rep.ok, (n, rep)


def test_random_and_dependent_acceptance_takes_the_sizes_of_the_tables():
    rng = np.random.default_rng(0)
    for n in (0, ranklab.COMM_N_GUARD + 1, True, 2.5, np.float64(2)):
        with pytest.raises(ValueError, match="n must be in"):
            ranklab.random_and_dependent_acceptance(n, rng)


def reference_fold(diag):
    """The bit-by-mask Moebius loop the subset-sum transform replaced."""
    c = np.array(diag, dtype=float)
    for b in range(c.size.bit_length() - 1):
        bit = 1 << b
        for mask in range(c.size):
            if mask & bit:
                c[mask] -= c[mask ^ bit]
    return c


def reference_evaluate(coeffs, z):
    """The submask walk the subset-sum transform replaced."""
    total = 0.0
    sub = z
    while True:
        total += coeffs[sub]
        if sub == 0:
            return total
        sub = (sub - 1) & z


def test_subset_sums_match_the_loops_they_replaced():
    rng = np.random.default_rng(2005)
    for n in range(1, 9):
        for _ in range(30):
            am = ranklab.random_and_dependent_acceptance(n, rng)
            poly = ranklab.fold_to_polynomial(am)
            want = reference_fold(np.diagonal(am.values))
            assert poly.coeffs.dtype == want.dtype
            assert poly.coeffs.tobytes() == want.tobytes(), n
            values = np.array([reference_evaluate(want, z)
                               for z in range(1 << n)])
            got = np.array([poly.evaluate(z) for z in range(1 << n)])
            assert got.tobytes() == values.tobytes(), n
            want_err = max(abs(v - (z == 0)) for z, v in enumerate(values))
            assert ranklab.nor_approx_audit(poly).max_error == want_err
    # arbitrary reals: the fold does the loop's arithmetic, evaluation sums
    # the same terms in another order
    for n in range(1, 9):
        xs = np.arange(1 << n)
        g = rng.random(1 << n)
        poly = ranklab.fold_to_polynomial(
            engine.AcceptanceMatrix(n=n, values=g[xs[:, None] & xs[None, :]]))
        want = reference_fold(g)
        assert poly.coeffs.tobytes() == want.tobytes(), n
        tol = (1 << n) * np.finfo(float).eps * np.sum(np.abs(want))
        for z in range(1 << n):
            assert abs(poly.evaluate(z) - reference_evaluate(want, z)) <= tol


def test_evaluate_rejects_points_out_of_range():
    poly = ranklab.FoldedPolynomial(n=2, coeffs=np.array([1.0, -1, -1, 1]))
    assert poly.evaluate(3) == 0.0
    for z in (-1, 4, 1.5, True, np.float64(1)):
        with pytest.raises(ValueError):
            poly.evaluate(z)
    assert poly.evaluate(np.int64(1)) == poly.evaluate(1)


def test_folded_polynomial_needs_one_coefficient_per_subset():
    for n, coeffs in [(1, [1.0, 1, 1, 1]), (2, [1.0, 0]), (2, np.eye(2)),
                      (0, [])]:
        with pytest.raises(ValueError, match="coeffs must be"):
            ranklab.FoldedPolynomial(n=n, coeffs=coeffs)
    poly = ranklab.FoldedPolynomial(n=1, coeffs=[1.0, -1])
    assert poly.monomial_count() == 2 and poly.evaluate(1) == 0.0


def test_nor_approx_audit():
    disj = engine.AcceptanceMatrix(
        n=2, values=ranklab.build_comm_matrix("DISJ", 2).values.astype(float))
    rep = ranklab.nor_approx_audit(ranklab.fold_to_polynomial(disj))
    assert rep.ok and rep.max_error == 0.0
    assert rep.predicted_monomial_lower_bound == pytest.approx(2 ** (2 / 12) ** 0.5)
    zero = ranklab.FoldedPolynomial(n=1, coeffs=np.zeros(2))
    assert not ranklab.nor_approx_audit(zero).ok


def test_canonical_int_witness_counts_common_ones():
    for n in range(1, 11):
        xs = np.arange(1 << n)
        want = np.vectorize(lambda v: float(bin(v).count("1")))(
            xs[:, None] & xs[None, :])
        got = ranklab.canonical_witness("INT", n)
        assert got.dtype == want.dtype and np.array_equal(got, want), n


def reference_family_norms(a_family, b_family):
    """The per-pair Kronecker sums that the matmul family check replaced."""
    m, nx, da = a_family.shape
    _, ny, db = b_family.shape
    norms = np.zeros((nx, ny))
    for xi in range(nx):
        for yi in range(ny):
            total = np.zeros(da * db, dtype=complex)
            for i in range(m):
                total += np.kron(a_family[i, xi], b_family[i, yi])
            norms[xi, yi] = np.linalg.norm(total)
    return norms


def transcript_families(p):
    dim = 1 << p.input_bits
    a = [engine.yao_kremer_decompose(p, x, 0).output_components()[0]
         for x in range(dim)]
    b = [engine.yao_kremer_decompose(p, 0, y).output_components()[1]
         for y in range(dim)]
    return (np.stack(a, axis=1).astype(complex),
            np.stack(b, axis=1).astype(complex))


def assert_family_check_matches_reference(a, b, target):
    """lemma2_scalarize accepts exactly when the reference norms have the
    target's pattern, and otherwise names the reference's first offender."""
    pattern = linalg.support(reference_family_norms(a, b))
    bad = np.argwhere(pattern != (target.values == 1))
    if bad.size == 0:
        assert ranklab.lemma2_scalarize(a, b, target, seed=1).success
        return False
    with pytest.raises(FamilyHypothesisError) as err:
        ranklab.lemma2_scalarize(a, b, target, seed=1)
    offender = tuple(int(v) for v in bad[0])
    assert str(err.value).endswith(f"first offender (x,y) = {offender}")
    return True


def test_family_check_matches_kron_reference_on_corpus():
    rejected = accepted = 0
    for n in (1, 2, 3):
        targets = [ranklab.build_comm_matrix(fn, n)
                   for fn in ranklab.FUNCTION_NAMES]
        for entry in zoo.protocol_corpus(n):
            a, b = transcript_families(entry.protocol)
            for target in targets:
                if assert_family_check_matches_reference(a, b, target):
                    rejected += 1
                else:
                    accepted += 1
    assert accepted >= 18 and rejected > 0


def test_family_check_names_first_offender_of_perturbed_family():
    target = ranklab.build_comm_matrix("EQ", 2)
    p = zoo.ndet_svd_protocol(ranklab.canonical_witness("EQ", 2)).protocol
    a, b = transcript_families(p)
    assert not assert_family_check_matches_reference(a, b, target)
    # a trace of x = 1's vectors in x = 2's makes (2, 1) nonzero
    a[:, 2] += 1e-3 * a[:, 1]
    assert assert_family_check_matches_reference(a, b, target)
    with pytest.raises(FamilyHypothesisError, match=r"= \(2, 1\)$"):
        ranklab.lemma2_scalarize(a, b, target)


def reference_protocol_to_witness(p, target, seed=0):
    """protocol_to_witness with the families built by one decomposition
    per input of each party, 2^(n+1) walks, as before the batched walk."""
    n = p.input_bits
    if n != target.n:
        raise ValueError("protocol and target disagree on n")
    accept = engine.acceptance_matrix(p)
    if not np.array_equal(accept.support(), target.values == 1):
        raise ValueError(
            "protocol acceptance pattern does not compute the target")
    dim = 1 << n
    count = 1 << p.declared_cost
    a_tab = b_tab = None
    for xi in range(dim):
        a1, _, _ = engine.yao_kremer_decompose(p, xi, 0).output_components()
        if a_tab is None:
            a_tab = np.zeros((count, dim, a1.shape[1]), dtype=complex)
        a_tab[:, xi, :] = a1
    for yi in range(dim):
        _, b1, _ = engine.yao_kremer_decompose(p, 0, yi).output_components()
        if b_tab is None:
            b_tab = np.zeros((count, dim, b1.shape[1]), dtype=complex)
        b_tab[:, yi, :] = b1
    live = (linalg.support(np.linalg.norm(a_tab, axis=(1, 2)))
            & linalg.support(np.linalg.norm(b_tab, axis=(1, 2))))
    s_idx = np.flatnonzero(live)
    if s_idx.size == 0:
        raise ValueError("protocol never accepts; no witness family")
    trial = ranklab.lemma2_scalarize(a_tab[s_idx], b_tab[s_idx], target,
                                     seed=seed)
    return trial.witness


def test_protocol_to_witness_matches_per_input_reference_on_corpus():
    for n in (1, 2, 3, 4):
        for entry in zoo.protocol_corpus(n):
            got = ranklab.protocol_to_witness(entry.protocol, entry.target,
                                              seed=n)
            want = reference_protocol_to_witness(entry.protocol, entry.target,
                                                 seed=n)
            assert got.matrix.dtype == want.matrix.dtype, (entry.name, n)
            assert got.matrix.tobytes() == want.matrix.tobytes(), (entry.name, n)
            assert got.rank == want.rank and got.target is want.target


def test_protocol_to_witness_above_the_acceptance_guard():
    n = engine.ACCEPTANCE_N_GUARD + 1
    target = ranklab.build_comm_matrix("EQ", n)
    with pytest.raises(CapacityError):
        ranklab.protocol_to_witness(zoo.trivial_exact_protocol(target), target)
