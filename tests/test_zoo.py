import functools
import math

import numpy as np
import pytest

from helpers import grover_state
from qcommlab import engine, linalg, ranklab, zoo


def test_trivial_protocols_match_tables():
    for fn, n in [("EQ", 2), ("DISJ", 2), ("INT", 2)]:
        t = ranklab.build_comm_matrix(fn, n)
        p = zoo.trivial_exact_protocol(t)
        assert p.declared_cost == n + 1
        am = engine.acceptance_matrix(p)
        assert np.array_equal(am.values, t.values.astype(float)), fn
    disj = engine.acceptance_matrix(
        zoo.trivial_exact_protocol(ranklab.build_comm_matrix("DISJ", 2)))
    assert int(disj.values.sum()) == 9  # pairs with x AND y = 0
    intm = engine.acceptance_matrix(
        zoo.trivial_exact_protocol(ranklab.build_comm_matrix("INT", 2)))
    assert np.array_equal(intm.values, 1.0 - disj.values)


def test_svd_protocol_eq4_cost_and_pattern():
    bundle = zoo.ndet_svd_protocol(np.eye(16))
    assert bundle.r == 16
    assert bundle.protocol.declared_cost == 5
    am = engine.acceptance_matrix(bundle.protocol)
    assert np.array_equal(am.values > 1e-9,
                          ranklab.build_comm_matrix("EQ", 4).values == 1)


def test_svd_protocol_neq3_rank_two_cost_two():
    m = ranklab.canonical_witness("NEQ", 3)
    assert linalg.exact_rank(m) == 2
    bundle = zoo.ndet_svd_protocol(m)
    assert bundle.r == 2 and bundle.protocol.declared_cost == 2
    am = engine.acceptance_matrix(bundle.protocol)
    assert np.array_equal(am.values > 1e-9,
                          ranklab.build_comm_matrix("NEQ", 3).values == 1)


def test_svd_protocol_int_costs_log_n_plus_1():
    for n in (2, 4, 8):
        m = ranklab.canonical_witness("INT", n)
        bundle = zoo.ndet_svd_protocol(m)
        assert bundle.r == n
        assert bundle.protocol.declared_cost == int(math.log2(n)) + 1


def test_svd_protocols_have_one_sided_error():
    for fn in ranklab.FUNCTION_NAMES:
        for n in range(1, engine.ACCEPTANCE_N_GUARD + 1):
            m = ranklab.canonical_witness(fn, n)
            target = ranklab.build_comm_matrix(fn, n)
            bundle = zoo.ndet_svd_protocol(m)
            am = engine.acceptance_matrix(bundle.protocol)
            assert np.array_equal(am.support(), target.values == 1), (fn, n)
            pred = bundle.per_row_norm[:, None] ** 2 * np.abs(m) ** 2
            assert np.max(np.abs(am.values - pred)) <= 1e-12, (fn, n)


def test_svd_protocol_dead_rows_reject_exactly():
    m = ranklab.canonical_witness("INT", 2)  # row 0 all zero
    bundle = zoo.ndet_svd_protocol(m)
    assert bundle.per_row_norm[0] == 0.0
    am = engine.acceptance_matrix(bundle.protocol)
    assert np.all(am.values[0] == 0.0)


def test_svd_protocol_all_zero_matrix():
    bundle = zoo.ndet_svd_protocol(np.zeros((4, 4)))
    assert bundle.r == 0 and bundle.protocol.declared_cost == 0
    am = engine.acceptance_matrix(bundle.protocol)
    assert np.all(am.values == 0.0)


def test_grover_exact_on_four_states():
    st = grover_state(np.full(4, 0.5), [1], 1)
    assert abs(abs(st[1]) ** 2 - 1.0) <= 1e-9


def test_qsearch_empty_predicate_returns_none():
    cfg = zoo.QSearchConfig(rng_seed=1)
    res = zoo.qsearch(np.full(4, 0.5), [], cfg)
    assert res.outcome is None


def test_qsearch_single_solution_success_floor():
    for n in (4, 16, 64):
        hits = 0
        for s in range(200):
            res = zoo.qsearch(np.full(n, 1 / math.sqrt(n)), [n - 1],
                              zoo.QSearchConfig(rng_seed=s))
            assert res.outcome in (None, n - 1)
            hits += res.outcome is not None
        assert hits / 200 >= 0.5, n


def test_qsearch_reproducible():
    cfg = zoo.QSearchConfig(rng_seed=123)
    a = zoo.qsearch(np.full(8, 1 / math.sqrt(8)), [5], cfg)
    b = zoo.qsearch(np.full(8, 1 / math.sqrt(8)), [5], cfg)
    assert a == b


def test_controlled_flip_matches_loop_construction():
    rng = np.random.default_rng(2)
    for k in (0, 1, 2, 3):
        table = rng.integers(0, 2, size=1 << k)
        dim = 2 << k
        want = np.zeros((dim, dim))
        for c in range(1 << k):
            for t in range(2):
                want[(c << 1) | (t ^ int(table[c])), (c << 1) | t] = 1.0
        assert np.array_equal(np.eye(dim)[zoo._flip_rows(table)], want)
    with pytest.raises(ValueError):
        zoo._flip_rows([0, 2])


def test_bcw_intersection_examples():
    hits = 0
    for s in range(200):
        res = zoo.bcw_intersection("0010", "0010", zoo.QSearchConfig(rng_seed=s))
        assert res.index in (None, 2)
        hits += res.index == 2
    assert hits / 200 >= 0.5
    res = zoo.bcw_intersection("1100", "0011", zoo.QSearchConfig(rng_seed=9))
    assert res.index is None


def test_bcw_intersection_n1_cost_two():
    res = zoo.bcw_intersection("1", "1", zoo.QSearchConfig(rng_seed=0))
    assert (res.index, res.cost) == (0, 2)
    res = zoo.bcw_intersection("1", "0", zoo.QSearchConfig(rng_seed=0))
    assert (res.index, res.cost) == (None, 2)


def test_bcw_intersection_padding_never_creates_solutions():
    for s in range(50):
        res = zoo.bcw_intersection("11010", "00100",
                                   zoo.QSearchConfig(rng_seed=s))
        assert res.index in (None, 2)


def test_recursive_intersection_delegates_when_block_covers_input():
    rcfg = zoo.RecursionConfig(base_threshold=2)
    for s in range(25):
        cfg = zoo.QSearchConfig(rng_seed=s)
        a = zoo.recursive_intersection("0010011000010001", "0110000001010001",
                                       rcfg, cfg)
        b = zoo.bcw_intersection("0010011000010001", "0110000001010001", cfg)
        assert (a.index, a.cost) == (b.index, b.cost)


def test_recursive_intersection_single_common_index():
    rcfg = zoo.RecursionConfig(base_threshold=16)
    assert zoo._widths(64, 16) == (1, 5, 6)
    x = ["0"] * 64
    x[42] = "1"
    x = "".join(x)
    hits = 0
    for s in range(200):
        res = zoo.recursive_intersection(x, x, rcfg,
                                         zoo.QSearchConfig(rng_seed=s))
        assert res.index in (None, 42)
        hits += res.index == 42
    assert hits / 200 >= 0.5


def test_recursive_intersection_one_sided():
    rcfg = zoo.RecursionConfig(base_threshold=16)
    rng = np.random.default_rng(17)
    for _ in range(20):
        x = rng.integers(0, 2, size=64)
        y = rng.integers(0, 2, size=64)
        res = zoo.recursive_intersection(x, y, rcfg,
                                         zoo.QSearchConfig(rng_seed=3))
        if res.index is not None:
            assert x[res.index] & y[res.index]


def test_blocked_search_costs_less_than_bcw_on_disjoint_inputs():
    # a disjoint input runs every round, which is the worst case; the
    # blocked level's queries inside a block send only the offset, so above
    # the threshold it undercuts the flat search on average
    for n in (1 << 12, 1 << 14):
        x, y = np.ones(n, dtype=np.uint8), np.zeros(n, dtype=np.uint8)
        costs = {"rec": [], "bcw": []}
        for s in range(32):
            cfg = zoo.QSearchConfig(rng_seed=s)
            costs["rec"].append(zoo.recursive_intersection(
                x, y, zoo.RecursionConfig(), cfg).cost)
            costs["bcw"].append(zoo.bcw_intersection(x, y, cfg).cost)
        assert np.mean(costs["rec"]) < np.mean(costs["bcw"]), n


def test_cost_model_values():
    assert zoo.cost_model(1) == 2.0
    # forced single block at n = 16: the flat search, 36 rounds' worth of
    # applications of 10 qubits each, as a query and a verification cost
    # the same
    rcfg = zoo.RecursionConfig(base_threshold=2)
    assert zoo.cost_model(16, rcfg) == 360.0
    # 2^4 blocks of 2^6 offsets: 12 rounds, the fewest that spend the
    # budget of 36, each with j_leaf = 7
    assert zoo.cost_model(1024) == 6672.0


def test_blocked_index_register_has_no_padding():
    # the block and offset bits of every blocked search split the
    # ceil(log2 n) index bits, and a block holds Θ(log² n) indices:
    # 2^lbits in (vbits²/2, vbits²]
    sizes = [*range(17, (1 << 14) + 1), *(1 << k for k in range(15, 63))]
    for n in sizes:
        jbits, lbits, vbits = zoo._widths(n, 2)
        assert lbits and vbits == (n - 1).bit_length(), n
        assert jbits + lbits == vbits, n
        assert vbits ** 2 < 2 << lbits <= 2 * vbits ** 2, n


def test_cost_model_at_most_bcw_above_2_to_14():
    for k in range(14, 63):
        for n in (1 << k, (1 << k) + 1, 3 << k):
            if (1 << 14) < n <= (1 << 62):
                assert zoo.cost_model(n) <= zoo.bcw_cost_model(n), n


def test_cost_model_monotone():
    prev = 0.0
    for n in list(range(1, 300)) + [2 ** i for i in range(9, 65)]:
        c = zoo.cost_model(n)
        assert c >= prev - 1e-9, n
        prev = c


def test_cost_envelope_fit():
    ns = [2 ** 4, 2 ** 8, 2 ** 16, 2 ** 32, 2 ** 64]
    fit = zoo.fit_cost_envelope(ns)
    assert fit.monotone


def reference_widths(n, threshold=math.inf):
    """(outer index bits, in-block bits, verification bits) as the
    searches' docstrings state them."""
    vbits = math.ceil(math.log2(n))
    if n <= threshold:
        return vbits, 0, vbits
    lbits = math.floor(math.log2(vbits ** 2))
    if lbits >= vbits:
        return vbits, 0, vbits
    return vbits - lbits, lbits, vbits


@functools.cache
def reference_max_cost(widths):
    """The most qubits the search sends over every schedule it can draw,
    by a DP over (round, oracle applications spent): j of round k is below
    ceil(min(1.2^k, sqrt(dim))), j_leaf below ceil(sqrt(2^lbits)), and the
    rounds go on until ceil(9 sqrt(dim)) applications (j + 1 per round)
    are spent, the last j clamped, as on a disjoint input.  The rounds
    from the first one at the cap on share one state, as their cutoffs
    are alike."""
    jbits, lbits, vbits = widths
    if not jbits:
        return 2  # a single candidate, verified once
    leaves = np.arange(math.ceil(math.sqrt(2 ** lbits)))[:, None]

    def round_cost(j):  # best j_leaf for each j
        return (np.max(leaves * (1 + 2 * j), axis=0) * 2 * (lbits + 1)
                + j * 2 * (jbits + lbits + 1) + 2 * vbits + 2)

    root = math.sqrt(2 ** jbits)
    budget, cap = math.ceil(9 * root), math.ceil(root)
    cutoffs = [1]
    while cutoffs[-1] < cap:
        cutoffs.append(math.ceil(min(1.2 ** len(cutoffs), root)))
    last = len(cutoffs) - 1
    best = np.full((last + 1, budget), -np.inf)
    best[0, 0] = 0.0
    worst = -np.inf
    for k, c in enumerate(cutoffs):
        cost = round_cost(np.arange(c))
        now, after = best[k], best[min(k + 1, last)]
        live = np.flatnonzero(now > -np.inf)
        # ascending, so that the last state's own rounds come first; an
        # unreachable state adds nothing, as -inf + cost is -inf
        for s in live if k < last else range(live[0], budget):
            if s + c >= budget:  # a j reaches the budget and is clamped
                worst = max(worst, now[s] + cost[budget - s - 1])
            nxt = after[s + 1:s + 1 + min(c, budget - s - 1)]
            np.maximum(nxt, now[s] + cost[:nxt.size], out=nxt)
    return int(worst)


def test_cost_model_equals_the_dp_reference():
    sizes = list(range(1, 400)) + [2 ** i for i in range(9, 65)]  # 455
    checked = set()
    for threshold in (2, 16, 64, 100, 1000, math.inf):
        for n in sizes:
            widths = reference_widths(n, threshold)
            if math.ceil(9 * math.sqrt(2 ** widths[0])) > 10 ** 4:
                continue
            want = reference_max_cost(widths)
            checked.add(widths)
            got = (zoo.bcw_cost_model(n) if threshold == math.inf
                   else zoo.cost_model(
                       n, zoo.RecursionConfig(base_threshold=threshold)))
            assert got == want, (threshold, n)
            if not widths[1]:  # the flat search's closed form
                b = widths[0]
                assert want == (math.ceil(9 * math.sqrt(2 ** b)) * (2 * b + 2)
                                if b else 2), n
    assert any(lbits for _, lbits, _ in checked)
    assert max(jbits for jbits, _, _ in checked) >= 19
    for ns in ([2 ** 4, 2 ** 8, 2 ** 16, 2 ** 32, 2 ** 64],
               [1 << i for i in range(4, 21)]):
        ratios = tuple(zoo.cost_model(n) / math.sqrt(n) for n in ns)
        stars = tuple(zoo.log_star(n) for n in ns)
        assert zoo.fit_cost_envelope(ns) == zoo.CostEnvelopeFit(
            ratios=ratios, log_stars=stars,
            monotone=all(a <= b + 1e-12 for a, b in zip(ratios, ratios[1:])))


def test_log_star():
    assert zoo.log_star(2) == 1
    assert zoo.log_star(16) == 3
    assert zoo.log_star(2 ** 16) == 4
    assert zoo.log_star(2 ** 64) == 5


def test_cost_functions_reject_non_finite_n():
    # NaN first, so a log_star that loops on inf fails before it hangs
    for n in (math.nan, math.inf, -math.inf):
        for f in (zoo.log_star, zoo.cost_model, zoo.bcw_cost_model):
            with pytest.raises(ValueError, match="n must be"):
                f(n)


def test_cost_models_take_only_whole_sizes():
    for n in (1.5, 2.5, 1024.25):
        for f in (zoo.cost_model, zoo.bcw_cost_model):
            with pytest.raises(ValueError, match="whole number"):
                f(n)
    for f in (zoo.cost_model, zoo.bcw_cost_model):
        assert f(4.0) == f(4) and f(np.int64(1024)) == f(1024)
    # log* is defined on the reals
    assert zoo.log_star(2.5) == 2 and zoo.log_star(1.5) == 1
    # a bool is not a size
    for n in (True, False, np.True_):
        for f in (zoo.cost_model, zoo.bcw_cost_model, zoo.log_star):
            with pytest.raises(ValueError, match="not a bool"):
                f(n)


def test_cost_functions_reject_ints_above_the_float_range():
    for f in (zoo.log_star, zoo.cost_model, zoo.bcw_cost_model):
        with pytest.raises(ValueError, match="^n must be finite$"):
            f(10 ** 400)
    # the largest power of ten that still converts is accepted
    assert zoo.log_star(10 ** 308) == 5
    assert math.isfinite(zoo.cost_model(10 ** 308))
    assert math.isfinite(zoo.bcw_cost_model(10 ** 308))


def test_qsearch_config_validation():
    with pytest.raises(ValueError):
        zoo.RecursionConfig(base_threshold=1)
    # integer types other than int are accepted
    assert zoo.RecursionConfig(base_threshold=np.int64(16)).base_threshold == 16


@pytest.mark.parametrize("threshold", [math.nan, math.inf, 16.5, True],
                         ids=["nan", "inf", "non-integer", "bool"])
def test_base_threshold_must_be_an_integer(threshold):
    with pytest.raises(ValueError, match="^base_threshold must be an integer$"):
        zoo.RecursionConfig(base_threshold=threshold)


def test_protocol_corpus_costs():
    for n in (1, 2):
        for entry in zoo.protocol_corpus(n):
            if entry.name.startswith("trivial"):
                assert entry.protocol.declared_cost == n + 1


def gates_of(step, v):
    """Input v's gates from a build over [v], as (matrix, targets) pairs."""
    return [(s.unitaries[0] if s.rows is None else s.unitaries[0][s.rows[0]],
             s.targets)
            for s in step.build(np.array([v]))]


def test_svd_alice_gate_prepares_her_message_state():
    """Alice's gate maps |0...0> to c_x (diag(s) v)[:2^q, x], with the
    factorisation m^T = u diag(s) v taken here from numpy's complex SVD,
    and to |0...0> for a dead x, whose row of m is all zero."""
    for n in range(1, engine.ACCEPTANCE_N_GUARD + 1):
        for entry in zoo.protocol_corpus(n):
            if not entry.name.startswith("svd-"):
                continue
            m = ranklab.canonical_witness(entry.name[len("svd-"):], n)
            _, s, v = np.linalg.svd(np.asarray(m, dtype=complex).T)
            s[s <= 1e-9 * s[0]] = 0.0
            phi_raw = s[:, None] * v
            norms = np.linalg.norm(phi_raw, axis=0)
            live = norms > 1e-9 * norms.max()
            send = entry.protocol.steps[0]
            q = len(send.window)
            assert np.count_nonzero(s) <= 1 << q, (entry.name, n)
            for x in range(1 << n):
                gates = gates_of(send, x)
                if q == 0:
                    assert gates == [], (entry.name, n, x)
                    continue
                want = phi_raw[:1 << q, x] / norms[x] if live[x] \
                    else np.eye(1, 1 << q)[0]
                ((u, _),) = gates
                assert np.max(np.abs(u[:, 0] - want)) <= 1e-12, \
                    (entry.name, n, x)


@pytest.mark.parametrize("x, y", [("0120", "0110"), ([0, 2], [0, 1]),
                                  ("010", "0110")],
                         ids=["bad-char", "bad-value", "unequal-lengths"])
def test_search_inputs_must_be_equal_length_bits(x, y):
    cfg = zoo.QSearchConfig(rng_seed=0)
    with pytest.raises(ValueError):
        zoo.bcw_intersection(x, y, cfg)
    with pytest.raises(ValueError):
        zoo.recursive_intersection(x, y, zoo.RecursionConfig(), cfg)


def test_svd_protocol_replies_with_one_gate_on_bobs_qubits_and_message(
        monkeypatch):
    made = []
    init = linalg.GateStack.__init__

    def counted(gate, unitaries, targets):
        init(gate, unitaries, targets)
        made.append(gate)

    monkeypatch.setattr(linalg.GateStack, "__init__", counted)
    for fn in ranklab.FUNCTION_NAMES:
        for n in range(1, 7):
            made.clear()
            bundle = zoo.ndet_svd_protocol(ranklab.canonical_witness(fn, n))
            p, lay = bundle.protocol, bundle.protocol.layout
            assert made == [], (fn, n)
            q = max(math.ceil(math.log2(bundle.r)), 0)
            dead = int(np.any(bundle.per_row_norm == 0.0))
            assert lay.total == dead + 1 + n, (fn, n)
            assert lay.bob_qubits == n - q, (fn, n)
            targets = (lay.bob_register
                       + tuple(lay.channel_qubit(k) for k in range(1, q + 1))
                       + (lay.channel_qubit(0),))
            for y in range(1 << n):
                reply = gates_of(p.steps[1], y)
                assert len(reply) == 1, (fn, n, y)
                assert reply[0][1] == targets, (fn, n, y)
                assert reply[0][0].shape == (2 << n, 2 << n), (fn, n, y)


@pytest.mark.parametrize("m", [np.asarray(5.0), np.ones(4), np.ones((2, 4)),
                               np.eye(3)], ids=["0-d", "1-D", "2x4", "3x3"])
def test_svd_protocol_rejects_non_square_or_odd_size(m):
    with pytest.raises(ValueError, match="square with power-of-two size"):
        zoo.ndet_svd_protocol(m)


def reference_bob_reply(u, y):
    """Bob's SVD reply as first written: the flip at |y> as a permutation
    matrix times u (x) I2."""
    dim = u.shape[0]
    flip = np.eye(2 * dim)[zoo._flip_rows(np.arange(dim) == y)]
    return flip @ np.kron(u, np.eye(2))


def _witnesses_for_reply_oracle():
    for fn in ranklab.FUNCTION_NAMES:
        for n in range(1, 7):
            yield f"{fn}-{n}", ranklab.canonical_witness(fn, n)
    # complex witnesses with zero rows: Alice's dead-row clean-up turn
    rng = np.random.default_rng(13)
    for n in (2, 3):
        dim = 1 << n
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        m[[0, dim - 1]] = 0.0
        yield f"dead-rows-{n}", m


def test_svd_reply_equals_the_flip_times_kron_reference():
    for name, m in _witnesses_for_reply_oracle():
        bundle = zoo.ndet_svd_protocol(m)
        if name.startswith("dead-rows"):
            assert len(bundle.protocol.steps) == 3, name  # the clean-up turn
        n = bundle.protocol.input_bits
        u = linalg.svd(np.asarray(m, dtype=complex).T).u
        for y in range(1 << n):
            ((gate, _),) = gates_of(bundle.protocol.steps[1], y)
            # exact; only the sign of a zero may differ
            assert np.array_equal(gate, reference_bob_reply(u, y)), \
                (name, y)


def test_trivial_reply_is_the_identity_with_flipped_rows():
    for fn in ("EQ", "DISJ", "INT"):
        for n in range(1, 5):
            target = ranklab.build_comm_matrix(fn, n)
            p = zoo.trivial_exact_protocol(target)
            targets = tuple(range(1, n + 1)) + (0,)
            for y in range(1 << n):
                ((gate, gate_targets),) = gates_of(p.steps[1], y)
                want = np.eye(2 << n)[zoo._flip_rows(target.values[:, y])]
                assert np.array_equal(gate, want), (fn, n, y)
                assert gate.dtype == want.dtype, (fn, n, y)
                assert gate_targets == targets, (fn, n, y)


def test_trivial_message_is_rows_of_one_identity(monkeypatch):
    """Alice sends x as one gate: the identity on the message qubits with
    rows r ^ x, whose base is made and checked once per protocol."""
    made = []
    init = linalg.GateStack.__init__

    def counted_init(gate, unitaries, targets):
        made.append(np.shape(unitaries)[-1])
        init(gate, unitaries, targets)

    monkeypatch.setattr(linalg.GateStack, "__init__", counted_init)
    for n in range(1, 5):
        p = zoo.trivial_exact_protocol(ranklab.build_comm_matrix("EQ", n))
        made.clear()
        for x in range(1 << n):
            ((gate, targets),) = gates_of(p.steps[0], x)
            want = np.eye(1 << n)[np.arange(1 << n) ^ x]
            assert np.array_equal(gate, want), (n, x)
            assert targets == tuple(range(1, n + 1))
            state = np.eye(1, 2 << n, dtype=complex)[None]
            (stack,) = p.steps[0].build(np.array([x]))
            sent = linalg.apply_on_qubits(state, stack, targets)[0]
            assert np.flatnonzero(sent).tolist() == [x], (n, x)  # |0>|x>
        assert made == [1 << n]


def test_building_a_protocol_makes_no_gate(monkeypatch):
    made = []
    init, stack_rows = linalg.GateStack.__init__, linalg.GateStack.stack_rows

    def counted_init(gate, unitaries, targets):
        made.append("checked")
        init(gate, unitaries, targets)

    def counted_rows(gate, rows):
        made.append("permuted")
        return stack_rows(gate, rows)

    monkeypatch.setattr(linalg.GateStack, "__init__", counted_init)
    monkeypatch.setattr(linalg.GateStack, "stack_rows", counted_rows)
    n = 8
    protocols = [zoo.ndet_svd_protocol(ranklab.canonical_witness(fn, n))
                 .protocol for fn in ranklab.FUNCTION_NAMES]
    protocols += [zoo.trivial_exact_protocol(ranklab.build_comm_matrix(fn, n))
                  for fn in ("EQ", "DISJ", "INT")]
    assert made == []
    # Bob's base is made and checked on his first reply only
    bob = protocols[0].steps[1]
    bob.build(np.array([3]))
    assert made == ["checked", "permuted"]
    bob.build(np.array([5, 6]))
    assert made == ["checked", "permuted", "permuted"]
