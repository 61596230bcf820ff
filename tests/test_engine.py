import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import random_unitary
from qcommlab import engine, linalg, ranklab, zoo
from qcommlab.engine import ALICE, BOB, Protocol, ProtocolStep, RegisterLayout
from qcommlab.errors import CapacityError, ContractViolationError

X = np.array([[0.0, 1.0], [1.0, 0.0]])
X_GATE = linalg.GateStack(X[None], (0,))


def stack_matrix(stack, j):
    """Gate j of a GateStack as its matrix."""
    return stack.unitaries[j] if stack.rows is None \
        else stack.unitaries[0][stack.rows[j]]


def gate_lists(step, inputs):
    """Per input, the (matrix, targets) pairs of step.build(inputs)."""
    layers = step.build(np.array(inputs, dtype=np.intp))
    return [[(stack_matrix(layer, j), layer.targets) for layer in layers]
            for j in range(len(inputs))]


def one_message_protocol():
    """Alice writes her single input bit onto the output channel qubit."""
    lay = RegisterLayout(0, 1, 0)
    table = np.stack([np.eye(2), X])

    def alice(inputs):
        return [linalg.GateStack(table[inputs], (0,))]

    return Protocol(lay, (ProtocolStep(ALICE, (0,), alice),), input_bits=1)


def reference_simulate(p, xi, yi):
    """The per-pair simulator the turn-walker replaced: build both parties'
    gates for this one pair and apply them to one state vector."""
    x = engine.as_input(xi, p.input_bits)
    y = engine.as_input(yi, p.input_bits)
    lay = p.layout
    state = np.zeros(1 << lay.total, dtype=complex)
    state[0] = 1.0
    for step in p.steps:
        (gates,) = gate_lists(step, [x if step.party == ALICE else y])
        for u, targets in gates:
            state = linalg.apply_on_qubits(state, u, targets)
    shift = lay.total - 1 - lay.output_qubit
    idx = np.arange(1 << lay.total)
    return state, float(np.sum(np.abs(state[(idx >> shift) & 1 == 1]) ** 2))


def reference_acceptance(p):
    dim = 1 << p.input_bits
    return np.array([[reference_simulate(p, xi, yi)[1] for yi in range(dim)]
                     for xi in range(dim)])


def random_protocol(n, layout, turns, seed):
    """Steps alternating from Alice; turn k is (window, targets) and
    applies to its targets a random unitary drawn for each input."""
    rng = np.random.default_rng(seed)
    steps = []
    for k, (window, targets) in enumerate(turns):
        table = np.stack([random_unitary(1 << len(targets), rng)
                          for _ in range(1 << n)])

        def build(inputs, table=table, targets=targets):
            return [linalg.GateStack(table[inputs], targets)]

        steps.append(ProtocolStep(ALICE if k % 2 == 0 else BOB, window, build))
    return Protocol(layout, tuple(steps), input_bits=n)


def test_layout_guards():
    with pytest.raises(ValueError):
        RegisterLayout(1, 0, 1)
    with pytest.raises(CapacityError):
        RegisterLayout(20, 5, 0)
    # a size is an integer other than a bool, numpy's included
    for bad in (1.5, 1.0, True, np.True_, "1"):
        for sizes in ((bad, 1, 0), (0, bad, 0), (0, 1, bad)):
            with pytest.raises(ValueError, match="must be an integer$"):
                RegisterLayout(*sizes)
    assert RegisterLayout(np.int64(1), np.int64(1), 0).total == 2


def test_steps_must_alternate_starting_with_alice():
    lay = RegisterLayout(0, 1, 0)
    step = ProtocolStep(BOB, (0,), lambda b: [])
    with pytest.raises(ValueError):
        Protocol(lay, (step,), input_bits=1)


def test_malformed_windows_and_input_sizes_are_rejected_when_made():
    def build(v):
        return []

    for window in ((1.0,), (True,), (np.True_,), ("0",)):
        with pytest.raises(ValueError, match="^a window index must be an integer$"):
            ProtocolStep(ALICE, window, build)
    with pytest.raises(ValueError, match="^window indices must be nonnegative$"):
        ProtocolStep(ALICE, (0, -1), build)
    step = ProtocolStep(ALICE, (np.int64(0),), build)
    assert step.window == (0,) and type(step.window[0]) is int
    lay = RegisterLayout(0, 1, 0)
    for bad in (True, 1.5, np.float64(1)):
        with pytest.raises(ValueError, match="^input_bits must be an integer$"):
            Protocol(lay, (step,), input_bits=bad)
    with pytest.raises(ValueError, match="^input_bits must be nonnegative$"):
        Protocol(lay, (step,), input_bits=-1)
    p = Protocol(lay, (step,), input_bits=np.int64(1))
    assert type(p.input_bits) is int
    assert json.loads(engine.acceptance_matrix(p).to_json())["n"] == 1


def test_trivial_protocol_simulation_values():
    p = zoo.trivial_exact_protocol(ranklab.build_comm_matrix("EQ", 2))
    res = engine.simulate(p, "01", "01")
    assert res.accept_prob == pytest.approx(1.0, abs=1e-12)
    assert res.cost == 3
    res = engine.simulate(p, "01", "10")
    assert res.accept_prob == pytest.approx(0.0, abs=1e-12)


def test_svd_protocol_accepts_with_predicted_probability():
    m = np.array([[0.0, -1.0], [1.0, 0.0]])  # x - y on one bit
    bundle = zoo.ndet_svd_protocol(m)
    res = engine.simulate(bundle.protocol, "0", "1")
    want = bundle.per_row_norm[0] ** 2 * abs(m[0, 1]) ** 2
    assert 0.0 < res.accept_prob <= 1.0
    assert res.accept_prob == pytest.approx(want, abs=1e-12)


def test_simulation_preserves_norm():
    for entry in zoo.protocol_corpus(2):
        for xi in range(4):
            for yi in range(4):
                res = engine.simulate(entry.protocol, xi, yi)
                assert abs(np.linalg.norm(res.final_state) - 1) <= 1e-10


def test_gate_outside_turn_rejected():
    lay = RegisterLayout(0, 2, 0)

    def alice(inputs):
        # qubit 0 is not in the declared window
        return [linalg.GateStack(np.broadcast_to(X, (len(inputs), 2, 2)),
                                 (0,))]

    p = Protocol(lay, (ProtocolStep(ALICE, (1,), alice),), input_bits=1)
    with pytest.raises(ContractViolationError):
        engine.simulate(p, 0, 0)


def test_resending_a_qubit_held_by_the_other_party_rejected():
    lay = RegisterLayout(0, 1, 0)
    steps = (ProtocolStep(ALICE, (0,), lambda b: []),
             ProtocolStep(BOB, (0,), lambda b: []),
             ProtocolStep(ALICE, (0,), lambda b: []))
    p = Protocol(lay, steps, input_bits=1)
    res = engine.simulate(p, 0, 0)  # B returned it, so A may resend
    assert res.cost == 3
    bad = Protocol(lay, (ProtocolStep(ALICE, (0,), lambda b: []),
                         ProtocolStep(BOB, (), lambda b: []),
                         ProtocolStep(ALICE, (0,), lambda b: [])), input_bits=1)
    with pytest.raises(ContractViolationError):
        engine.simulate(bad, 0, 0)


def test_degenerate_protocol_zero_steps():
    p = Protocol(RegisterLayout(0, 1, 0), (), input_bits=1)
    res = engine.simulate(p, 1, 1)
    assert res.cost == 0 and res.accept_prob == 0.0


def test_acceptance_matrix_trivial_eq():
    p = zoo.trivial_exact_protocol(ranklab.build_comm_matrix("EQ", 2))
    am = engine.acceptance_matrix(p)
    assert np.array_equal(am.values, np.eye(4))


def test_acceptance_matrix_svd_eq_positive_diagonal():
    bundle = zoo.ndet_svd_protocol(np.eye(4))
    am = engine.acceptance_matrix(bundle.protocol)
    off = am.values[~np.eye(4, dtype=bool)]
    assert np.all(np.abs(off) <= 1e-12)
    assert np.all(np.diag(am.values) > 0)


def test_acceptance_matrix_svd_disj_pattern():
    disj = ranklab.build_comm_matrix("DISJ", 2)
    bundle = zoo.ndet_svd_protocol(ranklab.canonical_witness("DISJ", 2))
    am = engine.acceptance_matrix(bundle.protocol)
    assert np.array_equal(am.values > 1e-9, disj.values == 1)


def test_acceptance_matrix_matches_per_pair_oracle_on_corpus():
    for n in (1, 2, 3, 4):
        for entry in zoo.protocol_corpus(n):
            am = engine.acceptance_matrix(entry.protocol)
            err = np.max(np.abs(am.values - reference_acceptance(entry.protocol)))
            assert err <= 1e-12, (entry.name, n, err)


def test_three_turns_with_the_qubit_sent_back(monkeypatch):
    # qubits: 0 Alice, 1-2 channel (1 is the output), 3 Bob.  Alice sends
    # channel 0, Bob works on it and sends it back, Alice sends both.
    lay = RegisterLayout(1, 2, 1)
    p = random_protocol(2, lay, [((0,), (0, 1)), ((0,), (1, 3)),
                                 ((0, 1), (0, 1, 2))], seed=4)
    builds = []

    def counted(build):
        def wrapper(bits):
            builds.append(bits)
            return build(bits)
        return wrapper

    p = Protocol(lay, tuple(ProtocolStep(s.party, s.window, counted(s.build))
                            for s in p.steps), input_bits=2)
    # all rows in one chunk, then one row per chunk: each chunk builds
    # Alice's steps once for its own rows, and Bob's are built once
    for chunk, alice in ((engine.CHUNK_AMPLITUDES, [[0, 1, 2, 3]]),
                         (1, [[0], [1], [2], [3]])):
        monkeypatch.setattr(engine, "CHUNK_AMPLITUDES", chunk)
        builds.clear()
        am = engine.acceptance_matrix(p)
        want = [[0, 1, 2, 3]] + [rows for rows in alice for _ in range(2)]
        assert sorted(b.tolist() for b in builds) == sorted(want)
        assert np.max(np.abs(am.values - reference_acceptance(p))) <= 1e-12
    for xi in range(4):
        for yi in range(4):
            res = engine.simulate(p, xi, yi)
            want_state, want_prob = reference_simulate(p, xi, yi)
            assert res.cost == 4
            assert np.max(np.abs(res.final_state - want_state)) <= 1e-12
            assert res.accept_prob == pytest.approx(want_prob, abs=1e-12)
            d = engine.yao_kremer_decompose(p, xi, yi)
            assert np.max(np.abs(d.reconstruct() - res.final_state)) <= 1e-12


def test_acceptance_matrix_over_several_chunks():
    n = 2
    lay = RegisterLayout(5, 2, 5)  # 2^12 amplitudes per pair
    assert engine.CHUNK_AMPLITUDES >> (n + lay.total) < 1 << n
    p = random_protocol(n, lay, [((0, 1), (3, 4, 5, 6)), ((0,), (5, 7, 8))],
                        seed=6)
    am = engine.acceptance_matrix(p)
    assert np.max(np.abs(am.values - reference_acceptance(p))) <= 1e-12


def test_gate_illegal_for_one_input_rejected(monkeypatch):
    """A layer whose targets leave the turn is rejected whichever input
    its gate is for, also where it is the identity: its targets depend
    only on the protocol."""
    lay = RegisterLayout(0, 2, 0)

    def flip_one(v, targets):
        def build(inputs):
            flips = np.where((inputs == v)[:, None, None], X, np.eye(2))
            return [linalg.GateStack(flips, targets)]
        return build

    # Alice flips channel qubit 0, not in her window, for input 3 only;
    # Bob flips channel qubit 1, which he never held, for input 2 only
    alice = Protocol(lay, (ProtocolStep(ALICE, (1,), flip_one(3, (0,))),),
                     input_bits=2)
    bob = Protocol(lay, (ProtocolStep(ALICE, (0,), lambda b: []),
                         ProtocolStep(BOB, (), flip_one(2, (1,)))),
                   input_bits=2)
    for p, pairs in ((alice, [(0, 0), (3, 0)]), (bob, [(0, 0), (0, 2)])):
        for x, y in pairs:
            with pytest.raises(ContractViolationError):
                engine.simulate(p, x, y)
        for chunk in (engine.CHUNK_AMPLITUDES, 1):
            monkeypatch.setattr(engine, "CHUNK_AMPLITUDES", chunk)
            with pytest.raises(ContractViolationError):
                engine.acceptance_matrix(p)


@pytest.mark.parametrize("party", [ALICE, BOB])
@pytest.mark.parametrize("layer", [
    lambda inputs: np.broadcast_to(X, (len(inputs), 2, 2)),
    # one bare gate matrix, not a stack
    lambda inputs: X,
    # the old contract's group (positions, layers)
    lambda inputs: (np.arange(len(inputs)),
                    [X_GATE.stack_rows([[0, 1]] * len(inputs))]),
    # too many gates for one input, too few for all four
    lambda inputs: X_GATE.stack_rows([[0, 1], [1, 0]]),
    lambda inputs: X_GATE.stack_rows([[1, 0]] * (len(inputs) + 1)),
], ids=["array", "gate", "group", "two-gates", "one-extra"])
def test_a_layer_must_be_a_gate_stack_with_one_gate_per_input(party, layer):
    good = lambda inputs: [X_GATE.stack_rows([[1, 0]] * len(inputs))]
    bad = lambda inputs: [layer(inputs)]
    # Alice sends channel qubit 0 and Bob sends it back
    p = Protocol(RegisterLayout(0, 1, 0),
                 (ProtocolStep(ALICE, (0,), bad if party == ALICE else good),
                  ProtocolStep(BOB, (0,), bad if party == BOB else good)),
                 input_bits=2)
    for walk in (lambda: engine.simulate(p, 1, 2),
                 lambda: engine.yao_kremer_decompose(p, 1, 2),
                 lambda: engine.acceptance_matrix(p),
                 lambda: engine.output_families(p)):
        with pytest.raises(ContractViolationError,
                           match=f"^{party} build: each layer must be a "
                                 "GateStack with one gate per input$"):
            walk()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_acceptance_matrix_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        engine.AcceptanceMatrix(n=1, values=[[bad, 0.0], [0.0, 1.0]])


def test_acceptance_matrix_guard():
    p = zoo.trivial_exact_protocol(ranklab.build_comm_matrix("EQ", 2))
    object.__setattr__(p, "input_bits", 7)  # force past the guard check
    with pytest.raises(CapacityError):
        engine.acceptance_matrix(p)
    # one row, 2^1 pairs of 2^24 amplitudes, is past the qubit guard
    p = Protocol(RegisterLayout(0, 1, 23), (), input_bits=1)
    with pytest.raises(CapacityError, match="1 pairs over 24 qubits"):
        engine.acceptance_matrix(p)


def test_walks_over_all_inputs_check_their_size_before_any_build():
    def unbuildable(p):
        # a step build fails the test, so a missing guard fails on the
        # first build and never allocates the walk
        def build(bits):
            raise AssertionError("a step was built before the size check")
        return Protocol(p.layout, tuple(ProtocolStep(s.party, s.window, build)
                                        for s in p.steps),
                        input_bits=p.input_bits)

    # n = 10 is past the input guard: each of its 1,024 dense gates is
    # 16 MiB
    big = zoo.ndet_svd_protocol(ranklab.canonical_witness("EQ", 10)).protocol
    # n = 1 on 24 qubits is past the qubit guard
    wide = Protocol(RegisterLayout(0, 1, 23),
                    (ProtocolStep(ALICE, (0,), lambda bits: []),),
                    input_bits=1)
    for walk in (engine.output_families, engine.acceptance_matrix):
        message = (rf"^{walk.__name__} over 2\^20 pairs; "
                   r"it tabulates only n <= 6$")
        with pytest.raises(CapacityError, match=message):
            walk(unbuildable(big))
        with pytest.raises(CapacityError, match="1 pairs over 24 qubits"):
            walk(unbuildable(wide))


def test_acceptance_matrix_serialization_roundtrip():
    p = zoo.ndet_svd_protocol(ranklab.canonical_witness("NEQ", 2)).protocol
    am = engine.acceptance_matrix(p)
    # JSON gives back n and every value exactly
    obj = json.loads(am.to_json())
    assert obj["n"] == am.n
    assert same_bytes(np.array(obj["values"]), am.values)
    # CSV gives back the table, rounding noise as 0, at 12 digits
    table = np.loadtxt(io.StringIO(am.to_csv()), delimiter=",")
    want = np.where(am.support(), am.values, 0.0)
    assert table.shape == (4, 4)
    assert np.array_equal(table == 0, want == 0)
    np.testing.assert_allclose(table, want, rtol=5e-12, atol=0)


def test_decompose_one_message_protocol():
    p = one_message_protocol()
    d = engine.yao_kremer_decompose(p, 0, 0)
    assert d.ell == 1
    assert d.a_vectors.shape[0] == 2
    assert np.linalg.norm(d.a_vectors[0]) > 0
    assert np.linalg.norm(d.a_vectors[1]) == 0


def test_decompose_reconstructs_trivial_eq1():
    p = zoo.trivial_exact_protocol(ranklab.build_comm_matrix("EQ", 1))
    for xi in range(2):
        for yi in range(2):
            d = engine.yao_kremer_decompose(p, xi, yi)
            direct = engine.simulate(p, xi, yi).final_state
            assert np.linalg.norm(d.reconstruct() - direct) <= 1e-12


def test_decompose_reconstructs_corpus():
    for n in (1, 2):
        for entry in zoo.protocol_corpus(n):
            for xi in range(1 << n):
                for yi in range(1 << n):
                    d = engine.yao_kremer_decompose(entry.protocol, xi, yi)
                    direct = engine.simulate(entry.protocol, xi, yi).final_state
                    err = np.linalg.norm(d.reconstruct() - direct)
                    assert err <= 1e-9, (entry.name, xi, yi, err)


def test_svd_eq1_accepting_set_is_half_of_transcripts():
    bundle = zoo.ndet_svd_protocol(np.eye(2))
    p = bundle.protocol
    live = np.zeros(1 << p.declared_cost, dtype=bool)
    for xi in range(2):
        for yi in range(2):
            d = engine.yao_kremer_decompose(p, xi, yi)
            a1, b1, _ = d.output_components()
            for i in range(1 << d.ell):
                if np.linalg.norm(a1[i]) * np.linalg.norm(b1[i]) > 1e-12:
                    live[i] = True
    assert int(live.sum()) == 1 << (p.declared_cost - 1)


def test_decompose_transcript_budget():
    p = zoo.trivial_exact_protocol(ranklab.build_comm_matrix("EQ", 2))
    object.__setattr__(p.steps[0], "window", tuple(range(13)))
    with pytest.raises((CapacityError, ValueError)):
        engine.yao_kremer_decompose(p, 0, 0)


def test_rank_bound_audit_values():
    p = zoo.trivial_exact_protocol(ranklab.build_comm_matrix("EQ", 2))
    rep = engine.rank_bound_audit(p)
    assert rep == (4, 16, True)
    p = zoo.ndet_svd_protocol(np.eye(4)).protocol  # cost 3
    rep = engine.rank_bound_audit(p)
    assert rep == (4, 16, True)
    p = zoo.ndet_svd_protocol(ranklab.canonical_witness("NEQ", 2)).protocol
    rep = engine.rank_bound_audit(p)  # cost 2: bound 4
    assert rep.bound == 4 and rep.ok
    # cost-1 protocol: bound is 1
    p1 = one_message_protocol()
    rep = engine.rank_bound_audit(p1)
    assert rep.bound == 1 and rep.ok


def test_rank_bound_audit_corpus():
    for n in (1, 2, 3):
        for entry in zoo.protocol_corpus(n):
            assert engine.rank_bound_audit(entry.protocol).ok, entry.name


def test_gates_checked_once_per_build(monkeypatch):
    """acceptance_matrix checks each gate once, when its stack is made,
    however many chunks of rows apply it: Alice's states of a chunk are one
    stack with one check, and Bob's replies are rows of one base gate, a
    stack of one checked once per protocol, with no check of their own."""
    n = 4
    protocol = zoo.ndet_svd_protocol(ranklab.canonical_witness("EQ", n)).protocol
    counts = {"checks": 0, "stacks": 0}
    is_unitary, init = linalg.is_unitary, linalg.GateStack.__init__

    def counted_check(u):
        counts["checks"] += 1
        return is_unitary(u)

    def counted_stack(stack, unitaries, targets):
        counts["stacks"] += 1
        init(stack, unitaries, targets)

    monkeypatch.setattr(linalg, "is_unitary", counted_check)
    monkeypatch.setattr(linalg.GateStack, "__init__", counted_stack)
    want = engine.acceptance_matrix(protocol).values
    # Alice's 2^n states, one stack in one chunk, and Bob's base
    assert counts == {"checks": 2, "stacks": 2}
    counts.update(checks=0, stacks=0)
    monkeypatch.setattr(engine, "CHUNK_AMPLITUDES", 1)
    assert np.array_equal(engine.acceptance_matrix(protocol).values, want)
    # one stack per one-row chunk; the protocol already holds Bob's base
    assert counts == {"checks": 1 << n, "stacks": 1 << n}


def test_simulate_checks_bobs_base_once_per_protocol(monkeypatch):
    n = 5
    protocol = zoo.ndet_svd_protocol(ranklab.canonical_witness("EQ", n)).protocol
    sides = []
    is_unitary = linalg.is_unitary

    def counted_check(u):
        sides.append(u.shape[-1])
        return is_unitary(u)

    monkeypatch.setattr(linalg, "is_unitary", counted_check)
    rng = np.random.default_rng(5)
    for x, y in rng.integers(0, 1 << n, size=(16, 2)):
        engine.simulate(protocol, int(x), int(y))
    # Alice's state on the n message qubits per call, and Bob's base on
    # them and the output bit once
    assert sorted(sides) == [1 << n] * 16 + [2 << n]


def test_as_bits_forms():
    # every form reads as the input's index, a Python int
    for value in (5, np.int64(5), "0101", [0, 1, 0, 1], np.array([0, 1, 0, 1])):
        index = engine.as_input(value, 4)
        assert index == 5 and type(index) is int, value
    assert engine.as_input([0, 1], 2) == 1
    assert engine.as_input("", 0) == 0
    with pytest.raises(ValueError):
        engine.as_input("01", 3)
    with pytest.raises(ValueError):
        engine.as_input(16, 4)
    # a bool is not an input, whether Python's or numpy's
    for value in (True, False, np.True_):
        with pytest.raises(ValueError):
            engine.as_input(value, 1)
    with pytest.raises(ValueError):
        engine.simulate(one_message_protocol(), True, 0)


def test_bit_array_forms():
    want = [0, 1, 1, 0]
    for value in ("0110", [0, 1, 1, 0], (False, True, True, False),
                  np.array([0, 1, 1, 0]), ["0", "1", "1", "0"],
                  [0.0, 1.0, 1.0, 0.0]):
        got = engine.bit_array(value)
        assert got.dtype == np.uint8 and got.tolist() == want, value
    mixed = engine.bit_array([np.int64(1), np.uint8(0), True])
    assert mixed.dtype == np.uint8 and mixed.tolist() == [1, 0, 1]
    assert engine.bit_array((1, 0, 0, 1)).tolist() == [1, 0, 0, 1]
    for empty in ("", [], ()):
        got = engine.bit_array(empty)
        assert got.dtype == np.uint8 and got.shape == (0,), empty
    for bad in ("0120", "01 0", [0, 2], [0.5, 1], [[0, 1]], ["0", "x"],
                [-1], [256], [2], "٠١", "\ud800", "0 1"):
        with pytest.raises(ValueError, match="^inputs must be 0/1 sequences"):
            engine.bit_array(bad)
    # the result is always a new array: writing to it leaves the input be
    source = np.array([0, 1, 1, 0], dtype=np.uint8)
    for value in ("0110", [0, 1, 1, 0], (0, 1, 1, 0), source):
        got = engine.bit_array(value)
        assert got.flags.writeable, value
        got[:] = 1
    assert source.tolist() == want


def test_bit_array_reads_bool_and_unsigned_arrays():
    want = [0, 1, 1, 0]
    for dtype in (bool, np.uint8, np.uint16, np.uint64):
        source = np.array(want, dtype=dtype)
        got = engine.bit_array(source)
        assert got.dtype == np.uint8 and got.tolist() == want, dtype
        assert got.flags.writeable and not np.shares_memory(got, source)
        got[:] = 1
        assert source.tolist() == want, dtype
        empty = engine.bit_array(np.zeros(0, dtype=dtype))
        assert empty.dtype == np.uint8 and empty.shape == (0,), dtype
    view = np.array([1, 0, 1, 0, 1, 1], dtype=np.uint8)[::2]
    assert engine.bit_array(view).tolist() == [1, 1, 1]
    for bad in (np.array([0, 256], dtype=np.uint16),
                np.array([1, 2], dtype=np.uint8),
                np.array([[True, False]]),
                np.array([[1, 0]], dtype=np.uint8),
                np.array(True)):
        with pytest.raises(ValueError, match="^inputs must be 0/1 sequences"):
            engine.bit_array(bad)


def reference_yao_kremer_decompose(p, x, y):
    """The per-pair decomposition the batched walk replaced: one pair's
    branch stacks, evolved by that pair's gates."""
    ell = p.declared_cost
    if ell > engine.MAX_TRANSCRIPT_BITS:
        raise CapacityError(f"2^{ell} transcripts exceed the decomposition budget")
    x = engine.as_input(x, p.input_bits)
    y = engine.as_input(y, p.input_bits)
    lay = p.layout
    sides = {ALICE: list(lay.alice_register), BOB: list(lay.bob_register)}
    branches = {party: np.eye(1, 1 << len(side), dtype=complex)
                for party, side in sides.items()}
    for step in p.steps:
        sender, receiver = step.party, engine.other_party(step.party)
        window = [lay.channel_qubit(k) for k in step.window]
        side = sides[sender]
        mine, theirs = branches[sender], branches[receiver]
        count = len(mine)
        claimed = [g for g in window if g not in side]
        if claimed:
            mine = np.kron(mine, np.eye(1, 1 << len(claimed)))
            side = side + claimed
        (gates,) = gate_lists(step, [x if sender == ALICE else y])
        for u, targets in gates:
            positions = [side.index(t) for t in targets]
            mine = linalg.apply_on_qubits(mine, u, positions)
        k = len(window)
        if k:
            m = len(side)
            kpos = [1 + side.index(g) for g in window]
            t = np.moveaxis(mine.reshape((count,) + (2,) * m), kpos,
                            range(1, k + 1))
            mine = t.reshape(count << k, 1 << (m - k))
            theirs = np.kron(theirs, np.eye(1 << k))
            side = [q for q in side if q not in window]
            sides[receiver] = sides[receiver] + window
        sides[sender] = side
        branches[sender], branches[receiver] = mine, theirs
    sent = {q for step in p.steps for q in step.window}
    pool = tuple(lay.channel_qubit(k)
                 for k in range(lay.channel_qubits) if k not in sent)
    return engine.TranscriptDecomposition(
        layout=lay, ell=ell, alice_side=tuple(sides[ALICE]),
        bob_side=tuple(sides[BOB]), pool_qubits=pool,
        a_vectors=branches[ALICE], b_vectors=branches[BOB])


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_decomposition(got, want):
    assert (got.layout, got.ell) == (want.layout, want.ell)
    assert (got.alice_side, got.bob_side, got.pool_qubits) == (
        want.alice_side, want.bob_side, want.pool_qubits)
    assert same_bytes(got.a_vectors, want.a_vectors)
    assert same_bytes(got.b_vectors, want.b_vectors)
    (a1, b1, holder), (want_a1, want_b1, want_holder) = (
        got.output_components(), want.output_components())
    assert holder == want_holder
    assert same_bytes(a1, want_a1) and same_bytes(b1, want_b1)


def assert_decompositions_match_reference(p):
    for xi in range(1 << p.input_bits):
        for yi in range(1 << p.input_bits):
            assert_same_decomposition(engine.yao_kremer_decompose(p, xi, yi),
                                      reference_yao_kremer_decompose(p, xi, yi))


def send_back_protocol():
    """Alice -> Bob -> Alice: Bob returns channel qubit 0, then Alice sends
    both (the protocol of test_three_turns_with_the_qubit_sent_back)."""
    return random_protocol(2, RegisterLayout(1, 2, 1),
                           [((0,), (0, 1)), ((0,), (1, 3)),
                            ((0, 1), (0, 1, 2))], seed=4)


def zero_row_svd_protocol(n, seed):
    """svd protocol of a random matrix with zero rows 0 and 2: an Alice
    ancilla and a zero-window clean-up turn."""
    m = np.random.default_rng(seed).normal(size=(1 << n, 1 << n))
    m[[0, 2]] = 0.0
    p = zoo.ndet_svd_protocol(m).protocol
    assert p.layout.alice_qubits == 1
    assert len(p.steps) == 3 and p.steps[2].window == ()
    return p


def reference_reconstruct(d):
    """The per-transcript loop reconstruct replaced: sum_i a_i (x) b_i (x)
    |0...0>_pool by np.kron, then each qubit moved to its global place."""
    lay = d.layout
    order = list(d.alice_side) + list(d.bob_side) + list(d.pool_qubits)
    pool = np.zeros(1 << len(d.pool_qubits), dtype=complex)
    pool[0] = 1.0
    total = np.zeros(1 << lay.total, dtype=complex)
    for a, b in zip(d.a_vectors, d.b_vectors):
        total += np.kron(np.kron(a, b), pool)
    t = np.moveaxis(total.reshape([2] * lay.total), range(lay.total), order)
    return t.reshape(1 << lay.total)


def pool_protocol():
    """Alice sends channel qubit 0 and Bob channel qubit 2; channel qubit 1
    (global qubit 2) is never sent, so it stays in the pool as |0>."""
    return random_protocol(2, RegisterLayout(1, 3, 1),
                           [((0,), (0, 1)), ((2,), (1, 3, 4))], seed=6)


def mixed_targets_protocol(seed=9):
    """Alice -> Bob -> Alice on layout (1, 2, 1), where each input's gate
    list has its own targets and length, and some inputs have none.  A
    step has one layer per target tuple of its lists, in the order they
    first appear, with the identity for an input that lacks that gate."""
    rng = np.random.default_rng(seed)
    lists = [
        # Alice sends channel qubits 0 and 1 (global 1 and 2)
        [[], [(0, 1)], [(2, 0), (1,)], [(0, 1)]],
        # Bob returns channel qubit 0 (global 1)
        [[(3, 1, 2)], [(2,)], [(3, 1, 2)], []],
        # Alice sends it back, with the output bit in it
        [[(1, 0)], [], [(1, 0)], [(0,)]],
    ]
    windows = [(0, 1), (0,), (0,)]
    steps = []
    for k, (window, targets) in enumerate(zip(windows, lists)):
        tables = {}
        for v, tl in enumerate(targets):
            for t in tl:
                table = tables.setdefault(
                    t, np.array([np.eye(1 << len(t), dtype=complex)] * 4))
                table[v] = random_unitary(1 << len(t), rng)

        def build(inputs, tables=tables):
            return [linalg.GateStack(table[inputs], t)
                    for t, table in tables.items()]

        steps.append(ProtocolStep(ALICE if k % 2 == 0 else BOB, window, build))
    return Protocol(RegisterLayout(1, 2, 1), tuple(steps), input_bits=2)


def reference_evolve(p, xs, ys):
    """The per-input walk the stacked turn applier replaced: one state per
    pair from the start, and each input's gates applied one at a time to
    the batch of its pairs."""
    states = np.zeros((len(xs), len(ys), 1 << p.layout.total), dtype=complex)
    states[:, :, 0] = 1.0
    for step in p.steps:
        alice = step.party == ALICE
        for i, v in enumerate(xs if alice else ys):
            index = i if alice else (slice(None), i)
            batch = states[index]
            for u, targets in gate_lists(step, [v])[0]:
                batch = linalg.apply_on_qubits(batch, u, targets)
            states[index] = batch
    return states


def walker_cases():
    protocols = [entry.protocol for n in (1, 2, 3, 4)
                 for entry in zoo.protocol_corpus(n)]
    return protocols + [send_back_protocol(), pool_protocol(),
                        zero_row_svd_protocol(2, seed=2),
                        zero_row_svd_protocol(3, seed=3),
                        mixed_targets_protocol()]


def test_mixed_targets_protocol_layer_targets():
    """Each turn's layers and their targets depend only on the protocol:
    the walk over every input and the walk over each input alone get the
    same ones."""
    inputs = range(4)
    for p, want in (
            (mixed_targets_protocol(),
             [[(0, 1), (2, 0), (1,)], [(3, 1, 2), (2,)], [(1, 0), (0,)]]),
            # zero rows 0 and 2: Alice's message on its one qubit, Bob's
            # reply, and the clean-up swap of the ancilla and output bit
            (zero_row_svd_protocol(2, seed=2), [[(2,)], [(3, 2, 1)], [(0, 1)]])):
        for xs in [inputs] + [[v] for v in inputs]:
            turns = engine._compile(p, xs, xs)
            assert [[layer.targets for layer in turn.layers]
                    for turn in turns] == want


def test_evolve_matches_the_per_input_reference():
    for p in walker_cases():
        dim = 1 << p.input_bits
        inputs = range(dim)
        # all rows at once, and each chunk of rows compiled on its own
        for size in (dim, 1, 3):
            for start in range(0, dim, size):
                chunk = inputs[start:start + size]
                turns = engine._compile(p, chunk, inputs)
                got = engine._evolve(p.layout, turns, len(chunk), dim)
                want = reference_evolve(p, chunk, inputs)
                assert same_bytes(got, want)
        # acceptance_matrix reads the same states
        want = reference_evolve(p, inputs, inputs)
        probs = np.clip(engine._accept_probs(p.layout, want), 0.0, 1.0)
        assert same_bytes(engine.acceptance_matrix(p).values, probs)


def test_acceptance_matrix_in_one_row_chunks(monkeypatch):
    protocols = walker_cases()
    want = [engine.acceptance_matrix(p).values for p in protocols]
    monkeypatch.setattr(engine, "CHUNK_AMPLITUDES", 1)
    for p, values in zip(protocols, want):
        assert same_bytes(engine.acceptance_matrix(p).values, values)


def test_decompose_matches_the_per_input_reference():
    for p in walker_cases():
        inputs = range(1 << p.input_bits)
        d = engine._decompose(p, inputs, inputs)
        for v in inputs:
            want = reference_yao_kremer_decompose(p, v, 0)
            assert same_bytes(d.a_vectors[v], want.a_vectors)
            want = reference_yao_kremer_decompose(p, 0, v)
            assert same_bytes(d.b_vectors[v], want.b_vectors)


def test_reconstruct_matches_the_per_transcript_sum():
    protocols = [entry.protocol for n in (1, 2, 3)
                 for entry in zoo.protocol_corpus(n)]
    protocols += [send_back_protocol(), zero_row_svd_protocol(2, seed=2),
                  zero_row_svd_protocol(3, seed=3), pool_protocol()]
    assert engine.yao_kremer_decompose(pool_protocol(), 0, 0).pool_qubits == (2,)
    for p in protocols:
        for xi in range(1 << p.input_bits):
            for yi in range(1 << p.input_bits):
                d = engine.yao_kremer_decompose(p, xi, yi)
                got, want = d.reconstruct(), reference_reconstruct(d)
                assert got.shape == want.shape and got.dtype == want.dtype
                assert np.max(np.abs(got - want)) <= 1e-12, (xi, yi)


def test_decompose_matches_per_pair_reference_on_corpus():
    for n in (1, 2, 3, 4):
        for entry in zoo.protocol_corpus(n):
            assert_decompositions_match_reference(entry.protocol)


def test_decompose_matches_per_pair_reference_sent_back_and_zero_rows():
    assert_decompositions_match_reference(send_back_protocol())
    for n in (2, 3):
        assert_decompositions_match_reference(zero_row_svd_protocol(n, seed=n))


def test_batched_walk_stacks_per_pair_branches():
    """_decompose over any input lists gives x's branches in a_vectors[i]
    for xs[i] and y's in b_vectors[j] for ys[j], with one build per step.
    Every walk hands a build the sender's indices in [0, 2^n), a read-only
    1-D int array, whatever form the caller gave the inputs in."""
    n = 2
    builds = []

    def counted(build):
        def wrapper(inputs):
            builds.append(inputs)
            return build(inputs)
        return wrapper

    def all_indices():
        return builds and all(
            v.ndim == 1 and v.dtype.kind == "i" and not v.flags.writeable
            and np.all((0 <= v) & (v < 1 << n)) for v in builds)

    protocols = [entry.protocol for entry in zoo.protocol_corpus(n)]
    protocols += [send_back_protocol(), zero_row_svd_protocol(n, seed=5)]
    inputs = list(range(1 << n))
    xs, ys = inputs[::-1], inputs[1:]
    for p in protocols:
        p = Protocol(p.layout, tuple(ProtocolStep(s.party, s.window,
                                                  counted(s.build))
                                     for s in p.steps), input_bits=n)
        for walk in (lambda: engine.simulate(p, "10", np.int64(3)),
                     lambda: engine.yao_kremer_decompose(p, [1, 0], 3),
                     lambda: engine.acceptance_matrix(p),
                     lambda: engine.output_families(p)):
            builds.clear()
            walk()
            assert all_indices(), builds
        builds.clear()
        d = engine._decompose(p, xs, ys)
        assert [v.tolist() for v in builds] == [
            xs if s.party == ALICE else ys for s in p.steps]
        assert d.a_vectors.shape[0] == len(xs)
        assert d.b_vectors.shape[0] == len(ys)
        a1, b1, holder = d.output_components()
        for i, x in enumerate(xs):
            want = reference_yao_kremer_decompose(p, x, ys[0])
            assert same_bytes(d.a_vectors[i], want.a_vectors)
            assert same_bytes(a1[i], want.output_components()[0])
            assert holder == want.output_components()[2]
        for j, y in enumerate(ys):
            want = reference_yao_kremer_decompose(p, xs[0], y)
            assert same_bytes(d.b_vectors[j], want.b_vectors)
            assert same_bytes(b1[j], want.output_components()[1])


def test_output_families_stack_per_pair_components():
    for n in (1, 2, 3):
        for entry in zoo.protocol_corpus(n):
            p = entry.protocol
            a, b = engine.output_families(p)
            dim = 1 << n
            want_a = np.stack([reference_yao_kremer_decompose(p, x, 0)
                               .output_components()[0] for x in range(dim)],
                              axis=1)
            want_b = np.stack([reference_yao_kremer_decompose(p, 0, y)
                               .output_components()[1] for y in range(dim)],
                              axis=1)
            assert same_bytes(a, want_a) and same_bytes(b, want_b), entry.name
            assert a.flags.c_contiguous and b.flags.c_contiguous


@st.composite
def small_protocols(draw):
    """2-4 alternating steps on at most 6 qubits.  Each window is a set of
    channel qubits the sender may send, and each step one target set of
    qubits the sender may touch, with a random unitary per input.  The last
    window holds the output qubit, channel qubit 0, whenever its sender
    may send it."""
    n = draw(st.integers(1, 2))
    lay = RegisterLayout(draw(st.integers(0, 2)), draw(st.integers(1, 3)),
                         draw(st.integers(0, 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    registers = {ALICE: lay.alice_register, BOB: lay.bob_register}
    owner = [None] * lay.channel_qubits
    steps = []
    count = draw(st.integers(2, 4))
    for k in range(count):
        party = ALICE if k % 2 == 0 else BOB
        sendable = [c for c, o in enumerate(owner) if o in (None, party)]
        window = tuple(draw(st.lists(st.sampled_from(sendable), unique=True,
                                     max_size=2))) if sendable else ()
        if k == count - 1 and 0 in sendable and 0 not in window:
            window += (0,)
        allowed = sorted(set(registers[party]).union(
            lay.channel_qubit(c) for c in sendable
            if owner[c] == party or c in window))
        targets = tuple(draw(st.lists(st.sampled_from(allowed), unique=True,
                                      min_size=1, max_size=3))) \
            if allowed else ()
        table = np.stack([random_unitary(1 << len(targets), rng)
                          for _ in range(1 << n)]) if targets else None

        def build(inputs, table=table, targets=targets):
            if table is None:
                return []
            return [linalg.GateStack(table[inputs], targets)]

        steps.append(ProtocolStep(party, window, build))
        for c in window:
            owner[c] = engine.other_party(party)
    return Protocol(lay, tuple(steps), input_bits=n)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(small_protocols())
def test_random_protocols_decompose_and_obey_the_rank_bound(p):
    dim = 1 << p.input_bits
    am = engine.acceptance_matrix(p)
    a, b = engine.output_families(p)
    for xi in range(dim):
        for yi in range(dim):
            state = engine.simulate(p, xi, yi).final_state
            assert abs(np.linalg.norm(state) - 1.0) <= 1e-12
            d = engine.yao_kremer_decompose(p, xi, yi)
            assert np.max(np.abs(d.reconstruct() - state)) <= 1e-12
            a1, b1, _ = d.output_components()
            assert same_bytes(a[:, xi], a1) and same_bytes(b[:, yi], b1)
    # the paper's identity P(x,y) = |sum_i A_i(x) (x) B_i(y)|^2 over the
    # transcripts, with the output bit 1
    branch = np.einsum("ixa,iyb->xyab", a, b)
    assert np.max(np.abs(np.sum(np.abs(branch) ** 2, axis=(2, 3))
                         - am.values)) <= 1e-12
    if 0 in p.steps[-1].window:
        # the output bit is sent last, so at most 2^(l-1) transcripts
        # accept; a receiver that still acts on it can exceed the bound
        bound = 1 << max(0, 2 * p.declared_cost - 2)
        assert linalg.numeric_rank(am.values) <= bound


def test_acceptance_matrix_n_is_an_integer():
    for bad in (True, 1.0, np.True_):
        with pytest.raises(ValueError, match="^n must be an integer$"):
            engine.AcceptanceMatrix(n=bad, values=np.eye(2))
    am = engine.AcceptanceMatrix(n=np.int64(1), values=np.eye(2))
    assert type(am.n) is int
    assert json.loads(am.to_json())["n"] == 1


def contract_cases():
    return [(f"{entry.name}-{n}", entry.protocol) for n in (1, 2, 3, 4)
            for entry in zoo.protocol_corpus(n)] + [
        ("zero-rows-2", zero_row_svd_protocol(2, seed=2)),
        ("zero-rows-3", zero_row_svd_protocol(3, seed=3))]


def test_a_build_over_all_inputs_equals_its_builds_over_each_input():
    """Gate for gate, a step's build over every input gives each input the
    matrix bytes and targets that its build over that input alone gives."""
    for name, p in contract_cases():
        inputs = list(range(1 << p.input_bits))
        for k, step in enumerate(p.steps):
            together = gate_lists(step, inputs)
            for v in inputs:
                (alone,) = gate_lists(step, [v])
                assert len(together[v]) == len(alone), (name, k, v)
                for (u, t), (want, want_t) in zip(together[v], alone):
                    assert t == want_t, (name, k, v)
                    assert same_bytes(u, want), (name, k, v)


def test_every_walk_over_all_inputs_builds_each_step_once(monkeypatch):
    """acceptance_matrix builds Bob's steps once and Alice's once per
    chunk of rows; output_families builds every step once."""
    for name, p in contract_cases():
        dim = 1 << p.input_bits
        calls = []

        def counted(k, build):
            def wrapper(inputs):
                calls.append((k, inputs.tolist()))
                return build(inputs)
            return wrapper

        p = Protocol(p.layout, tuple(
            ProtocolStep(s.party, s.window, counted(k, s.build))
            for k, s in enumerate(p.steps)), input_bits=p.input_bits)
        everything = [(k, list(range(dim))) for k in range(len(p.steps))]
        for chunk in (engine.CHUNK_AMPLITUDES, 1):
            monkeypatch.setattr(engine, "CHUNK_AMPLITUDES", chunk)
            calls.clear()
            engine.acceptance_matrix(p)
            if chunk == 1:
                want = [(k, [x] if s.party == ALICE else list(range(dim)))
                        for k, s in enumerate(p.steps)
                        for x in (range(dim) if s.party == ALICE else [0])]
            else:
                want = everything
            assert sorted(calls) == sorted(want), (name, chunk)
        calls.clear()
        engine.output_families(p)
        assert calls == everything, name
