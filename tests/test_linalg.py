from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from helpers import random_unitary
from qcommlab import linalg
from qcommlab.errors import ContractViolationError


def test_svd_identity_sigma_all_ones():
    res = linalg.svd(np.eye(4))
    assert np.allclose(res.sigma, np.ones(4))


def test_svd_diagonal_input():
    res = linalg.svd(np.diag([3.0, 0.0]))
    assert np.allclose(res.sigma, [3.0, 0.0])
    # u and v are permutation-phase matrices
    for m in (res.u, res.v):
        assert np.allclose(np.abs(m) @ np.abs(m).T, np.eye(2))
        assert np.allclose(np.sort(np.abs(m).ravel()), [0, 0, 1, 1])


def test_svd_common_ones_matrix_has_rank_two():
    # m[x, y] = popcount(x & y) on 2 bits
    xs = np.arange(4)[:, None]
    ys = np.arange(4)[None, :]
    m = np.vectorize(lambda v: float(bin(v).count("1")))(xs & ys)
    res = linalg.svd(m)
    assert np.sum(res.sigma > 1e-9 * res.sigma[0]) == 2
    assert linalg.exact_rank(m) == 2


def test_svd_reconstruction_convention():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
    res = linalg.svd(m)
    assert np.allclose(res.reconstruct(), m)


def test_svd_roundtrip_random_matrices():
    rng = np.random.default_rng(7)
    for _ in range(200):
        rows = int(rng.integers(1, 17))
        cols = int(rng.integers(1, 17))
        m = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
        res = linalg.svd(m)
        scale = max(np.abs(m).max(), 1.0)
        assert np.max(np.abs(res.reconstruct() - m)) <= 1e-8 * scale


def test_support_is_relative_to_the_largest_magnitude():
    v = np.array([1.0, 2e-9, 1e-9, -5e-10, 0.0])
    assert linalg.support(v).tolist() == [True, True, False, False, False]
    # the rule is scale free
    assert np.array_equal(linalg.support(1e-20 * v), linalg.support(v))
    assert np.array_equal(linalg.support(1e20 * v), linalg.support(v))
    m = np.array([[3.0, -1e-6], [0.0, -3.0]])
    assert linalg.support(m).tolist() == [[True, True], [False, True]]


def test_support_of_zeros_is_empty():
    assert not linalg.support(np.zeros((3, 4))).any()
    assert linalg.support(np.zeros((3, 4))).shape == (3, 4)
    assert linalg.support(np.zeros(0)).shape == (0,)


def test_support_compares_complex_magnitudes():
    v = np.array([3 + 4j, 1e-9j, 5e-8 - 5e-8j, 0j])
    assert linalg.support(v).tolist() == [True, False, True, False]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf,
                                 complex(0, np.nan), complex(np.inf, 0)])
def test_support_rejects_nan_and_inf(bad):
    v = np.array([1.0, 0.0, bad])
    with pytest.raises(ValueError):
        linalg.support(v)


def test_numeric_rank_basic_cases():
    assert linalg.numeric_rank(np.eye(8)) == 8
    assert linalg.numeric_rank(np.zeros((4, 4))) == 0
    eq3 = np.eye(8)[np.random.default_rng(0).permutation(8)]
    assert linalg.numeric_rank(eq3) == 8


def test_numeric_rank_matches_exact_oracle_on_integer_matrices():
    rng = np.random.default_rng(3)
    for _ in range(50):
        dim = int(rng.integers(1, 17))
        m = rng.integers(-3, 4, size=(dim, dim)).astype(float)
        assert linalg.numeric_rank(m) == linalg.exact_rank(m)


def test_apply_on_qubits_msb_first():
    x = np.array([[0, 1], [1, 0]], dtype=float)
    s00 = np.array([1, 0, 0, 0], dtype=complex)
    out = linalg.apply_on_qubits(s00, x, [0])
    assert np.allclose(out, [0, 0, 1, 0])  # |10>
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    out = linalg.apply_on_qubits(np.array([1, 0], dtype=complex), h, [0])
    assert np.allclose(out, [1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_apply_on_qubits_bell_preparation():
    cnot = np.eye(4)[[0, 1, 3, 2]]
    plus0 = np.array([1, 0, 1, 0], dtype=complex) / np.sqrt(2)
    out = linalg.apply_on_qubits(plus0, cnot, [0, 1])
    assert np.allclose(out, np.array([1, 0, 0, 1]) / np.sqrt(2))


def test_apply_on_qubits_rejects_non_unitary():
    with pytest.raises(ContractViolationError):
        linalg.apply_on_qubits(np.array([1, 0], dtype=complex),
                               np.array([[1, 0], [0, 2]]), [0])
    with pytest.raises(ValueError):
        linalg.apply_on_qubits(np.array([1, 0], dtype=complex),
                               np.eye(2), [1])


def test_apply_on_qubits_norm_preserved():
    rng = np.random.default_rng(5)
    state = rng.normal(size=16) + 1j * rng.normal(size=16)
    state /= np.linalg.norm(state)
    u = random_unitary(4, rng)
    out = linalg.apply_on_qubits(state, u, [1, 3])
    assert abs(np.linalg.norm(out) - 1.0) <= 1e-12


def test_apply_on_qubits_batch_axis():
    rng = np.random.default_rng(8)
    batch = rng.normal(size=(3, 16)) + 1j * rng.normal(size=(3, 16))
    u = random_unitary(4, rng)
    out = linalg.apply_on_qubits(batch, u, [3, 1])
    assert out.shape == (3, 16)
    for row, got in zip(batch, out):
        want = linalg.apply_on_qubits(row, u, [3, 1])
        assert np.max(np.abs(got - want)) <= 1e-12
    with pytest.raises(ContractViolationError):
        linalg.apply_on_qubits(batch, 2 * u, [3, 1])
    # one gate acts on every vector of a state with up to 3 axes
    stacked = batch.reshape(3, 1, 16)
    assert np.array_equal(linalg.apply_on_qubits(stacked, u, [3, 1]),
                          out.reshape(3, 1, 16))
    with pytest.raises(ValueError):
        linalg.apply_on_qubits(batch.reshape(3, 1, 1, 16), u, [3, 1])


def test_gate_checked_when_made():
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ContractViolationError):
        linalg.GateStack(2 * x[None], (0,))
    with pytest.raises(ValueError):
        linalg.GateStack(np.eye(4)[None], (0,))
    gate = linalg.GateStack(x[None], [1])
    assert gate.targets == (1,) and gate.unitaries.dtype == x.dtype
    assert len(gate) == 1 and gate.rows is None
    x[0, 0] = 5.0  # the gate holds its own copy
    assert gate.unitaries[0, 0, 0] == 0.0
    with pytest.raises(ValueError):
        gate.unitaries[0, 0, 0] = 5.0


def test_gates_compare_and_hash_by_identity():
    gate = linalg.GateStack(np.eye(2)[None], (0,))
    assert gate == gate
    assert gate != linalg.GateStack(np.eye(2)[None], (0,))
    assert {gate} == {gate} and len({gate, gate}) == 1
    assert gate.stack_rows([[1, 0], [0, 1]]).unitaries is gate.unitaries


def test_gate_with_rows_permutes_a_checked_gate():
    """GateStack.stack_rows: gate i of the stack is the one gate's
    rows[i]; only a stack of one gate takes rows."""
    rng = np.random.default_rng(23)
    for k in (1, 2, 3, 4):
        dim = 1 << k
        targets = tuple(rng.permutation(6)[:k].tolist())
        gate = linalg.GateStack(random_unitary(dim, rng)[None], targets)
        rows = np.stack([rng.permutation(dim) for _ in range(5)])
        stack = gate.stack_rows(rows)
        assert len(stack) == 5 and stack.targets == targets
        assert stack.unitaries is gate.unitaries
        assert np.array_equal(stack.rows, rows)
        for r in rows:
            assert linalg.is_unitary(gate.unitaries[0][r])
        rows[0, 0] = -1  # the stack holds its own read-only rows
        with pytest.raises(ValueError):
            stack.rows[0, 0] = 5
        for longer in (stack, linalg.GateStack(
                np.stack([gate.unitaries[0]] * 2), targets)):
            with pytest.raises(ValueError, match="a stack of one gate"):
                longer.stack_rows(rows)


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64,
                                   np.uint8, np.uint16, np.uint32, np.uint64])
def test_gate_with_rows_reads_every_integer_dtype(dtype):
    gate = linalg.GateStack(random_unitary(8, np.random.default_rng(5))[None],
                            (0, 1, 2))
    rows = np.array([[3, 0, 7, 1, 6, 2, 5, 4], [7, 6, 5, 4, 3, 2, 1, 0]],
                    dtype=dtype)
    assert np.array_equal(gate.stack_rows(rows).rows, rows)
    # one gate is kept as its permuted matrix
    one = gate.stack_rows(rows[:1])
    assert one.rows is None and len(one) == 1
    assert np.array_equal(one.unitaries, gate.unitaries[0][rows[:1]])
    with pytest.raises(ValueError, match="permutation"):
        gate.stack_rows(np.array([[3, 0, 7, 1, 6, 2, 5, 4],
                                  [3, 0, 7, 1, 6, 2, 5, 5]], dtype=dtype))


@pytest.mark.parametrize("rows", [[[0, 0, 2, 3]], [[0, 1, 2, 4]], [[1, 0, 2]],
                                  [[0.0, 1.0, 2.0, 3.0]], [[0, 1], [2, 3]],
                                  [0, 1, 2, 3]],
                         ids=["repeated", "out-of-range", "short", "float",
                              "2-D", "1-D"])
def test_gate_with_rows_rejects_non_permutations(rows):
    gate = linalg.GateStack(np.eye(4)[None], (0, 1))
    with pytest.raises(ValueError, match="permutation"):
        gate.stack_rows(rows)
    with pytest.raises(ValueError, match="permutation"):
        gate.stack_rows(np.zeros((0, 4), dtype=int))


def test_apply_on_qubits_gate_matches_matrix():
    rng = np.random.default_rng(11)
    batch = rng.normal(size=(3, 16)) + 1j * rng.normal(size=(3, 16))
    for u in (random_unitary(4, rng), np.eye(4)[[0, 2, 1, 3]]):
        gate = linalg.GateStack(u[None], (0, 1))
        for state, targets in ((batch, [3, 1]), (batch[0], [2, 0])):
            got = linalg.apply_on_qubits(state, gate, targets)
            want = linalg.apply_on_qubits(state, gate.unitaries[0], targets)
            assert np.array_equal(got, want)
    with pytest.raises(ValueError):
        linalg.apply_on_qubits(batch, gate, [0])


def dense_operator(u, targets, n):
    """The 2^n x 2^n matrix of u on targets: u (x) I on the qubits ordered
    targets then the rest ascending, conjugated by that qubit permutation."""
    order = list(targets) + [q for q in range(n) if q not in targets]
    bits = (np.arange(1 << n)[:, None] >> (n - 1 - np.arange(n))) & 1
    reordered = bits[:, order] @ (1 << np.arange(n - 1, -1, -1))
    perm = np.eye(1 << n)[:, reordered]  # perm @ |g> = |g's bits in order>
    full = np.kron(u, np.eye(1 << (n - len(targets))))
    return perm.T @ full @ perm


@pytest.mark.parametrize("n, targets", [
    (4, (0,)), (4, (0, 1)), (5, (1, 2)), (5, (2, 3, 4)), (4, (3,)),
    (4, (1, 2, 3, 0)), (5, (1, 2, 3, 4, 0)), (5, (2, 3, 1)), (5, (3, 1)),
    (5, (0, 2, 4)), (5, (4, 0)), (3, (0, 1, 2)), (3, (2, 0, 1)), (3, ()),
    (0, ()),
], ids=["start-1", "start-2", "middle", "end-3", "end-1", "bob-cyclic-4",
        "bob-cyclic-5", "rotated", "scattered-2", "scattered-3", "reversed",
        "k=n", "k=n-permuted", "k=0", "n=0"])
def test_apply_on_qubits_matches_the_dense_operator(n, targets):
    rng = np.random.default_rng(31 + n * 7 + len(targets))
    dim = 1 << n
    u = random_unitary(1 << len(targets), rng)
    full = dense_operator(u, targets, n)
    states = rng.normal(size=(3, 4, dim)) + 1j * rng.normal(size=(3, 4, dim))
    for state in (states[0, 0], states[0], states[:, 2]):
        before = state.copy()
        for op in (u, linalg.GateStack(u[None], targets)):
            got = linalg.apply_on_qubits(state, op, targets)
            assert got.shape == state.shape
            assert np.max(np.abs(got - state @ full.T), initial=0.0) <= 1e-12
            assert not np.shares_memory(got, state)
        assert np.array_equal(state, before)


@pytest.mark.parametrize("n, targets", [
    (4, (1, 2)), (4, (2, 3)), (5, (1, 2, 3, 4, 0)), (5, (3, 1)),
    (5, (0, 2, 4)), (3, ()), (0, ()),
], ids=["contiguous", "contiguous-end", "rotated", "scattered-2",
        "scattered-3", "empty", "n=0"])
@pytest.mark.parametrize("entries", [1, 4])
def test_stacked_gates_match_one_gate_per_row(n, targets, entries):
    """Gate i on entry i of the leading axis gives the bits of applying
    gate i alone to that entry, for distinct gates and for rows of one
    base gate, with and without a batch axis."""
    rng = np.random.default_rng(41 + n + 7 * len(targets) + entries)
    dim = 1 << len(targets)
    base = linalg.GateStack(random_unitary(dim, rng)[None], targets)
    distinct = np.stack([random_unitary(dim, rng)
                         for _ in range(entries)])
    rows = np.stack([rng.permutation(dim) for _ in range(entries)])
    families = {
        "distinct": (linalg.GateStack(distinct, targets), distinct),
        "rows": (base.stack_rows(rows), base.unitaries[0][rows]),
    }
    for shape in ((entries, 1 << n), (entries, 3, 1 << n)):
        state = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        before = state.copy()
        for name, (stack, gates) in families.items():
            assert len(stack) == entries
            assert (stack.rows is not None) == (
                entries > 1 and name == "rows"), name
            want = np.stack([linalg.apply_on_qubits(row, gate, targets)
                             for row, gate in zip(state, gates)])
            got = linalg.apply_on_qubits(state, stack, targets)
            assert got.shape == state.shape, name
            assert got.tobytes() == want.tobytes(), name
        assert np.array_equal(state, before)


def test_stacked_gates_reject_bad_stacks():
    rng = np.random.default_rng(43)
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    gates = np.stack([random_unitary(2, rng) for _ in range(3)])
    state = rng.normal(size=(3, 4)) + 0j
    with pytest.raises(ValueError, match="2 gates for 3 entries"):
        linalg.apply_on_qubits(state, linalg.GateStack(gates[:2], (1,)), (1,))
    # one check of the whole stack finds one gate that is not unitary
    with pytest.raises(ContractViolationError, match="not unitary"):
        linalg.GateStack(np.concatenate([gates[:2], 2 * x[None]]), (1,))
    with pytest.raises(ValueError, match="one or more 2 x 2 matrices"):
        linalg.GateStack(gates[:0], (1,))
    with pytest.raises(ValueError, match="one or more 2 x 2 matrices"):
        linalg.GateStack(gates[0], (1,))
    with pytest.raises(ValueError, match="one or more 4 x 4 matrices"):
        linalg.GateStack(gates, (0, 1))
    with pytest.raises(ValueError, match="integers"):
        linalg.GateStack(gates, (True,))
    stack = linalg.GateStack(gates, (1,))
    gates[0] = 2 * x  # the stack holds its own read-only copy
    assert linalg.is_unitary(stack.unitaries)
    with pytest.raises(ValueError):
        stack.unitaries[0, 0, 0] = 5.0
    with pytest.raises(ValueError, match="target count"):
        linalg.apply_on_qubits(state, stack, (0, 1))
    # two gates or more, one per entry, need the entries' axis
    with pytest.raises(ValueError, match="after one axis for the gates"):
        linalg.apply_on_qubits(state[0], linalg.GateStack(gates[1:], (1,)),
                               (1,))


@pytest.mark.parametrize("targets", [(1.0,), (True,), (np.True_,), (0, "1"),
                                     (np.float64(1),)],
                         ids=["float", "bool", "numpy-bool", "str",
                              "numpy-float"])
def test_targets_must_be_integers(targets):
    op = np.eye(1 << len(targets))
    with pytest.raises(ValueError, match="integers"):
        linalg.GateStack(op[None], targets)
    with pytest.raises(ValueError, match="integers"):
        linalg.apply_on_qubits(np.eye(1, 4, dtype=complex)[0], op, targets)


def test_numpy_integer_targets_are_accepted():
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    gate = linalg.GateStack(np.kron(x, np.eye(2))[None],
                            (np.int64(1), np.uint8(0)))
    assert gate.targets == (1, 0)
    assert all(type(t) is int for t in gate.targets)
    s00 = np.eye(1, 4, dtype=complex)[0]
    assert np.array_equal(linalg.apply_on_qubits(s00, gate, gate.targets),
                          [0, 1, 0, 0])  # X on qubit 1: |01>
    assert np.array_equal(linalg.apply_on_qubits(s00, x, np.array([0])),
                          [0, 0, 1, 0])  # X on qubit 0: |10>


def test_is_unitary_of_empty_stacks_and_matrices():
    # nothing fails in an empty stack, and the 0 x 0 matrix is unitary
    for empty in (np.zeros((0, 2, 2)), np.zeros((0, 0)), np.zeros((3, 0, 0)),
                  np.zeros((0, 0, 0))):
        assert linalg.is_unitary(empty) is True, empty.shape
    assert linalg.is_unitary(np.zeros((0, 2, 3))) is False
    assert linalg.is_unitary(np.zeros(0)) is False


def test_random_unitaries_are_unitary():
    rng = np.random.default_rng(42)
    for _ in range(200):
        dim = int(rng.integers(2, 17))
        u = random_unitary(dim, rng)
        assert np.max(np.abs(u @ u.conj().T - np.eye(dim))) <= 1e-9


def test_unitary_with_first_column():
    rng = np.random.default_rng(9)
    for dim in range(1, 65):
        z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        head_zero = np.concatenate([[0], z[1:]]) if dim > 1 else z
        pure_phase = np.eye(1, dim)[0] * np.exp(1j * rng.normal())
        for phi in (z, z.real, head_zero, pure_phase):
            phi = phi / np.linalg.norm(phi)
            w = linalg.unitary_with_first_column(phi)
            assert w.shape == (dim, dim) and w.dtype == complex
            assert np.max(np.abs(w[:, 0] - phi)) <= 1e-12, dim
            assert linalg.is_unitary(w), dim
            assert np.array_equal(linalg.unitary_with_first_column(phi), w)
    # a stack of columns gives, bit for bit, each column's unitary
    for dim in (1, 2, 5, 16):
        phis = rng.normal(size=(7, dim)) + 1j * rng.normal(size=(7, dim))
        phis[0, 0] = 0.0 if dim > 1 else phis[0, 0]
        phis /= np.linalg.norm(phis, axis=1)[:, None]
        ws = linalg.unitary_with_first_column(phis)
        assert ws.shape == (7, dim, dim) and linalg.is_unitary(ws)
        for phi, w in zip(phis, ws):
            assert w.tobytes() == linalg.unitary_with_first_column(phi).tobytes()


def test_unitary_with_first_column_rejects_bad_input():
    for bad in ([np.nan, 0], [1, np.nan], [np.inf, 0], [1j * np.nan],
                [], [[1], [0]], [[1, 0], [0.5, 0.5]], [[]], np.zeros((0, 2)),
                [[[1, 0]]], 1.0, [0.5, 0.5], [0, 0]):
        with pytest.raises(ValueError, match="^first column must be"):
            linalg.unitary_with_first_column(np.array(bad, dtype=complex))


def test_exact_rank_on_fractions_of_floats():
    m = np.array([[0.5, 0.25], [1.0, 0.5]])
    assert linalg.exact_rank(m) == 1
    assert linalg.exact_rank(np.zeros((3, 2))) == 0


def reference_exact_rank(m):
    """The Gaussian elimination over Fractions that Bareiss replaced."""
    rows = [[Fraction(float(np.real(x))) for x in row] for row in np.asarray(m)]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        for r in range(rank + 1, nrows):
            if rows[r][col] != 0:
                factor = rows[r][col] / pv
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


def test_exact_rank_matches_fraction_elimination():
    rng = np.random.default_rng(17)

    def low_rank(rows, cols, draw):
        k = int(rng.integers(0, min(rows, cols) + 1))
        return draw((rows, k)) @ draw((k, cols))

    kinds = {
        "dyadic": lambda r, c: rng.integers(-16, 17, size=(r, c)) / 16.0,
        "non-dyadic": lambda r, c: rng.uniform(-1.0, 1.0, size=(r, c)),
        "rank-deficient": lambda r, c: low_rank(
            r, c, lambda s: rng.integers(-3, 4, size=s) / 4.0),
        "rank-deficient non-dyadic": lambda r, c: low_rank(
            r, c, lambda s: rng.uniform(-1.0, 1.0, size=s)),
        "wide-exponent": lambda r, c: (rng.uniform(0.5, 1.5, size=(r, c))
                                       * 2.0 ** rng.integers(-40, 41, size=(r, c))),
        "0/1": lambda r, c: rng.integers(0, 2, size=(r, c)).astype(float),
    }
    shapes = [(1, k) for k in (1, 2, 7)] + [(k, 1) for k in (2, 7)]
    shapes += [tuple(int(v) for v in rng.integers(1, 12, size=2))
               for _ in range(40)]
    for name, draw in kinds.items():
        for shape in shapes:
            m = draw(*shape)
            assert linalg.exact_rank(m) == reference_exact_rank(m), (name, shape)


def test_exact_rank_input_contract():
    for bad in (np.nan, np.inf, -np.inf):
        m = np.eye(3)
        m[1, 2] = bad
        with pytest.raises(ValueError):
            linalg.exact_rank(m)
    for shape in ((4,), (2, 2, 2)):
        with pytest.raises(ValueError):
            linalg.exact_rank(np.ones(shape))
    with pytest.raises(ValueError):
        linalg.exact_rank(np.eye(2) * 1j)
    assert linalg.exact_rank(np.eye(2) + 0j) == 2
    for shape in ((0, 3), (3, 0), (0, 0)):
        assert linalg.exact_rank(np.zeros(shape)) == 0


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_exact_rank_matches_numeric_rank_on_integer_products(data):
    rows = data.draw(st.integers(1, 6))
    cols = data.draw(st.integers(1, 6))
    inner = data.draw(st.integers(0, 6))
    entries = st.integers(-2, 2)
    left = data.draw(arrays(np.int64, (rows, inner), elements=entries))
    right = data.draw(arrays(np.int64, (inner, cols), elements=entries))
    m = (left @ right).astype(float)
    rank = linalg.exact_rank(m)
    assert rank <= min(rows, cols, inner)
    assert rank == linalg.numeric_rank(m)
