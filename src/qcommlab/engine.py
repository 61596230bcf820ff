"""Two-party protocol model and simulator.

The global register is tripartite: Alice's qubits, then the channel, then
Bob's qubits (qubit 0 leftmost).  A protocol is a list of steps that
alternate parties starting with Alice.  Each step declares a window of
channel qubits it sends; after the step those qubits belong to the other
party.  A step's gates may act only on the sender's register, channel
qubits the sender currently holds, and the declared window.  The cost of a
protocol is the total number of window qubits over all steps.  The output
bit is the first channel qubit, read at the very end; there are no
intermediate measurements.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import linalg
from .errors import CapacityError, ContractViolationError

ALICE = "alice"
BOB = "bob"

MAX_TOTAL_QUBITS = 24
MAX_TRANSCRIPT_BITS = 12
ACCEPTANCE_N_GUARD = 6


def other_party(party: str) -> str:
    return BOB if party == ALICE else ALICE


def bit_array(value) -> np.ndarray:
    """A '01' string or a 0/1 sequence as a 1-D uint8 array.

    Raises ValueError for any other character or value, and for input
    that is not one-dimensional.
    """
    arr = np.asarray(list(value) if isinstance(value, str) else value)
    zero, one = ("0", "1") if arr.dtype.kind == "U" else (0, 1)
    is_one = arr == one
    if arr.ndim != 1 or not np.all(is_one | (arr == zero)):
        raise ValueError(f"inputs must be 0/1 sequences, got {value!r}")
    return is_one.astype(np.uint8)


def as_bits(value, n: int) -> tuple:
    """Normalize an input to a tuple of n bits, most significant first.

    Accepts an int, a '01' string, or a bit sequence.
    """
    if isinstance(value, (int, np.integer)):
        if value < 0 or value >= (1 << n):
            raise ValueError(f"input {value} out of range for {n} bits")
        return tuple((int(value) >> (n - 1 - i)) & 1 for i in range(n))
    bits = tuple(bit_array(value).tolist())
    if len(bits) != n:
        raise ValueError(f"expected {n} bits, got {value!r}")
    return bits


def bits_to_int(bits) -> int:
    out = 0
    for b in bits:
        out = (out << 1) | int(b)
    return out


@dataclass(frozen=True)
class RegisterLayout:
    alice_qubits: int
    channel_qubits: int
    bob_qubits: int

    def __post_init__(self):
        if self.alice_qubits < 0 or self.bob_qubits < 0:
            raise ValueError("negative register size")
        if self.channel_qubits < 1:
            raise ValueError("channel needs at least 1 qubit for the output bit")
        if self.total > MAX_TOTAL_QUBITS:
            raise CapacityError(
                f"{self.total} qubits exceeds the {MAX_TOTAL_QUBITS}-qubit guard")

    @property
    def total(self) -> int:
        return self.alice_qubits + self.channel_qubits + self.bob_qubits

    def channel_qubit(self, k: int) -> int:
        if not 0 <= k < self.channel_qubits:
            raise ValueError(f"channel index {k} out of range")
        return self.alice_qubits + k

    @property
    def output_qubit(self) -> int:
        return self.alice_qubits

    @property
    def alice_register(self) -> tuple:
        return tuple(range(self.alice_qubits))

    @property
    def bob_register(self) -> tuple:
        start = self.alice_qubits + self.channel_qubits
        return tuple(range(start, start + self.bob_qubits))


@dataclass(frozen=True)
class Gate:
    """A unitary on an explicit tuple of global qubit indices."""

    unitary: np.ndarray
    targets: tuple

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(self.targets))


@dataclass(frozen=True)
class ProtocolStep:
    """One turn.  ``build`` maps the sender's input bits to a gate list.

    ``window`` lists the channel qubits (channel-local indices) sent this
    turn; it may be empty for a bookkeeping turn with no message.
    """

    party: str
    window: tuple
    build: Callable[[tuple], Sequence[Gate]]

    def __post_init__(self):
        if self.party not in (ALICE, BOB):
            raise ValueError(f"unknown party {self.party!r}")
        object.__setattr__(self, "window", tuple(self.window))
        if len(set(self.window)) != len(self.window):
            raise ValueError("window indices must be distinct")

    @property
    def message_length(self) -> int:
        return len(self.window)


@dataclass(frozen=True)
class Protocol:
    layout: RegisterLayout
    steps: tuple
    input_bits: int

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        for k, step in enumerate(self.steps):
            expected = ALICE if k % 2 == 0 else BOB
            if step.party != expected:
                raise ValueError(
                    "steps must alternate parties starting with Alice; "
                    f"step {k} is {step.party}")
            if step.window and max(step.window) >= self.layout.channel_qubits:
                raise ValueError(f"step {k} window exceeds the channel")
        if self.input_bits < 0:
            raise ValueError("input_bits must be nonnegative")

    @property
    def declared_cost(self) -> int:
        return sum(s.message_length for s in self.steps)


class SimulationResult(NamedTuple):
    final_state: np.ndarray
    accept_prob: float
    cost: int


def _step_context(p: Protocol, step: ProtocolStep, owner: list):
    """Window in global indices plus the set of qubits the step may touch."""
    lay = p.layout
    window_glob = [lay.channel_qubit(k) for k in step.window]
    for k in step.window:
        if owner[k] not in (None, step.party):
            raise ContractViolationError(
                f"{step.party} sends channel qubit {k} held by {owner[k]}")
    if step.party == ALICE:
        allowed = set(lay.alice_register)
    else:
        allowed = set(lay.bob_register)
    allowed.update(lay.channel_qubit(k)
                   for k, o in enumerate(owner) if o == step.party)
    allowed.update(window_glob)
    return window_glob, allowed


def simulate(p: Protocol, x, y) -> SimulationResult:
    x = as_bits(x, p.input_bits)
    y = as_bits(y, p.input_bits)
    lay = p.layout
    state = np.zeros(1 << lay.total, dtype=complex)
    state[0] = 1.0
    owner = [None] * lay.channel_qubits
    for step in p.steps:
        window_glob, allowed = _step_context(p, step, owner)
        inp = x if step.party == ALICE else y
        for gate in step.build(inp):
            if not set(gate.targets) <= allowed:
                raise ContractViolationError(
                    f"{step.party} gate touches qubits "
                    f"{sorted(set(gate.targets) - allowed)} outside its turn")
            state = linalg.apply_on_qubits(state, gate.unitary, gate.targets)
        for k in step.window:
            owner[k] = other_party(step.party)
    shift = lay.total - 1 - lay.output_qubit
    idx = np.arange(1 << lay.total)
    accept = float(np.sum(np.abs(state[(idx >> shift) & 1 == 1]) ** 2))
    return SimulationResult(state, accept, p.declared_cost)


@dataclass
class AcceptanceMatrix:
    """P(x,y) over all 2^n x 2^n input pairs, entries clamped to [0,1]."""

    n: int
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (1 << self.n, 1 << self.n):
            raise ValueError("values shape does not match n")
        if v.min() < -1e-12 or v.max() > 1 + 1e-12:
            raise ValueError("acceptance probabilities out of [0,1] range")
        self.values = np.clip(v, 0.0, 1.0)

    def to_csv(self) -> str:
        lines = [",".join(format(v, ".12g") for v in row) for row in self.values]
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "values": self.values.tolist()})

    @classmethod
    def from_json(cls, text: str) -> "AcceptanceMatrix":
        obj = json.loads(text)
        return cls(n=obj["n"], values=np.asarray(obj["values"]))


def acceptance_matrix(p: Protocol, force: bool = False) -> AcceptanceMatrix:
    n = p.input_bits
    if n > ACCEPTANCE_N_GUARD and not force:
        raise CapacityError(
            f"acceptance_matrix over 2^{2 * n} pairs; pass force=True to insist")
    dim = 1 << n
    values = np.empty((dim, dim), dtype=float)
    for xi in range(dim):
        for yi in range(dim):
            values[xi, yi] = simulate(p, xi, yi).accept_prob
    return AcceptanceMatrix(n=n, values=values)


@dataclass(frozen=True)
class TranscriptDecomposition:
    """Final state written as a transcript-indexed sum of product vectors.

    For every ``ell``-bit transcript i (index: first sent bit most
    significant) the branch state is a_vectors[i] on ``alice_side`` tensor
    b_vectors[i] on ``bob_side``; channel qubits never sent sit in
    ``pool_qubits`` as |0>.  a_vectors[i] depends only on Alice's input,
    b_vectors[i] only on Bob's.  ``out_bit_index`` is the transcript
    position of the last bit sent (-1 for a message-free protocol).
    """

    layout: RegisterLayout
    ell: int
    alice_side: tuple
    bob_side: tuple
    pool_qubits: tuple
    a_vectors: np.ndarray
    b_vectors: np.ndarray
    out_bit_index: int

    def reconstruct(self) -> np.ndarray:
        lay = self.layout
        order = list(self.alice_side) + list(self.bob_side) + list(self.pool_qubits)
        pool = np.zeros(1 << len(self.pool_qubits), dtype=complex)
        pool[0] = 1.0
        total = np.zeros(1 << lay.total, dtype=complex)
        for a, b in zip(self.a_vectors, self.b_vectors):
            total += np.kron(np.kron(a, b), pool)
        # axes currently follow `order`; send axis j to position order[j]
        t = total.reshape([2] * lay.total)
        t = np.moveaxis(t, range(lay.total), order)
        return t.reshape(1 << lay.total)

    def output_components(self):
        """Per transcript, the output-bit-is-1 part split by side.

        Returns (a1, b1, holder): if Alice's side holds the output qubit,
        a1[i] is a_vectors[i] projected on output=1 with that qubit removed
        and b1 = b_vectors; symmetrically for Bob.  holder names the side.
        If the output qubit was never sent it is |0> and both parts are
        empty zero families.
        """
        out = self.layout.output_qubit
        if out in self.alice_side:
            pos = self.alice_side.index(out)
            return _project_out(self.a_vectors, pos), self.b_vectors, ALICE
        if out in self.bob_side:
            pos = self.bob_side.index(out)
            a1 = self.a_vectors
            return a1, _project_out(self.b_vectors, pos), BOB
        shape_a = (self.a_vectors.shape[0], self.a_vectors.shape[1])
        return np.zeros(shape_a, dtype=complex), self.b_vectors, None


def _project_out(vectors: np.ndarray, pos: int) -> np.ndarray:
    """Keep the bit-at-pos = 1 component and drop that qubit."""
    count, dim = vectors.shape
    m = dim.bit_length() - 1
    t = vectors.reshape([count] + [2] * m)
    t = np.moveaxis(t, 1 + pos, 1)
    return t[:, 1, ...].reshape(count, dim // 2)


def yao_kremer_decompose(p: Protocol, x, y) -> TranscriptDecomposition:
    ell = p.declared_cost
    if ell > MAX_TRANSCRIPT_BITS:
        raise CapacityError(f"2^{ell} transcripts exceed the decomposition budget")
    x = as_bits(x, p.input_bits)
    y = as_bits(y, p.input_bits)
    lay = p.layout
    sides = {ALICE: list(lay.alice_register), BOB: list(lay.bob_register)}
    owner = [None] * lay.channel_qubits

    def fresh(side):
        v = np.zeros(1 << len(side), dtype=complex)
        v[0] = 1.0
        return v

    branch_a = [fresh(sides[ALICE])]
    branch_b = [fresh(sides[BOB])]
    for step in p.steps:
        window_glob, allowed = _step_context(p, step, owner)
        sender, receiver = step.party, other_party(step.party)
        side = sides[sender]
        mine = branch_a if sender == ALICE else branch_b
        theirs = branch_b if sender == ALICE else branch_a
        claimed = [g for g in window_glob if g not in side]
        if claimed:
            pad = np.zeros(1 << len(claimed), dtype=complex)
            pad[0] = 1.0
            mine = [np.kron(v, pad) for v in mine]
            side = side + claimed
        inp = x if sender == ALICE else y
        gates = list(step.build(inp))
        for gate in gates:
            if not set(gate.targets) <= allowed:
                raise ContractViolationError(
                    f"{sender} gate touches qubits "
                    f"{sorted(set(gate.targets) - allowed)} outside its turn")
            positions = [side.index(t) for t in gate.targets]
            mine = [linalg.apply_on_qubits(v, gate.unitary, positions)
                    for v in mine]
        k = len(window_glob)
        if k:
            m = len(side)
            kpos = [side.index(g) for g in window_glob]
            rest = [q for q in side if q not in window_glob]
            new_mine, new_theirs = [], []
            for v, w in zip(mine, theirs):
                t = np.moveaxis(v.reshape([2] * m), kpos, range(k))
                rows = t.reshape(1 << k, 1 << (m - k))
                for bits in range(1 << k):
                    basis = np.zeros(1 << k, dtype=complex)
                    basis[bits] = 1.0
                    new_mine.append(rows[bits].copy())
                    new_theirs.append(np.kron(w, basis))
            mine, theirs = new_mine, new_theirs
            side = rest
            sides[receiver] = sides[receiver] + window_glob
        sides[sender] = side
        if sender == ALICE:
            branch_a, branch_b = mine, theirs
        else:
            branch_a, branch_b = theirs, mine
        for kk in step.window:
            owner[kk] = receiver
    pool = tuple(lay.channel_qubit(k)
                 for k, o in enumerate(owner) if o is None)
    return TranscriptDecomposition(
        layout=lay,
        ell=ell,
        alice_side=tuple(sides[ALICE]),
        bob_side=tuple(sides[BOB]),
        pool_qubits=pool,
        a_vectors=np.stack(branch_a),
        b_vectors=np.stack(branch_b),
        out_bit_index=ell - 1,
    )


class RankBoundReport(NamedTuple):
    rank: int
    bound: int
    ok: bool


def rank_bound_audit(p: Protocol, tol: float = linalg.DEFAULT_TOL,
                     force: bool = False) -> RankBoundReport:
    """Check numeric_rank(P) <= 2^(2*cost - 2) on the acceptance matrix."""
    mat = acceptance_matrix(p, force=force)
    rank = linalg.numeric_rank(mat.values, tol)
    bound = 1 << max(0, 2 * p.declared_cost - 2)
    return RankBoundReport(rank=rank, bound=bound, ok=rank <= bound)
