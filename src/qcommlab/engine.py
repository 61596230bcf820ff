"""Two-party protocol model and simulator.

The global register is tripartite: Alice's qubits, then the channel, then
Bob's qubits (qubit 0 leftmost).  A protocol is a list of steps that
alternate parties starting with Alice.  Each step declares a window of
channel qubits it sends; after the step those qubits belong to the other
party.  A step's gates may act only on the sender's register, channel
qubits the sender currently holds, and the declared window.  The cost of a
protocol is the total number of window qubits over all steps.  The output
bit is the first channel qubit, read at the very end; there are no
intermediate measurements.  An input is its index in [0, 2^n), first bit
most significant (``as_input``), and a step's build gets the sender's.

Every entry point runs one turn-walker.  ``_compile`` walks the steps once,
checks ownership and legality, and builds each Alice step once per x and
each Bob step once per y, since Alice's gates depend only on x and Bob's
only on y.  It groups a step's inputs by the targets of their gate lists
and stacks each gate layer of a group once (``linalg.GateStack``).  One
turn applier, ``_apply_turn``, serves both walks: it applies each layer
of a group to the states of all its inputs as one stacked matmul, in
``linalg.apply_on_qubits``.  ``_evolve`` holds one state per pair in an
array of shape (x, y, 2^total): an Alice turn acts on states[x] of every
x at once, a Bob turn on states[:, y] of every y.  Alice's turns before
Bob's first act on one state per x, of shape (x, 1, 2^total), which
Bob's first turn broadcasts over y.  ``simulate`` is the walk over one
pair and ``acceptance_matrix`` the walk over all pairs in chunks of x
rows: it compiles Bob's steps once for every y and Alice's for each
chunk's own rows, so every group holds indices into the states it acts
on and no stack is ever sliced.

The Yao-Kremer decomposition walk ``_decompose`` is batched over inputs
the same way.  A party's transcript branches depend only on its own
input, so it holds Alice's as (x, transcripts, 2^side) and Bob's as
(y, transcripts, 2^side), and the turn applier acts on them as on the
states; the window split and the receiver's |bits> expansion act on
every input at once.  ``yao_kremer_decompose`` is its one-pair case, and
``output_families`` gives every input's output-bit-1 components.

A ``Gate`` (defined in ``linalg``, re-exported here) is checked for
unitarity once, when it is made, so the walk applies it to any number of
chunks and branches without checking it again; a gate that
``Gate.with_rows`` permutes from a checked one is not checked at all,
and a group of such gates stacks as the one base matrix and their rows.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import linalg
from .errors import CapacityError, ContractViolationError
from .linalg import Gate

ALICE = "alice"
BOB = "bob"

MAX_TOTAL_QUBITS = 24
MAX_TRANSCRIPT_BITS = 12
ACCEPTANCE_N_GUARD = 6
# amplitudes acceptance_matrix evolves at once (512 KB): as many rows x of
# the matrix as fit, and at least one.  Bigger chunks mean fewer batched
# gate calls but a higher peak memory.
CHUNK_AMPLITUDES = 1 << 15


def other_party(party: str) -> str:
    return BOB if party == ALICE else ALICE


def bit_array(value) -> np.ndarray:
    """A '01' string or a 0/1 sequence as a new, writable 1-D uint8 array.

    A str, and a list or tuple of Python or numpy integers or bools, are
    read in one C pass as bytes; a 1-D bool or unsigned array is checked
    by its max and copied by one cast.  Any other input (a signed or float
    array, floats, '0'/'1' strings in a list) goes through np.asarray.
    Raises ValueError for any other character or value, and for input
    that is not one-dimensional.
    """
    arr = None
    if isinstance(value, str):
        try:
            arr = np.frombuffer(value.encode(), np.uint8) - ord("0")
        except UnicodeEncodeError:
            raise _not_bits(value) from None
    elif isinstance(value, (list, tuple)):
        # raises unless every item is an integer in 0..255
        with contextlib.suppress(TypeError, ValueError):
            arr = np.frombuffer(bytearray(value), np.uint8)
    elif (isinstance(value, np.ndarray) and value.ndim == 1
            and value.dtype.kind in "bu"):
        # the max of the input, before the cast, so 256 cannot wrap to 0
        if value.size and value.max() > 1:
            raise _not_bits(value)
        return value.astype(np.uint8)
    if arr is None:
        arr = np.asarray(value)
        zero, one = ("0", "1") if arr.dtype.kind == "U" else (0, 1)
        is_one = arr == one
        if arr.ndim != 1 or not np.all(is_one | (arr == zero)):
            raise _not_bits(value)
        return is_one.astype(np.uint8)
    if arr.size and arr.max() > 1:
        raise _not_bits(value)
    return arr


def _not_bits(value) -> ValueError:
    return ValueError(f"inputs must be 0/1 sequences, got {value!r}")


def as_input(value, n: int) -> int:
    """An input as its index in [0, 2^n), most significant bit first.

    Accepts an int other than a bool, a '01' string, or a bit sequence.
    """
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        if value < 0 or value >= (1 << n):
            raise ValueError(f"input {value} out of range for {n} bits")
        return int(value)
    bits = bit_array(value)
    if len(bits) != n:
        raise ValueError(f"expected {n} bits, got {value!r}")
    # the bits as binary digits after a leading 0, so n = 0 reads 0
    return int("0" + "".join(map(str, bits.tolist())), 2)


@dataclass(frozen=True)
class RegisterLayout:
    alice_qubits: int
    channel_qubits: int
    bob_qubits: int

    def __post_init__(self):
        for name in ("alice_qubits", "channel_qubits", "bob_qubits"):
            linalg._require_int(getattr(self, name), name)
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
class ProtocolStep:
    """One turn.  ``build`` maps the sender's input, as its index in
    [0, 2^input_bits) with the first bit most significant, to a gate list.

    ``window`` lists the channel qubits sent this turn, as channel-local
    indices >= 0; it may be empty for a bookkeeping turn with no message.
    """

    party: str
    window: tuple
    build: Callable[[int], Sequence[Gate]]

    def __post_init__(self):
        if self.party not in (ALICE, BOB):
            raise ValueError(f"unknown party {self.party!r}")
        window = tuple(linalg._require_int(k, "a window index")
                       for k in self.window)
        object.__setattr__(self, "window", window)
        if window and min(window) < 0:
            raise ValueError("window indices must be nonnegative")
        if len(set(window)) != len(window):
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
        object.__setattr__(self, "input_bits",
                           linalg._require_int(self.input_bits, "input_bits"))
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


class _Group(NamedTuple):
    """Inputs of one turn whose gate lists act on the same targets, layer
    by layer: their indices in the walk's input list, ascending, and one
    GateStack per layer."""

    inputs: tuple
    layers: list


class _Turn(NamedTuple):
    """One step after the walk: the sender, the window in global qubit
    indices, and the sender's inputs grouped by the targets of their gate
    lists; an input with no gates is in no group."""

    party: str
    window: tuple
    groups: list


def _compile(p: Protocol, xs: Sequence[int], ys: Sequence[int]) -> list:
    """Walk the steps once: check channel ownership, build each Alice step
    once per input in ``xs`` and each Bob step once per input in ``ys``,
    group the inputs with gates by the targets of their gate lists, raise
    ContractViolationError for a group's gate outside its turn, whichever
    input built it, and stack each layer of a group once."""
    lay = p.layout
    registers = {ALICE: lay.alice_register, BOB: lay.bob_register}
    owner = [None] * lay.channel_qubits
    turns = []
    for step in p.steps:
        for k in step.window:
            if owner[k] not in (None, step.party):
                raise ContractViolationError(
                    f"{step.party} sends channel qubit {k} held by {owner[k]}")
        window = tuple(lay.channel_qubit(k) for k in step.window)
        allowed = set(registers[step.party]).union(window, (
            lay.channel_qubit(k) for k, o in enumerate(owner)
            if o == step.party))
        # per tuple of gate-list targets, its inputs and their gate lists
        members = {}
        for i, v in enumerate(xs if step.party == ALICE else ys):
            gates = list(step.build(v))
            if gates:
                inputs, lists = members.setdefault(
                    tuple([g.targets for g in gates]), ([], []))
                inputs.append(i)
                lists.append(gates)
        for targets in (t for key in members for t in key):
            if not allowed.issuperset(targets):
                raise ContractViolationError(
                    f"{step.party} gate touches qubits "
                    f"{sorted(set(targets) - allowed)} outside its turn")
        # zip turns a group's gate lists into its layers
        groups = [_Group(tuple(inputs), [linalg.GateStack.of(layer)
                                         for layer in zip(*lists)])
                  for inputs, lists in members.values()]
        turns.append(_Turn(step.party, window, groups))
        for k in step.window:
            owner[k] = other_party(step.party)
    return turns


def _apply_turn(stacks: np.ndarray, groups: list,
                side: Sequence[int] = None) -> np.ndarray:
    """The states after a turn.  stacks[i] holds the states of input i of
    the compiled walk; every group acts on its inputs with one stacked
    matmul per layer.  ``side`` is the global qubit at each position of
    the states (position = qubit if None).  A group that covers every
    input returns its result; otherwise stacks is updated in place and
    returned."""
    for group in groups:
        whole = len(group.inputs) == len(stacks)
        index = list(group.inputs)
        batch = stacks if whole else stacks[index]
        for layer in group.layers:
            positions = layer.targets if side is None else [
                side.index(t) for t in layer.targets]
            batch = linalg.apply_on_qubits(batch, layer, positions)
        if whole:
            return batch
        stacks[index] = batch
    return stacks


def _evolve(lay: RegisterLayout, turns: list, rows: int,
            columns: int) -> np.ndarray:
    """Final states of the pairs (x, y), x < ``rows`` and y < ``columns``
    among the compiled walk's inputs, as an array of shape (rows, columns,
    2^total).  Alice's turns before Bob's first act on one state per x, of
    shape (x, 1, 2^total), which Bob's first turn broadcasts over y."""
    states = np.zeros((rows, 1, 1 << lay.total), dtype=complex)
    states[:, :, 0] = 1.0
    for turn in turns:
        if turn.party == ALICE:
            states = _apply_turn(states, turn.groups)
            continue
        if states.shape[1] < columns:
            states = states.repeat(columns, axis=1)
        states = _apply_turn(states.swapaxes(0, 1),
                             turn.groups).swapaxes(0, 1)
    if states.shape[1] < columns:  # Bob has no turn
        states = np.broadcast_to(states, (rows, columns, states.shape[-1]))
    return states


def _accept_probs(lay: RegisterLayout, states: np.ndarray) -> np.ndarray:
    """Probability that the output qubit reads 1, per state."""
    ones = _project_out(states, lay.output_qubit)
    return (np.abs(ones) ** 2).sum(axis=-1)


def simulate(p: Protocol, x, y) -> SimulationResult:
    x = as_input(x, p.input_bits)
    y = as_input(y, p.input_bits)
    states = _evolve(p.layout, _compile(p, [x], [y]), 1, 1)
    accept = float(_accept_probs(p.layout, states)[0, 0])
    return SimulationResult(states[0, 0], accept, p.declared_cost)


@dataclass
class AcceptanceMatrix:
    """P(x,y) over all 2^n x 2^n input pairs, entries clamped to [0,1]."""

    n: int
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (1 << self.n, 1 << self.n):
            raise ValueError("values shape does not match n")
        if not np.all(np.isfinite(v)):
            raise ValueError("acceptance probabilities must be finite")
        if v.min() < -1e-12 or v.max() > 1 + 1e-12:
            raise ValueError("acceptance probabilities out of [0,1] range")
        self.values = np.clip(v, 0.0, 1.0)

    def support(self) -> np.ndarray:
        """Pairs accepted with nonzero probability.  A probability is a
        squared amplitude, so it is compared on the amplitude scale."""
        return linalg.support(np.sqrt(self.values))

    def to_csv(self) -> str:
        """The table, with 0 wherever support() is False (rounding noise)."""
        table = np.where(self.support(), self.values, 0.0)
        lines = [",".join(format(v, ".12g") for v in row) for row in table]
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "values": self.values.tolist()})


def _require_tabulable(p: Protocol, name: str) -> None:
    """CapacityError unless a walk over all 2^n inputs of p fits: the one
    size rule of acceptance_matrix and output_families, checked before
    any step is built."""
    n = p.input_bits
    if n > ACCEPTANCE_N_GUARD:
        raise CapacityError(
            f"{name} over 2^{2 * n} pairs; it tabulates only "
            f"n <= {ACCEPTANCE_N_GUARD}")
    if n + p.layout.total > MAX_TOTAL_QUBITS:
        raise CapacityError(
            f"one row of 2^{n} pairs over {p.layout.total} qubits exceeds "
            f"the {MAX_TOTAL_QUBITS}-qubit guard")


def acceptance_matrix(p: Protocol) -> AcceptanceMatrix:
    _require_tabulable(p, "acceptance_matrix")
    n = p.input_bits
    dim = 1 << n
    inputs = range(dim)
    bob = _compile(p, [], inputs)
    rows = max(1, CHUNK_AMPLITUDES >> (n + p.layout.total))
    values = np.empty((dim, dim), dtype=float)
    for start in range(0, dim, rows):
        chunk = inputs[start:start + rows]
        turns = [a if a.party == ALICE else b
                 for a, b in zip(_compile(p, chunk, []), bob)]
        states = _evolve(p.layout, turns, len(chunk), dim)
        values[start:start + rows] = _accept_probs(p.layout, states)
    return AcceptanceMatrix(n=n, values=values)


@dataclass(frozen=True)
class TranscriptDecomposition:
    """Final state written as a transcript-indexed sum of product vectors.

    For every ``ell``-bit transcript i (index: first sent bit most
    significant) the branch state is a_vectors[i] on ``alice_side`` tensor
    b_vectors[i] on ``bob_side``; channel qubits never sent sit in
    ``pool_qubits`` as |0>.  a_vectors[i] depends only on Alice's input,
    b_vectors[i] only on Bob's.

    ``yao_kremer_decompose`` gives one pair's vectors, of shape
    (transcripts, 2^side).  The walk over many inputs, ``_decompose``,
    stacks them as (len(xs), transcripts, 2^side) for Alice and
    (len(ys), ...) for Bob; ``output_components`` keeps that input axis,
    and ``reconstruct`` needs one pair.
    """

    layout: RegisterLayout
    ell: int
    alice_side: tuple
    bob_side: tuple
    pool_qubits: tuple
    a_vectors: np.ndarray
    b_vectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        """sum_i a_i (x) b_i (x) |0..0>_pool: the product a_vectors.T @
        b_vectors in column 0 of a (2^(A+B), 2^pool) array, whose qubits
        one transpose puts in global order."""
        total, pool = self.layout.total, len(self.pool_qubits)
        order = self.alice_side + self.bob_side + self.pool_qubits
        t = np.zeros((1 << (total - pool), 1 << pool), dtype=complex)
        t[:, 0] = (self.a_vectors.T @ self.b_vectors).ravel()
        inverse = sorted(range(total), key=order.__getitem__)
        return t.reshape((2,) * total).transpose(inverse).reshape(-1)

    def output_components(self):
        """Per transcript, the output-bit-is-1 part split by side.

        Returns (a1, b1, holder): if Alice's side holds the output qubit,
        a1[..., i, :] is a_vectors[..., i, :] projected on output=1 with
        that qubit removed and b1 = b_vectors; symmetrically for Bob.
        holder names the side.  If the output qubit was never sent it is
        |0> and a1 is a zero family of a_vectors' shape.
        """
        out = self.layout.output_qubit
        if out in self.alice_side:
            pos = self.alice_side.index(out)
            return _project_out(self.a_vectors, pos), self.b_vectors, ALICE
        if out in self.bob_side:
            pos = self.bob_side.index(out)
            return self.a_vectors, _project_out(self.b_vectors, pos), BOB
        return np.zeros(self.a_vectors.shape, dtype=complex), self.b_vectors, None


def _project_out(vectors: np.ndarray, pos: int) -> np.ndarray:
    """Keep the bit-at-pos = 1 component of each vector along the last
    axis and drop that qubit."""
    dim = vectors.shape[-1]
    m = dim.bit_length() - 1
    t = vectors.reshape(vectors.shape[:-1] + (1 << pos, 2, 1 << (m - pos - 1)))
    return t[..., 1, :].reshape(vectors.shape[:-1] + (dim // 2,))


def _decompose(p: Protocol, xs: Sequence[int],
               ys: Sequence[int]) -> TranscriptDecomposition:
    """Transcript branches of every input in ``xs`` (Alice) and ``ys``
    (Bob), from one walk: a_vectors[i] holds x_i's branches and
    b_vectors[j] y_j's, since a party's branches depend only on its own
    input."""
    ell = p.declared_cost
    if ell > MAX_TRANSCRIPT_BITS:
        raise CapacityError(f"2^{ell} transcripts exceed the decomposition budget")
    lay = p.layout
    sides = {ALICE: list(lay.alice_register), BOB: list(lay.bob_register)}
    # per input, one row per transcript so far, first sent bit most
    # significant
    branches = {}
    for party, inputs in ((ALICE, xs), (BOB, ys)):
        branches[party] = np.zeros((len(inputs), 1, 1 << len(sides[party])),
                                   dtype=complex)
        branches[party][:, 0, 0] = 1.0
    for turn in _compile(p, xs, ys):
        sender, receiver = turn.party, other_party(turn.party)
        side = sides[sender]
        mine, theirs = branches[sender], branches[receiver]
        batch, count = mine.shape[:2]
        claimed = [g for g in turn.window if g not in side]
        if claimed:
            # each vector gains the claimed qubits last, in |0>: np.kron
            # with |0..0>, written into the first of every 2^claimed entries
            grown = np.zeros(mine.shape + (1 << len(claimed),), dtype=complex)
            grown[..., 0] = mine
            mine = grown.reshape(batch, count, -1)
            side = side + claimed
        mine = _apply_turn(mine, turn.groups, side)
        k = len(turn.window)
        if k:
            # branch c splits into c * 2^k + bits: the sender keeps the
            # row of its vector where the window reads bits, the
            # receiver's vector gains the window in state |bits>
            m = len(side)
            kpos = [2 + side.index(g) for g in turn.window]
            perm = [0, 1] + kpos + [a for a in range(2, m + 2) if a not in kpos]
            t = mine.reshape((batch, count) + (2,) * m).transpose(perm)
            mine = t.reshape(batch, count << k, 1 << (m - k))
            theirs = (theirs[:, :, None, :, None] * np.eye(1 << k)[:, None]
                      ).reshape(len(theirs), count << k, -1)
            side = [q for q in side if q not in turn.window]
            sides[receiver] = sides[receiver] + list(turn.window)
        sides[sender] = side
        branches[sender], branches[receiver] = mine, theirs
    sent = {q for step in p.steps for q in step.window}
    pool = tuple(lay.channel_qubit(k)
                 for k in range(lay.channel_qubits) if k not in sent)
    return TranscriptDecomposition(
        layout=lay,
        ell=ell,
        alice_side=tuple(sides[ALICE]),
        bob_side=tuple(sides[BOB]),
        pool_qubits=pool,
        a_vectors=branches[ALICE],
        b_vectors=branches[BOB],
    )


def yao_kremer_decompose(p: Protocol, x, y) -> TranscriptDecomposition:
    """The decomposition of one pair's final state: the walk over [x], [y]."""
    n = p.input_bits
    d = _decompose(p, [as_input(x, n)], [as_input(y, n)])
    # built directly: dataclasses.replace costs twice as much
    return TranscriptDecomposition(d.layout, d.ell, d.alice_side, d.bob_side,
                                   d.pool_qubits, d.a_vectors[0],
                                   d.b_vectors[0])


def output_families(p: Protocol) -> tuple:
    """Output-bit-1 transcript components of every input, from one walk:
    A_i(x) and B_i(y) as [transcripts, 2^n, dim] arrays."""
    _require_tabulable(p, "output_families")
    inputs = range(1 << p.input_bits)
    a1, b1, _ = _decompose(p, inputs, inputs).output_components()
    return (np.ascontiguousarray(a1.swapaxes(0, 1)),
            np.ascontiguousarray(b1.swapaxes(0, 1)))


class RankBoundReport(NamedTuple):
    rank: int
    bound: int
    ok: bool


def rank_bound_audit(p: Protocol) -> RankBoundReport:
    """Check numeric_rank(P) <= 2^(2*cost - 2) on the acceptance matrix."""
    mat = acceptance_matrix(p)
    rank = linalg.numeric_rank(mat.values)
    bound = 1 << max(0, 2 * p.declared_cost - 2)
    return RankBoundReport(rank=rank, bound=bound, ok=rank <= bound)
