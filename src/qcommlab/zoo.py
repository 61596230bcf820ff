"""Concrete protocols, whose step builds index their tables with the
sender's input index, and search routines.

* _flip_rows: the one builder of "flip the target where a 0/1 table of
  the controls reads 1", as a row order.  Bob's reply in both protocols
  below is one base gate, made and checked once per protocol on his first
  reply, with its rows taken in this order (Gate.with_rows): the identity
  in the trivial protocol, u (x) I2 in the SVD protocol.
* trivial_exact_protocol: send x, compute f reversibly, cost n+1.
  Alice's message is one gate too, the identity on the message qubits
  with its rows XORed with x, so every x is rows of one base and her
  turn stacks as one base and its rows.
* ndet_svd_protocol: one-round protocol from the SVD of the witness
  matrix transpose; cost ceil(log2 rank) + 1 and acceptance probability
  c_x^2 |m_xy|^2.
* solution_angle / amplification_factors: the one amplitude-amplification
  kernel.  Iterating "flip the solutions, reflect about the start" keeps
  the state in span(good part, bad part) of the start, so j iterations
  scale the good part by sin((2j+1)θ)/sin θ and the bad part by
  cos((2j+1)θ)/cos θ, where sin²θ is the start's weight on the
  solutions.  The weight on the solutions is then sin²((2j+1)θ)
  (_good_share), and within them the start's own weights.  Per block it
  is also the in-block stage of the blocked recursion.
* _search: the one search loop.  Round k succeeds with its closed-form
  probability, one uniform draw each, and only the first round that
  succeeds draws an outcome, from the weights on the solutions, on the
  stream that Generator.choice(p=probs) uses.  A search draws its
  schedule, then one uniform per round and one index; it builds one CDF
  if it finds a solution and none otherwise.
* grover_state / qsearch: amplitude amplification of a start vector, and
  search with BBHT's growing random-cutoff schedule for an unknown number
  of solutions, drawn at once (_bbht_schedule), until exactly
  ceil(9 sqrt(dim)) oracle applications are spent.  The cutoffs depend
  only on dim (_bbht_rounds) and are built once per dim (_bbht_cutoffs),
  as is BCW's uniform start (_uniform).
* bcw_intersection / recursive_intersection: find a common 1-index of
  two bit strings with one-sided error, with instrumented communication
  cost.  The recursion runs qsearch's schedule over its blocks, whose
  2^lbits indices, lbits = floor(log2 ceil(log2 n)²), split the
  ceil(log2 n) index bits, so no query sends a padding offset.  Each
  search is described once, by _widths and _run_cost, and the cost
  models are _run_cost's exact maximum over the coins (_max_cost).
* _flat_law / _blocked_law: what a search's input fixes, its law, built
  once per input and memoized on the input's bytes for the last few
  inputs, as callers run many seeds on one input.  Each seed draws only
  its schedule, its j_leaf, one uniform per round and one index.  An
  exception is not cached, so bad input raises on every call.
* fit_cost_envelope: the default model's ratios cost_model(n)/sqrt(n) at
  given probes, their log* n, and whether the ratios grow.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import engine, linalg
from .engine import ALICE, BOB, Gate, Protocol, ProtocolStep, RegisterLayout
from .ranklab import CommMatrix, build_comm_matrix, canonical_witness

_TINY = np.finfo(float).tiny
# BBHT's lambda = 6/5 (Boyer-Brassard-Hoyer-Tapp, quant-ph/9605034): the
# search's cutoff grows by this factor after each miss.  Their analysis
# needs 1 < lambda < 4/3.
SCHEDULE_GROWTH = 1.2


def _flip_rows(table) -> np.ndarray:
    """Row order of the controlled flip on (controls..., target), which
    flips the target iff table[c] is 1, where c is the controls' value:
    taking the rows of M in this order applies the flip after M."""
    flip = engine.bit_array(table)
    return np.arange(2 * flip.size) ^ flip.repeat(2)


def trivial_exact_protocol(f: CommMatrix) -> Protocol:
    """Alice sends x verbatim; Bob computes f(x,y) into the output bit.

    Alice's message is one gate: the identity on the message qubits with
    its rows XORed with x, which maps |0> to |x>.  Both parties' gates are
    rows of a base made on first use, once per protocol, so a caller that
    only reads the cost makes no gate."""
    n = f.n
    lay = RegisterLayout(alice_qubits=0, channel_qubits=n + 1, bob_qubits=0)
    msg = tuple(range(1, n + 1))
    table = f.values

    @functools.cache
    def alice_base():
        return Gate(np.eye(1 << n), tuple(lay.channel_qubit(k) for k in msg))

    @functools.cache
    def bob_base():
        targets = tuple(lay.channel_qubit(k) for k in msg + (0,))
        return Gate(np.eye(2 << n), targets)

    def alice(x):
        rows = np.arange(1 << n) ^ x
        return [alice_base().with_rows(rows)]

    def bob(y):
        rows = _flip_rows(table[:, y])
        return [bob_base().with_rows(rows)]

    return Protocol(lay, (ProtocolStep(ALICE, msg, alice),
                          ProtocolStep(BOB, (0,), bob)), input_bits=n)


@dataclass(frozen=True)
class NdetProtocolBundle:
    protocol: Protocol
    source_matrix: np.ndarray
    r: int
    per_row_norm: np.ndarray


def ndet_svd_protocol(m) -> NdetProtocolBundle:
    """One-round protocol accepting with probability c_x^2 |m_xy|^2.

    Factor m^T = u diag(s) v; Alice sends the first 2^q amplitudes of
    c_x * diag(s) v |x> on q = ceil(log2 r) qubits.  Bob's register is
    his own n - q qubits, in |0>, followed by the q message qubits, so it
    holds c_x * diag(s) v |x> on n qubits; he rotates it by u and flips
    the output bit at |y>, in one gate: u (x) I2, placed on the even and
    on the odd rows and columns (no kron), with rows 2y and 2y+1 swapped
    (no product with a permutation matrix).  u (x) I2 is made and checked
    once, on Bob's first reply, and each reply is its Gate.with_rows, so a
    caller that only reads the cost makes no gate.  Rows of m that are all
    zero have no unit state: Alice sends the all-zeros string instead and
    cleans the output bit with a zero-length follow-up turn, so those rows
    reject with certainty at unchanged cost.
    """
    m = np.asarray(m, dtype=complex)
    dim = m.shape[0] if m.ndim == 2 else 0
    if m.shape != (dim, dim) or dim & (dim - 1):
        raise ValueError("matrix must be square with power-of-two size")
    n = dim.bit_length() - 1
    res = linalg.svd(m.T)
    s = res.sigma.copy()
    r = res.rank()  # m^T has the singular values of m
    if r == 0:
        lay = RegisterLayout(alice_qubits=0, channel_qubits=1, bob_qubits=0)
        return NdetProtocolBundle(Protocol(lay, (), input_bits=n), m, 0,
                                  np.zeros(dim))
    s[r:] = 0.0
    phi_raw = (s[:, None] * res.v)  # column x = diag(s) v |x>
    row_norms = np.linalg.norm(phi_raw, axis=0)
    dead = ~linalg.support(row_norms)
    c = np.zeros(dim)
    c[~dead] = 1.0 / row_norms[~dead]
    q = max(int(math.ceil(math.log2(r))), 0)
    lay = RegisterLayout(alice_qubits=1 if dead.any() else 0,
                         channel_qubits=1 + q, bob_qubits=n - q)
    msg = tuple(range(1, q + 1))
    msg_glob = tuple(lay.channel_qubit(k) for k in msg)
    bob_targets = lay.bob_register + msg_glob + (lay.channel_qubit(0),)

    def alice_send(x):
        if dead[x] or q == 0:
            return []
        phi = (c[x] * phi_raw[:1 << q, x]).astype(complex)
        return [Gate(linalg.unitary_with_first_column(phi), msg_glob)]

    @functools.cache
    def bob_base():
        rot = np.zeros((2 * dim, 2 * dim), dtype=complex)  # u (x) I2
        rot[0::2, 0::2] = res.u
        rot[1::2, 1::2] = res.u
        return Gate(rot, bob_targets)

    def bob_reply(y):
        rows = _flip_rows(np.arange(dim) == y)
        return [bob_base().with_rows(rows)]

    steps = [ProtocolStep(ALICE, msg, alice_send),
             ProtocolStep(BOB, (0,), bob_reply)]
    if dead.any():
        swap = np.eye(4)[[0, 2, 1, 3]]

        def alice_clean(x):
            # move the (possibly 1) output bit into the fresh ancilla
            if not dead[x]:
                return []
            return [Gate(swap, (0, lay.channel_qubit(0)))]

        steps.append(ProtocolStep(ALICE, (), alice_clean))
    return NdetProtocolBundle(Protocol(lay, tuple(steps), input_bits=n),
                              m, r, c)


@dataclass(frozen=True)
class QSearchConfig:
    """Seed of a search: any seed that np.random.default_rng accepts, such
    as an int or a (seed, trial) tuple; equal seeds give equal results."""

    rng_seed: int | Sequence[int] | np.random.SeedSequence


def _indices(solutions, dim: int) -> np.ndarray:
    """The solutions as a 1-D integer array, not checked against dim; an
    empty one as intp, so every empty input keys one law."""
    idx = solutions if isinstance(solutions, np.ndarray) \
        else np.array(list(solutions))
    if idx.ndim != 1 or idx.size and idx.dtype.kind not in "iu":
        raise ValueError(f"solutions must be integer indices in [0, {dim})")
    return idx if idx.size else idx.astype(np.intp)


def _solution_mask(solutions, dim: int) -> np.ndarray:
    """Mask of the solutions, given as indices."""
    idx = _indices(solutions, dim)
    if idx.size and (idx.min() < 0 or idx.max() >= dim):
        raise ValueError(f"solutions must be integer indices in [0, {dim})")
    mask = np.zeros(dim, dtype=bool)
    mask[idx.astype(np.intp)] = True
    return mask


def _numeric_vector(start) -> np.ndarray:
    psi = np.asarray(start)
    if psi.ndim != 1 or not psi.size or psi.dtype.kind not in "iufc":
        raise ValueError("start must be a nonempty numeric vector")
    return psi


def _start_vector(start) -> np.ndarray:
    psi = _numeric_vector(start)
    if not np.all(np.isfinite(psi)):
        raise ValueError("start has non-finite amplitudes")
    if abs(np.linalg.norm(psi) - 1.0) > linalg.DEFAULT_TOL:
        raise ValueError("start must be a unit vector")
    return psi


def solution_angle(weight: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """θ of each row of weights |amplitude|², with sin²θ the row's share of
    weight on the solutions."""
    good = np.sum(weight, axis=-1, where=mask)
    bad = np.sum(weight, axis=-1, where=~mask)
    return np.arctan2(np.sqrt(good), np.sqrt(bad))


def amplification_factors(mask: np.ndarray, theta,
                          iterations: int) -> np.ndarray:
    """Factor on each amplitude after the given number of iterations of
    "flip the sign of the solutions, then reflect about the start", each
    row of mask on its own; theta is the rows' solution_angle.

    The state stays in span(good part, bad part) of the start, so the
    solutions' amplitudes are scaled by sin((2j+1)θ)/sin θ and the others
    by cos((2j+1)θ)/cos θ.
    """
    turn = (2 * iterations + 1) * theta
    # θ = 0 leaves no good part to scale
    good = np.sin(turn) / np.maximum(np.sin(theta), _TINY)
    bad = np.cos(turn) / np.cos(theta)
    return np.where(mask, good[..., None], bad[..., None])


def grover_state(start, solutions, iterations: int) -> np.ndarray:
    """State after the given number of amplification iterations on a unit
    start vector."""
    psi0 = _start_vector(start)
    linalg._require_int(iterations, "iterations")
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    mask = _solution_mask(solutions, psi0.shape[0])
    theta = solution_angle(np.abs(psi0) ** 2, mask)
    return psi0 * amplification_factors(mask, theta, iterations)


def _good_share(theta, iterations):
    """Weight on the solutions after the given number of iterations from a
    start with weight sin²θ on them: sin²((2j+1)θ)."""
    return np.sin((2 * iterations + 1) * theta) ** 2


def _angle(share):
    """θ with sin²θ = share, for a share in [0, 1] up to rounding."""
    return np.arcsin(np.sqrt(np.minimum(share, 1.0)))


def _cdf(weights: np.ndarray) -> np.ndarray:
    """CDF of the outcome law proportional to the weights, built exactly
    as Generator.choice builds it from the normalised probabilities."""
    probs = weights / weights.sum()
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf


def _search(rng, success: np.ndarray, draw) -> tuple:
    """Measure the rounds of a search, round k a success with probability
    success[k], one uniform each, until one succeeds; that round alone
    draws its outcome, a position among the solutions, from draw(k), their
    unnormalised weights, on the stream of Generator.choice.  Return the
    outcome (or None) and the number of rounds measured."""
    hits = np.flatnonzero(rng.random(success.size) < success)
    if not hits.size:
        return None, success.size
    k = int(hits[0])
    return int(_cdf(draw(k)).searchsorted(rng.random(), side="right")), k + 1


def _root(bits: int) -> float:
    """sqrt(2^bits), also where 2^bits is beyond the float range."""
    return math.ldexp(math.sqrt(2.0) if bits & 1 else 1.0, bits >> 1)


def _bbht_rounds(root: float) -> tuple[int, np.ndarray, int, int]:
    """BBHT's schedule over root² indices: the budget ceil(9 root) of
    oracle applications, the cutoffs ceil(1.2^k) of the rounds k with
    1.2^k < root, about log_1.2(root) of them, the cutoff ceil(root) of
    every later round, and the fewest rounds that spend the budget.  The
    growing rounds spend at most 6 root plus their count, less than the
    budget, so the rest is spent at the cap."""
    powers = SCHEDULE_GROWTH ** np.arange(
        int(math.log(root, SCHEDULE_GROWTH)) + 2)
    grow = np.ceil(powers[powers < root])
    budget, cap = math.ceil(9.0 * root), math.ceil(root)
    spent = sum(map(int, grow.tolist()))
    return budget, grow, cap, grow.size - (spent - budget) // cap


@functools.lru_cache(maxsize=64)
def _bbht_cutoffs(dim: int) -> tuple[int, np.ndarray]:
    """The budget of _bbht_rounds and the cutoff of each round below it,
    ceil(min(1.2^k, sqrt(dim))), built once per dim and read-only."""
    budget, grow, cap, _ = _bbht_rounds(math.sqrt(dim))
    cutoffs = np.full(budget, cap, dtype=np.int64)
    cutoffs[:grow.size] = grow
    cutoffs.flags.writeable = False
    return budget, cutoffs


def _bbht_schedule(rng: np.random.Generator, dim: int) -> np.ndarray:
    """BBHT's rounds over dim indices, every j drawn at once, uniform
    below its round's cutoff (_bbht_cutoffs), until the budget of oracle
    applications (j per round, plus its measurement) is spent, the last j
    clamped so that it is spent exactly."""
    budget, cutoffs = _bbht_cutoffs(dim)
    js = rng.integers(0, cutoffs)
    # every round spends at least 1, so budget rounds reach the budget
    spent = np.cumsum(js + 1)
    last = int(spent.searchsorted(budget))
    js = js[:last + 1]
    js[last] -= spent[last] - budget
    return js


@dataclass(frozen=True)
class QSearchResult:
    outcome: Optional[int]
    iterations: int
    measurements: int


@functools.lru_cache(maxsize=4)
def _flat_law(start_dtype: str, start: bytes, solutions_dtype: str,
              solutions: bytes) -> tuple[np.floating, np.ndarray, np.ndarray]:
    """θ and the start's weights on the solutions and their indices,
    read-only, from the dtypes and bytes of the start and solutions."""
    psi = _start_vector(np.frombuffer(start, start_dtype))
    mask = _solution_mask(np.frombuffer(solutions, solutions_dtype), psi.size)
    weight = np.abs(psi) ** 2
    weights, where = weight[mask], np.flatnonzero(mask)
    weights.flags.writeable = where.flags.writeable = False
    return solution_angle(weight, mask), weights, where


def qsearch(start, solutions, cfg: QSearchConfig) -> QSearchResult:
    """Search with the growing random-cutoff schedule, seeded.

    Amplifies the unit start vector.  Returns one of the solution indices
    (never a non-solution) or none once ceil(9 sqrt(dim)) oracle
    applications are spent; with at least one solution the overall
    success probability is >= 1/2, as that budget covers the
    O(sqrt(dim/solutions)) schedule.
    """
    # the shape and dtype checks come first, so only numbers key the law
    psi = _numeric_vector(start)
    idx = _indices(solutions, psi.size)
    theta, weights, where = _flat_law(psi.dtype.str, psi.tobytes(),
                                      idx.dtype.str, idx.tobytes())
    rng = np.random.default_rng(cfg.rng_seed)
    js = _bbht_schedule(rng, psi.size)
    # a success measures the start's own weights on the solutions, whatever
    # j was; with no solutions θ = 0 and no round succeeds
    z, measured = _search(rng, _good_share(theta, js), lambda k: weights)
    return QSearchResult(None if z is None else int(where[z]),
                         int(js[:measured].sum()), measured)


@dataclass(frozen=True)
class IntersectionResult:
    index: Optional[int]
    cost: int
    iterations: int
    measurements: int

    @property
    def found(self) -> bool:
        return self.index is not None


def _input_pair(x, y):
    x, y = engine.bit_array(x), engine.bit_array(y)
    if len(x) != len(y) or not len(x):
        raise ValueError("inputs must be equal nonzero length")
    return x, y


def bcw_intersection(x, y, cfg: QSearchConfig) -> IntersectionResult:
    """Search for an index with x_i = y_i = 1 via distributed queries.

    Inputs are padded with zeros to a power of two.  Each measured
    candidate is verified classically, so the answer is never a false
    positive; _run_cost gives the qubits sent.
    """
    return _bcw(*_input_pair(x, y), cfg)


def _widths(n, threshold=math.inf) -> tuple[int, int, int]:
    """Outer index bits, in-block bits and verification bits of the search
    over n bits.  The vbits = ceil(log2 n) index bits split into
    lbits = floor(log2 vbits²) offset bits and jbits = vbits - lbits block
    bits, so a block holds 2^lbits = Θ(log² n) indices and no offset is
    padding.  Inputs of at most threshold bits, or that one block covers,
    are searched flat, with no in-block bits."""
    vbits = math.ceil(math.log2(n))
    lbits = (vbits * vbits).bit_length() - 1
    if n <= threshold or lbits >= vbits:
        return vbits, 0, vbits
    return vbits - lbits, lbits, vbits


def _run_cost(widths, rounds: int, outer: int, leaf: int = 0) -> int:
    """Qubits a search of these widths sends in its measured rounds, given
    their count, outer iterations and in-block ones, sum of j_leaf
    (1 + 2 j_outer) as each outer iteration replays the in-block stage
    twice.  Both parties hold the block index, so an in-block query sends
    2(lbits + 1) qubits, an outer one 2(jbits + lbits + 1), and each
    round's candidate is verified classically for 2 vbits + 2."""
    jbits, lbits, vbits = widths
    return (leaf * 2 * (lbits + 1) + outer * 2 * (jbits + lbits + 1)
            + rounds * (2 * vbits + 2))


@functools.lru_cache(maxsize=64)
def _uniform(dim: int) -> np.ndarray:
    """The uniform start over dim indices, read-only."""
    start = np.full(dim, 1.0 / math.sqrt(dim))
    start.flags.writeable = False
    return start


def _bcw(x: np.ndarray, y: np.ndarray,
         cfg: QSearchConfig) -> IntersectionResult:
    """bcw_intersection on inputs that _input_pair has checked."""
    widths = _widths(len(x))
    if not widths[0]:
        # single candidate: verify it classically and answer
        return IntersectionResult(0 if x[0] & y[0] else None,
                                  _run_cost(widths, 1, 0), 0, 1)
    res = qsearch(_uniform(1 << widths[0]), np.flatnonzero(x & y), cfg)
    return IntersectionResult(
        res.outcome, _run_cost(widths, res.measurements, res.iterations),
        res.iterations, res.measurements)


@dataclass(frozen=True)
class RecursionConfig:
    """Inputs of at most base_threshold bits are searched flat, larger
    ones in blocks of 2^floor(log2 ceil(log2 n)²) bits (_widths)."""

    base_threshold: int = 64

    def __post_init__(self):
        linalg._require_int(self.base_threshold, "base_threshold")
        if self.base_threshold < 2:
            raise ValueError("base_threshold must be >= 2")


@functools.lru_cache(maxsize=4)
def _blocked_law(both: bytes, jbits: int,
                 lbits: int) -> tuple[np.ndarray, ...]:
    """From the bytes of x & y, read-only: the common indices, their
    blocks and the blocks' counts, each block's good share after each
    in-block count j_leaf (a row per j_leaf), and the outer θ after it."""
    # the padding (positions >= n) holds no solution: the common indices
    # and their blocks' counts set every law
    common = np.flatnonzero(np.frombuffer(both, np.uint8))
    block = common >> lbits
    counts = np.bincount(block)
    # the in-block stage amplifies every block about its uniform state;
    # the blocks share the start evenly, and the outer stage amplifies
    # the sum of their good shares
    table = _good_share(_angle(counts / (1 << lbits)),
                        np.arange(math.ceil(_root(lbits)))[:, None])
    outer = _angle(table.sum(axis=1) / (1 << jbits))
    law = common, block, counts, table, outer
    for a in law:
        a.flags.writeable = False
    return law


def recursive_intersection(x, y, rcfg: RecursionConfig,
                           cfg: QSearchConfig) -> IntersectionResult:
    """Blocked intersection search with end-to-end amplification.

    The outer stage runs qsearch's BBHT schedule (_bbht_schedule) over
    2^jbits blocks of 2^lbits offsets, each round with an in-block count
    j_leaf below ceil(sqrt(2^lbits)); _run_cost gives the qubits sent.
    Candidates are verified classically; inputs of at most base_threshold
    bits, or that one block covers, go to the flat search.
    """
    x, y = _input_pair(x, y)
    widths = _widths(len(x), rcfg.base_threshold)
    jbits, lbits, _ = widths
    if not lbits:
        return _bcw(x, y, cfg)
    common, block, counts, table, outer = _blocked_law(
        (x & y).tobytes(), jbits, lbits)
    rng = np.random.default_rng(cfg.rng_seed)
    j_outer = _bbht_schedule(rng, 1 << jbits)
    j_leaf = rng.integers(0, len(table), j_outer.size)
    z, measured = _search(rng, _good_share(outer[j_leaf], j_outer),
                          lambda k: table[j_leaf[k], block] / counts[block])
    j_leaf, j_outer = j_leaf[:measured], j_outer[:measured]
    cost = _run_cost(widths, measured, int(j_outer.sum()),
                     int(np.sum(j_leaf * (1 + 2 * j_outer))))
    return IntersectionResult(None if z is None else int(common[z]), cost,
                              int(j_leaf.sum() + j_outer.sum()), measured)


def _require_finite(n) -> None:
    """ValueError unless n is not a bool and converts to a finite float
    (an int above the float range does not)."""
    if isinstance(n, (bool, np.bool_)):
        raise ValueError("n must be a number, not a bool")
    try:
        finite = math.isfinite(n)
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError("n must be finite")


def _max_cost(n, threshold) -> float:
    """The most qubits the search over n bits sends, over all coins; n
    must be a finite whole number >= 1, as it counts bits.  A disjoint
    input runs every round until the budget, the sum of (j + 1), is spent,
    so it costs the most.  A verification costs as much as an outer query,
    as ceil(log2 n) = jbits + lbits, so the costliest coins put every
    j_leaf at its top and spend the budget in the fewest rounds."""
    _require_finite(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    if n % 1:
        raise ValueError("n must be a whole number of bits")
    widths = _widths(n, threshold)
    jbits, lbits, _ = widths
    if not jbits:  # n = 1: a single candidate, verified once
        return float(_run_cost(widths, 1, 0))
    budget, _, _, fewest = _bbht_rounds(_root(jbits))
    top = math.ceil(_root(lbits)) - 1
    return float(_run_cost(widths, fewest, budget - fewest,
                           top * (fewest + 2 * (budget - fewest))))


def bcw_cost_model(n) -> float:
    """_max_cost of bcw_intersection, ceil(9 sqrt(2^b)) (2b + 2) with
    b = ceil(log2 n), as a query and a verification cost the same; 2 at
    n = 1."""
    return _max_cost(n, math.inf)


def cost_model(n, rcfg: Optional[RecursionConfig] = None) -> float:
    """_max_cost of recursive_intersection under rcfg."""
    return _max_cost(n, (rcfg or RecursionConfig()).base_threshold)


def log_star(n: float) -> int:
    """Iterated log2 count until the value drops to 1 or below."""
    _require_finite(n)
    if n <= 0:
        raise ValueError("n must be positive")
    count = 0
    v = float(n)
    while v > 1.0:
        v = math.log2(v)
        count += 1
    return count


@dataclass(frozen=True)
class CostEnvelopeFit:
    ratios: tuple
    log_stars: tuple
    monotone: bool


def fit_cost_envelope(ns: Sequence[int]) -> CostEnvelopeFit:
    """The probes' ratios cost_model(n)/sqrt(n) under the default
    recursion, their log* n, and whether the ratios grow with n."""
    ratios = tuple(cost_model(n) / math.sqrt(n) for n in ns)
    stars = tuple(log_star(n) for n in ns)
    monotone = all(a <= b + 1e-12 for a, b in zip(ratios, ratios[1:]))
    return CostEnvelopeFit(ratios=ratios, log_stars=stars, monotone=monotone)


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    protocol: Protocol
    target: CommMatrix
    exact_rational: bool


def protocol_corpus(n: int) -> list:
    """Named protocols used by the cross-cutting audits."""
    entries = []
    for fn in ("EQ", "DISJ", "INT"):
        target = build_comm_matrix(fn, n)
        entries.append(CorpusEntry(f"trivial-{fn}", trivial_exact_protocol(target),
                                   target, exact_rational=True))
    for fn in ("EQ", "NEQ", "INT"):
        target = build_comm_matrix(fn, n)
        bundle = ndet_svd_protocol(canonical_witness(fn, n))
        entries.append(CorpusEntry(f"svd-{fn}", bundle.protocol, target,
                                   exact_rational=False))
    return entries
