"""The closed-form amplification kernel against the dense loop it replaced,
the samplers against dense oracles on their own RNG stream and, in
distribution, against the per-round Generator.choice loops they replaced,
the search entry points' input checks, the cached schedule against the
uncached one, a seeded regression grid, and the searches with their
per-input memos against fresh calls."""

import itertools
import math

import numpy as np
import pytest

from helpers import amplification_factors, grover_state
from qcommlab import zoo


def dense_grover(start, mask, iterations):
    """Reference oracle: flip the solutions, reflect about the unit start,
    one iteration at a time."""
    state = start.copy()
    for _ in range(iterations):
        state = state.copy()
        state[mask] *= -1.0
        state = 2.0 * np.vdot(start, state) * start - state
    return state


def dense_blocks(start, mask, iterations):
    """Reference oracle for the recursion's in-block stage: flip the
    solutions, reflect each row about its uniform state."""
    state = start.copy()
    for _ in range(iterations):
        state = state.copy()
        state[mask] *= -1.0
        state = 2.0 * state.mean(axis=1, keepdims=True) - state
    return state


def bbht_rounds(rng, dim):
    """The js of qsearch's schedule, drawn in one call: cutoffs growing by
    1.2 up to sqrt(dim), cut where ceil(9 sqrt(dim)) oracle applications
    (j per round, plus its measurement) are spent, the last j clamped."""
    budget = int(math.ceil(9.0 * math.sqrt(dim)))
    cutoffs, m = [], 1.0
    for _ in range(budget):
        cutoffs.append(max(int(math.ceil(m)), 1))
        m = min(m * 1.2, math.sqrt(dim))
    rounds, used = [], 0
    for j in rng.integers(0, cutoffs):
        if used >= budget:
            break
        rounds.append(min(int(j), budget - used - 1))
        used += rounds[-1] + 1
    return rounds


def measure_rounds(rng, rounds, state_of, mask):
    """Replay the search's draws: one uniform per round against the weight
    that the dense state of the round has on the solutions, then
    Generator.choice over the solutions, weighted by that state, in the
    first round that succeeds.  Returns (position of the outcome or None,
    rounds measured)."""
    uniforms = rng.random(len(rounds))
    for k, js in enumerate(rounds):
        weight = np.abs(state_of(js)[mask]) ** 2
        if uniforms[k] < weight.sum():
            return int(rng.choice(weight.size, p=weight / weight.sum())), k + 1
    return None, len(rounds)


def exact_qsearch(start, mask, cfg):
    """Reference oracle on qsearch's RNG stream: the schedule, one uniform
    per round, one index, with every success probability and outcome law
    taken from the dense loop.  Returns (outcome, iterations,
    measurements)."""
    rng = np.random.default_rng(cfg.rng_seed)
    rounds = bbht_rounds(rng, start.shape[0])
    z, ms = measure_rounds(rng, rounds, lambda j: dense_grover(start, mask, j),
                           mask)
    outcome = None if z is None else int(np.flatnonzero(mask)[z])
    return outcome, sum(rounds[:ms]), ms


def index_bits(n):
    """(index bits ceil(log2 n), offset bits floor(log2 of its square)) of
    the blocked recursion over n > 1 bits: a block holds 2^lbits indices,
    and one block covers the input when lbits >= vbits."""
    vbits = int(math.ceil(math.log2(n)))
    return vbits, int(math.floor(math.log2(vbits ** 2)))


def blocked_layout(n, both):
    """The blocked recursion's index register: (mask of the common indices
    over dim = 2^(jbits + lbits) = 2^ceil(log2 n) entries, which blocks of
    2^lbits consecutive positions take as rows, jbits, lbits)."""
    vbits, lbits = index_bits(n)
    mask = np.zeros(1 << vbits, dtype=bool)
    mask[:n] = both == 1
    return mask, vbits - lbits, lbits


def flat_or_blocked(x, y, rcfg, cfg, qsearch_oracle, blocked_oracle):
    """The recursion's delegation rule and the flat search's cost."""
    n = len(x)
    both = np.array(x) & np.array(y)
    vbits, lbits = index_bits(n) if n > rcfg.base_threshold else (0, 0)
    if lbits >= vbits:
        k = max(int(math.ceil(math.log2(n))), 0)
        if k == 0:
            return (0 if both[0] else None), 2, 0, 1
        dim = 1 << k
        mask = np.zeros(dim, dtype=bool)
        mask[:n] = both == 1
        z, it, ms = qsearch_oracle(uniform(dim), mask, cfg)
        return z, it * 2 * (k + 1) + ms * (2 * k + 2), it, ms
    return blocked_oracle(n, both, cfg)


def blocked_cost(n, jbits, lbits, rounds):
    """Cost of the measured (j_leaf, j_outer) rounds: each outer iteration
    replays the in-block stage twice.  An in-block query sends the offset,
    an outer one the full index."""
    leaf_cost = 2 * (lbits + 1)
    outer_cost = 2 * (jbits + lbits + 1)
    verify_cost = 2 * int(math.ceil(math.log2(n))) + 2
    return sum(j_leaf * leaf_cost * (1 + 2 * j_outer)
               + j_outer * outer_cost + verify_cost
               for j_leaf, j_outer in rounds)


def exact_blocked(n, both, cfg):
    mask, jbits, lbits = blocked_layout(n, both)
    blocks = mask.reshape(1 << jbits, -1)
    start = np.full(blocks.shape, 1.0 / math.sqrt(mask.size))
    rng = np.random.default_rng(cfg.rng_seed)
    # qsearch's schedule over the blocks, then every round's j_leaf at once
    j_outer = bbht_rounds(rng, 1 << jbits)
    j_leaf = rng.integers(0, int(math.ceil(math.sqrt(blocks.shape[1]))),
                          len(j_outer))
    rounds = list(zip(map(int, j_leaf), j_outer))

    def state_of(js):
        leaf = dense_blocks(start, blocks, js[0]).reshape(mask.size)
        return dense_grover(leaf, mask, js[1])

    z, ms = measure_rounds(rng, rounds, state_of, mask)
    index = None if z is None else int(np.flatnonzero(mask)[z])
    return (index, blocked_cost(n, jbits, lbits, rounds[:ms]),
            sum(map(sum, rounds[:ms])), ms)


def exact_recursive(x, y, rcfg, cfg):
    """Reference oracle on recursive_intersection's RNG stream: the j_outer
    schedule, the j_leaf of every round, one uniform per round, one index,
    with every success probability and outcome law taken from the dense
    in-block and outer loops.  Returns (index, cost, iterations,
    measurements)."""
    return flat_or_blocked(x, y, rcfg, cfg, exact_qsearch, exact_blocked)


def per_round_qsearch(start, mask, cfg):
    """Distribution oracle: the random-cutoff schedule drawn round by round
    with every measurement drawn from the round's whole law by
    Generator.choice, clamped to the budget as qsearch is.  Returns
    (outcome, iterations, measurements)."""
    dim = start.shape[0]
    weight = np.abs(start) ** 2
    theta = zoo.solution_angle(weight, mask)
    budget = int(math.ceil(9.0 * math.sqrt(dim)))
    rng = np.random.default_rng(cfg.rng_seed)
    m, used, iterations, measurements = 1.0, 0, 0, 0
    while used < budget:
        j = min(int(rng.integers(0, max(int(math.ceil(m)), 1))),
                budget - used - 1)
        probs = weight * amplification_factors(mask, theta, j) ** 2
        probs /= probs.sum()
        z = int(rng.choice(dim, p=probs))
        iterations += j
        measurements += 1
        used += j + 1
        if mask[z]:
            return z, iterations, measurements
        m = min(m * 1.2, math.sqrt(dim))
    return None, iterations, measurements


def per_round_blocked(n, both, cfg):
    mask, jbits, lbits = blocked_layout(n, both)
    blocks = mask.reshape(1 << jbits, -1)
    ldim = blocks.shape[1]
    start = np.full(blocks.shape, 1.0 / mask.size)
    leaf_theta = zoo.solution_angle(start, blocks)
    rng = np.random.default_rng(cfg.rng_seed)
    rounds = []
    for j_outer in bbht_rounds(rng, 1 << jbits):
        j_leaf = int(rng.integers(0, int(math.ceil(math.sqrt(ldim)))))
        leaf = amplification_factors(blocks, leaf_theta, j_leaf)
        weight = (start * leaf ** 2).reshape(mask.size)
        outer = amplification_factors(
            mask, zoo.solution_angle(weight, mask), j_outer)
        probs = weight * outer ** 2
        probs /= probs.sum()
        z = int(rng.choice(mask.size, p=probs))
        rounds.append((j_leaf, j_outer))
        if mask[z]:
            return (z, blocked_cost(n, jbits, lbits, rounds),
                    sum(map(sum, rounds)), len(rounds))
    return (None, blocked_cost(n, jbits, lbits, rounds),
            sum(map(sum, rounds)), len(rounds))


def per_round_recursive(x, y, rcfg, cfg):
    """Distribution oracle: the blocked recursion (and the flat search it
    delegates to) with every measurement drawn from the round's whole law
    by Generator.choice.  Returns (index, cost, iterations,
    measurements)."""
    return flat_or_blocked(x, y, rcfg, cfg, per_round_qsearch,
                           per_round_blocked)


def random_start(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def uniform(dim):
    return np.full(dim, 1.0 / math.sqrt(dim))


# float64 amplitudes of unit vectors after at most 12 iterations
TOL = 1e-12


def test_kernel_matches_dense_loop_on_random_starts():
    rng = np.random.default_rng(2001)
    for _ in range(300):
        dim = int(rng.integers(2, 65))
        start = random_start(rng, dim)
        j = int(rng.integers(0, 13))
        for mask in (rng.random(dim) < rng.random(),
                     np.zeros(dim, dtype=bool), np.ones(dim, dtype=bool)):
            got = grover_state(start, np.flatnonzero(mask), j)
            want = dense_grover(start, mask, j)
            assert np.max(np.abs(got - want)) <= TOL, (dim, j, mask)


def test_kernel_matches_dense_loop_block_by_block():
    rng = np.random.default_rng(2002)
    for rows, cols in ((1, 2), (2, 8), (4, 16), (8, 64), (16, 32)):
        start = np.full((rows, cols), 1.0 / math.sqrt(rows * cols))
        mask = rng.random((rows, cols)) < 0.2
        mask[0] = False
        mask[-1] = True
        theta = zoo.solution_angle(start ** 2, mask)
        for j in range(13):
            got = start * amplification_factors(mask, theta, j)
            assert np.max(np.abs(got - dense_blocks(start, mask, j))) <= TOL
    # a non-uniform row is reflected about its own direction
    start = np.stack([random_start(rng, 16) * s for s in (0.3, 0.5, 0.8)])
    mask = rng.random((3, 16)) < 0.3
    theta = zoo.solution_angle(np.abs(start) ** 2, mask)
    for j in range(13):
        got = start * amplification_factors(mask, theta, j)
        for row, m, g in zip(start, mask, got):
            norm = np.linalg.norm(row)
            want = norm * dense_grover(row / norm, m, j)
            assert np.max(np.abs(g - want)) <= TOL


@pytest.mark.parametrize("solutions", [[-1], [4], [1, 9], [1.5], [[1, 2]]],
                         ids=["negative", "equal-dim", "above-dim",
                              "non-integer", "nested"])
def test_bad_solution_indices_rejected(solutions):
    with pytest.raises(ValueError):
        grover_state(uniform(4), solutions, 1)
    with pytest.raises(ValueError):
        zoo.qsearch(uniform(4), solutions, zoo.QSearchConfig(rng_seed=0))


@pytest.mark.parametrize("start", [
    3.0 * uniform(4),
    np.array([0.5, 0.5, 0.5, np.nan]),
    np.array([0.5, 0.5, 0.5, np.inf]),
    np.zeros(4),
    np.eye(4) / 2.0,
    np.array([]),
], ids=["non-unit", "nan", "inf", "zero", "matrix", "empty"])
def test_bad_start_rejected(start):
    with pytest.raises(ValueError):
        grover_state(start, [1], 1)
    with pytest.raises(ValueError):
        zoo.qsearch(start, [1], zoo.QSearchConfig(rng_seed=0))


def test_negative_iterations_rejected():
    with pytest.raises(ValueError):
        grover_state(uniform(4), [1], -1)
    # no iteration count gives the state of 1.5 iterations, and True is no
    # count either
    for iterations in (1.5, 1.0, math.nan, True, np.float64(2)):
        with pytest.raises(ValueError, match="^iterations must be an integer$"):
            grover_state(uniform(4), [1], iterations)
    assert np.array_equal(grover_state(uniform(4), [1], np.int64(1)),
                          grover_state(uniform(4), [1], 1))


def schedules(seed):
    """Six seeds of the one schedule."""
    return [zoo.QSearchConfig(rng_seed=seed + (i,)) for i in range(6)]


def test_sampler_matches_choice_on_random_starts():
    rng = np.random.default_rng(2003)
    dims = [2, 3, 1100] + rng.integers(2, 1101, size=37).tolist()
    for t, dim in enumerate(dims):
        start = random_start(rng, dim)
        single = np.zeros(dim, dtype=bool)
        single[rng.integers(dim)] = True
        for mask in (rng.random(dim) < 0.05 * rng.random(),
                     np.zeros(dim, dtype=bool), single,
                     np.ones(dim, dtype=bool)):
            for cfg in schedules((t, dim)):
                res = zoo.qsearch(start, np.flatnonzero(mask), cfg)
                got = (res.outcome, res.iterations, res.measurements)
                assert got == exact_qsearch(start, mask, cfg), \
                    (dim, cfg, np.flatnonzero(mask)[:4])


def test_recursion_sampler_matches_choice():
    rng = np.random.default_rng(2004)
    for n in (1, 3, 16, 17, 64, 100, 256, 1024):
        one = [0] * n
        one[(2 * n) // 3] = 1
        inputs = {"disjoint": ([1] * n, [0] * n), "unique": (one, one),
                  "dense": (rng.integers(0, 2, size=n).tolist(),
                            rng.integers(0, 2, size=n).tolist()),
                  "full": ([1] * n, [1] * n)}
        for (kind, (x, y)), threshold in itertools.product(
                inputs.items(), (2, 16, 64)):
            rcfg = zoo.RecursionConfig(base_threshold=threshold)
            for cfg in schedules((n, threshold)):
                res = zoo.recursive_intersection(x, y, rcfg, cfg)
                got = (res.index, res.cost, res.iterations, res.measurements)
                assert got == exact_recursive(x, y, rcfg, cfg), \
                    (n, kind, threshold, cfg)


def assert_same_law(got, want):
    """Two samples of result tuples, outcome first: whether an outcome was
    found, each outcome's frequency and the mean of every count agree
    within 5 standard errors of their difference."""
    stats = [lambda r: r[0] is not None]
    stats += [lambda r, o=o: r[0] == o for o in {r[0] for r in got + want}]
    stats += [lambda r, c=c: r[c] for c in range(1, len(got[0]))]
    for stat in stats:
        a, b = (np.array([stat(r) for r in rs], dtype=float)
                for rs in (got, want))
        se = math.sqrt(a.var() / a.size + b.var() / b.size)
        assert abs(a.mean() - b.mean()) <= 5 * se, (a.mean(), b.mean(), se)


def test_sampler_draws_the_law_of_the_per_round_measurements():
    # the same seeds on two streams: one success draw per round and one
    # index draw per search against a whole-law draw in every round
    rng = np.random.default_rng(2008)
    start = random_start(rng, 40)
    mask = np.zeros(40, dtype=bool)
    mask[[3, 17, 18, 31]] = True
    cfgs = [zoo.QSearchConfig(rng_seed=(2008, s)) for s in range(800)]
    got = []
    for cfg in cfgs:
        res = zoo.qsearch(start, np.flatnonzero(mask), cfg)
        got.append((res.outcome, res.iterations, res.measurements))
    assert_same_law(got, [per_round_qsearch(start, mask, cfg) for cfg in cfgs])
    one = [0] * 64
    one[42] = 1
    dense = _grid_inputs(256)["dense"]
    for (x, y), threshold in (((one, one), 16), (dense, 16), (dense, 64)):
        rcfg = zoo.RecursionConfig(base_threshold=threshold)
        got = []
        for cfg in cfgs:
            res = zoo.recursive_intersection(x, y, rcfg, cfg)
            got.append((res.index, res.cost, res.iterations, res.measurements))
        assert_same_law(got, [per_round_recursive(x, y, rcfg, cfg)
                              for cfg in cfgs])


def test_qsearch_stays_within_its_budget():
    # no round starts once ceil(9 sqrt(dim)) oracle applications are spent,
    # and the last round's j is clamped so that its measurement is the last
    # application of the budget
    rng = np.random.default_rng(2005)
    exact = 0
    for dim in range(1, 65):
        budget = math.ceil(9 * math.sqrt(dim))
        many = np.flatnonzero(rng.random(dim) < 0.3)
        for solutions in ([], [int(rng.integers(dim))], many):
            for start in (uniform(dim), random_start(rng, dim)):
                for cfg in schedules((dim, len(solutions))):
                    res = zoo.qsearch(start, solutions, cfg)
                    spent = res.iterations + res.measurements
                    assert spent <= budget, (dim, solutions, cfg)
                    exact += spent == budget
    assert exact  # a search that misses spends the whole budget


def uncached_bbht_schedule(rng, dim):
    """_bbht_schedule as it was before its cutoffs were cached: the
    cutoff table is built on every call."""
    budget = int(math.ceil(9.0 * math.sqrt(dim)))
    with np.errstate(over="ignore"):
        cutoffs = np.minimum(zoo.SCHEDULE_GROWTH ** np.arange(budget),
                             math.sqrt(dim))
    js = rng.integers(0, np.ceil(cutoffs).astype(np.int64))
    spent = np.cumsum(js + 1)
    last = int(spent.searchsorted(budget))
    js = js[:last + 1]
    js[last] -= spent[last] - budget
    return js


def test_cached_cutoffs_leave_the_schedule_unchanged():
    for dim in [*range(1, 81), 1 << 10, 1 << 14, 1 << 20]:
        for seed in range(50):
            got_rng = np.random.default_rng(seed)
            want_rng = np.random.default_rng(seed)
            got = zoo._bbht_schedule(got_rng, dim)
            assert np.array_equal(got, uncached_bbht_schedule(want_rng, dim))
            # the generator is left in the same state
            assert got_rng.random() == want_rng.random(), (dim, seed)
        budget, cutoffs = zoo._bbht_cutoffs(dim)
        assert not cutoffs.flags.writeable
        with pytest.raises(ValueError):
            cutoffs[0] = 0
    # a caller that changes its js changes no later schedule
    want = zoo._bbht_schedule(np.random.default_rng(7), 1 << 10).copy()
    zoo._bbht_schedule(np.random.default_rng(7), 1 << 10)[:] = 99
    assert np.array_equal(
        zoo._bbht_schedule(np.random.default_rng(7), 1 << 10), want)
    info = zoo._bbht_cutoffs.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize


def test_blocked_search_stays_within_its_outer_budget():
    rng = np.random.default_rng(2006)
    # every n is above both thresholds and split into blocks; the outer
    # stage runs qsearch's schedule over the 2^jbits blocks, so it measures
    # at most ceil(9 sqrt(2^jbits)) times
    for n in (20, 64, 65, 100, 256, 500, 1024, 2048):
        vbits, lbits = index_bits(n)
        assert lbits < vbits
        jbits = vbits - lbits
        budget = math.ceil(9 * math.sqrt(1 << jbits))
        one = [0] * n
        one[n // 2] = 1
        inputs = {"disjoint": ([1] * n, [0] * n), "unique": (one, one),
                  "dense": (rng.integers(0, 2, size=n).tolist(),
                            rng.integers(0, 2, size=n).tolist())}
        for (kind, (x, y)), threshold in itertools.product(
                inputs.items(), (2, 16)):
            rcfg = zoo.RecursionConfig(base_threshold=threshold)
            for cfg in schedules((n, threshold)):
                res = zoo.recursive_intersection(x, y, rcfg, cfg)
                assert 1 <= res.measurements <= budget, (n, kind, threshold)


def _grid_inputs(n):
    rng = np.random.default_rng(1000 + n)
    dense = (rng.integers(0, 2, size=n).tolist(),
             rng.integers(0, 2, size=n).tolist())
    one = [0] * n
    one[n // 3] = 1
    return {"dense": dense, "unique": (one, one),
            "disjoint": ([1] * n, [0] * n)}


# (index, cost, iterations, measurements) for rng seeds 0..3, recorded on
# the stream of one schedule draw (the recursion's outer one, then its
# j_leaf of every round), one uniform per round and one index draw per
# search; an unchanged RNG stream keeps every entry.  At n = 4 the
# recursion delegates to the flat search.
GRID = {
    (4, "dense", "bcw"): [(None, 108, 5, 13), (None, 108, 6, 12),
                          (None, 108, 5, 13), (None, 108, 4, 14)],
    (4, "dense", "rec"): [(None, 108, 5, 13), (None, 108, 6, 12),
                          (None, 108, 5, 13), (None, 108, 4, 14)],
    (4, "unique", "bcw"): [(1, 18, 1, 2), (1, 6, 0, 1), (1, 18, 1, 2),
                           (1, 6, 0, 1)],
    (4, "unique", "rec"): [(1, 18, 1, 2), (1, 6, 0, 1), (1, 18, 1, 2),
                           (1, 6, 0, 1)],
    (64, "dense", "bcw"): [(23, 42, 1, 2), (48, 14, 0, 1), (22, 42, 1, 2),
                           (40, 14, 0, 1)],
    (64, "dense", "rec"): [(6, 50, 3, 1), (45, 26, 1, 1), (25, 74, 5, 1),
                           (0, 50, 3, 1)],
    (64, "unique", "bcw"): [(21, 280, 9, 11), (21, 84, 2, 4), (21, 238, 7, 10),
                            (21, 308, 10, 12)],
    (64, "unique", "rec"): [(21, 50, 3, 1), (21, 88, 5, 2), (21, 138, 7, 2),
                            (21, 150, 6, 2)],
    (256, "dense", "bcw"): [(38, 54, 1, 2), (95, 72, 1, 3), (121, 54, 1, 2),
                            (136, 54, 1, 2)],
    (256, "dense", "rec"): [(176, 74, 4, 1), (59, 74, 4, 1),
                            (27, 332, 15, 5), (113, 88, 5, 1)],
    (256, "unique", "bcw"): [(85, 630, 22, 13), (85, 108, 2, 4),
                             (85, 648, 23, 13), (85, 720, 25, 15)],
    (256, "unique", "rec"): [(85, 74, 4, 1), (85, 416, 12, 4),
                             (85, 332, 15, 5), (85, 262, 12, 5)],
    (1024, "disjoint", "rec"): [(None, 3536, 63, 17), (None, 2920, 70, 16),
                                (None, 4796, 91, 17), (None, 2850, 86, 19)],
    (1024, "unique", "rec"): [(341, 1214, 26, 11), (341, 1188, 35, 9),
                              (341, 1262, 35, 10), (341, 346, 11, 2)],
}


def test_seeded_searches_unchanged():
    rcfg = zoo.RecursionConfig(base_threshold=16)
    for (n, kind, fn), want in GRID.items():
        x, y = _grid_inputs(n)[kind]
        got = []
        for s in range(4):
            cfg = zoo.QSearchConfig(rng_seed=s)
            res = (zoo.bcw_intersection(x, y, cfg) if fn == "bcw"
                   else zoo.recursive_intersection(x, y, rcfg, cfg))
            got.append((res.index, res.cost, res.iterations,
                        res.measurements))
        assert got == want, (n, kind, fn)


def test_no_sampled_cost_exceeds_the_cost_models():
    for n in sorted({n for n, _, _ in GRID}):
        for kind, (x, y) in _grid_inputs(n).items():
            for s in range(16):
                cfg = zoo.QSearchConfig(rng_seed=s)
                assert zoo.bcw_intersection(x, y, cfg).cost \
                    <= zoo.bcw_cost_model(n), (n, kind, s)
                for threshold in (2, 16, 64):
                    rcfg = zoo.RecursionConfig(base_threshold=threshold)
                    assert zoo.recursive_intersection(x, y, rcfg, cfg).cost \
                        <= zoo.cost_model(n, rcfg), (n, kind, s, threshold)


class ExtremeCoins:
    """Coins that draw every j at its cutoff - 1 (top) or at 0, and that
    make no round a success on a disjoint input."""

    def __init__(self, top):
        self.top = top

    def integers(self, low, high, size=None):
        high = np.broadcast_to(high, np.shape(high) if size is None else size)
        return high - 1 if self.top else np.zeros(high.shape, np.int64)

    def random(self, size=None):
        return np.ones(size)


def test_extreme_coins_reach_the_cost_models(monkeypatch):
    # on a disjoint input every j at its top spends the budget in the
    # fewest rounds, which cost the most; every j at 0 takes the most
    # rounds
    sizes = (1, 2, 3, 4, 16, 17, 20, 64, 65, 100, 256, 1000, 1024, 1 << 14)
    inputs = {n: (np.ones(n, np.uint8), np.zeros(n, np.uint8)) for n in sizes}
    monkeypatch.setattr(np.random, "default_rng", ExtremeCoins)
    ends = [zoo.QSearchConfig(rng_seed=top) for top in (True, False)]
    for n, (x, y) in inputs.items():
        costs = [zoo.bcw_intersection(x, y, cfg).cost for cfg in ends]
        assert costs[0] == costs[1] == zoo.bcw_cost_model(n), n
        for threshold in (2, 16, 64):
            rcfg = zoo.RecursionConfig(base_threshold=threshold)
            top, zero = (zoo.recursive_intersection(x, y, rcfg, cfg).cost
                         for cfg in ends)
            assert zero <= top == zoo.cost_model(n, rcfg), (n, threshold)


def test_fewest_rounds_agree_with_the_cutoffs():
    rng = np.random.default_rng(2008)
    dims = {*range(1, 4097), *(1 << i for i in range(13, 21)),
            *rng.integers(4097, (1 << 20) + 1, size=500).tolist()}
    for dim in sorted(dims):
        budget, cutoffs = zoo._bbht_cutoffs.__wrapped__(dim)
        fewest = int(np.cumsum(cutoffs).searchsorted(budget)) + 1
        got = zoo._bbht_rounds(math.sqrt(dim))
        assert (got[0], got[3]) == (budget, fewest), dim
    # the cost models take the root of 2^bits without forming 2^bits
    for bits in range(1024):
        assert zoo._root(bits) == math.sqrt(1 << bits), bits
    assert zoo._root(1024) == 2.0 ** 512


def test_every_input_form_gives_the_same_search():
    # a list, a tuple, a '01' string, a uint8 array and a bool array of
    # the same bits are the same input to both searches
    def forms(bits):
        return (list(bits), tuple(bits), "".join(map(str, bits)),
                np.array(bits, dtype=np.uint8), np.array(bits, dtype=bool))

    rcfgs = (zoo.RecursionConfig(), zoo.RecursionConfig(base_threshold=16))
    for n in (4, 64, 256, 1024):
        for kind, (x, y) in _grid_inputs(n).items():
            for s in range(4):
                cfg = zoo.QSearchConfig(rng_seed=s)
                got = {zoo.bcw_intersection(fx, fy, cfg)
                       for fx, fy in zip(forms(x), forms(y))}
                assert len(got) == 1, (n, kind, s, got)
                for rcfg in rcfgs:
                    got = {zoo.recursive_intersection(fx, fy, rcfg, cfg)
                           for fx, fy in zip(forms(x), forms(y))}
                    assert len(got) == 1, (n, kind, rcfg, s, got)


def test_each_measurement_law_is_built_once_per_search(monkeypatch):
    built = []
    cdf = zoo._cdf

    def counting_cdf(weights):
        built.append(weights.size)
        return cdf(weights)

    monkeypatch.setattr(zoo, "_cdf", counting_cdf)
    # only a search that finds an index builds a law: its outcome's, over
    # the common indices alone
    rng = np.random.default_rng(2007)
    big = 1 << 20
    one = np.zeros(big, dtype=np.uint8)
    one[big // 3] = 1
    cases = [(n, kind, xy, 16) for n in (1024,)
             for kind, xy in _grid_inputs(n).items()]
    cases += [(big, "disjoint", (np.ones(big, np.uint8), 0 * one), 2),
              (big, "unique", (one, one), 2),
              (big, "dense", tuple(rng.integers(0, 2, size=(2, big))), 2)]
    found = set()
    for n, kind, (x, y), seeds in cases:
        common = int(np.count_nonzero(np.asarray(x) & np.asarray(y)))
        for threshold in (16, 64):
            rcfg = zoo.RecursionConfig(base_threshold=threshold)
            for s in range(seeds):
                built.clear()
                res = zoo.recursive_intersection(
                    x, y, rcfg, zoo.QSearchConfig(rng_seed=s))
                assert built == [common] * res.found, (n, kind, threshold, s)
                found.add((n, kind, res.found))
    assert {(1024, "disjoint", False), (1024, "unique", True),
            (big, "unique", True), (big, "dense", True)} <= found
    for solutions in ([], [5], [1, 5, 9]):
        built.clear()
        res = zoo.qsearch(uniform(64), solutions, zoo.QSearchConfig(rng_seed=0))
        assert res.measurements >= 1
        assert built == [len(solutions)] * (res.outcome is not None)


# ------------------------------------------------- per-input memos of a law

MEMOS = (zoo._flat_law, zoo._blocked_law)


def fresh(f, *args):
    """f(*args) right after emptying the per-input memos."""
    for memo in MEMOS:
        memo.cache_clear()
    return f(*args)


def kept_and_fresh(calls):
    """Results of the calls (function, *args) in order with the per-input
    memos kept, then of each call again, fresh; and each memo's hits in
    the first pass."""
    for memo in MEMOS:
        memo.cache_clear()
    kept = [f(*args) for f, *args in calls]
    hits = [memo.cache_info().hits for memo in MEMOS]
    return kept, [fresh(*call) for call in calls], hits


def intersection_calls(x, y, seeds, thresholds=(2, 16, 64)):
    calls = [(zoo.bcw_intersection, x, y, zoo.QSearchConfig(rng_seed=s))
             for s in seeds]
    for threshold in thresholds:
        rcfg = zoo.RecursionConfig(base_threshold=threshold)
        calls += [(zoo.recursive_intersection, x, y, rcfg,
                   zoo.QSearchConfig(rng_seed=s)) for s in seeds]
    return calls


def test_memoized_laws_change_no_result():
    # consecutive seeds on one input, as the callers run them
    calls = []
    for n in sorted({n for n, _, _ in GRID}):
        for x, y in _grid_inputs(n).values():
            calls += intersection_calls(x, y, range(16))
    # criterion 6's pairs at n = 8
    rng = np.random.default_rng(2024)
    for idx in range(64):
        x, y = (rng.integers(0, 2, size=8).tolist() for _ in range(2))
        calls += [(zoo.bcw_intersection, x, y,
                   zoo.QSearchConfig(rng_seed=(idx, t))) for t in range(16)]
    kept, fresh, hits = kept_and_fresh(calls)
    assert kept == fresh and min(hits) > 0
    # and interleaved inputs, more of them than a memo holds
    inputs = [_grid_inputs(n)[kind] for n in (64, 256, 1024)
              for kind in ("dense", "unique")]
    order = [0, 1, 0, 2, 3, 4, 5, 0, 1, 5]
    calls = [call for i in order
             for call in intersection_calls(*inputs[i], [i, 99])]
    kept, fresh, hits = kept_and_fresh(calls)
    assert kept == fresh and min(hits) > 0


def test_a_caller_that_mutates_its_input_gets_a_fresh_result():
    rcfg = zoo.RecursionConfig(base_threshold=16)
    cfg = zoo.QSearchConfig(rng_seed=5)
    for search in (zoo.bcw_intersection,
                   lambda x, y, cfg: zoo.recursive_intersection(
                       x, y, rcfg, cfg)):
        x, y = (list(bits) for bits in _grid_inputs(256)["unique"])
        for i, j in ((85, 3), (3, 200), (200, 130)):
            search(x, y, cfg)
            # move the one common index, in place
            x[i], x[j], y[j] = 0, 1, 1
            got = search(x, y, cfg)
            assert got == fresh(search, x, y, cfg) and got.index == j
    start, solutions = uniform(16), np.array([3, 7])
    rng = np.random.default_rng(11)
    for _ in range(4):
        zoo.qsearch(start, solutions, cfg)
        amplitudes = rng.normal(size=16)
        start[:] = amplitudes / np.linalg.norm(amplitudes)  # in place
        solutions[0] = rng.integers(16)
        got = zoo.qsearch(start, solutions, cfg)
        assert got == fresh(zoo.qsearch, start, solutions, cfg)
        assert got == zoo.qsearch(start.copy(), solutions.tolist(), cfg)


@pytest.mark.parametrize("start", [
    np.array([0.5, 0.5, 0.5, np.nan]),
    3.0 * uniform(4),
    np.array([0.5, 0.5, 0.5, 0.5], dtype=object),
], ids=["nan", "non-unit", "object"])
def test_a_memo_hit_leaves_the_start_checks(start):
    cfg = zoo.QSearchConfig(rng_seed=0)
    for _ in range(2):
        zoo.qsearch(uniform(4), [1], cfg)
        with pytest.raises(ValueError):
            zoo.qsearch(start, [1], cfg)


@pytest.mark.parametrize("solutions", [[-1], [4], [1.0], np.array([1.0])],
                         ids=["negative", "equal-dim", "float", "float-array"])
def test_a_memo_hit_leaves_the_solution_checks(solutions):
    cfg = zoo.QSearchConfig(rng_seed=0)
    for _ in range(2):
        zoo.qsearch(uniform(4), [1], cfg)
        with pytest.raises(ValueError):
            zoo.qsearch(uniform(4), solutions, cfg)


def test_a_memo_hit_leaves_the_input_checks():
    x, y = _grid_inputs(64)["dense"]
    bad = {"unequal": (x, y[:-1]), "non-bit": (x, y[:-1] + [2])}
    cfg = zoo.QSearchConfig(rng_seed=0)
    for threshold in (2, 64):
        rcfg = zoo.RecursionConfig(base_threshold=threshold)
        for bx, by in bad.values():
            for _ in range(2):
                zoo.bcw_intersection(x, y, cfg)
                zoo.recursive_intersection(x, y, rcfg, cfg)
                with pytest.raises(ValueError):
                    zoo.bcw_intersection(bx, by, cfg)
                with pytest.raises(ValueError):
                    zoo.recursive_intersection(bx, by, rcfg, cfg)


def test_memos_stay_small_and_read_only():
    rng = np.random.default_rng(12)
    rcfg = zoo.RecursionConfig(base_threshold=2)
    for n in range(2, 40):
        x, y = (rng.integers(0, 2, size=n) for _ in range(2))
        zoo.bcw_intersection(x, y, zoo.QSearchConfig(rng_seed=n))
        zoo.recursive_intersection(x, y, rcfg, zoo.QSearchConfig(rng_seed=n))
        zoo.qsearch(random_start(rng, n), [n - 1], zoo.QSearchConfig(rng_seed=n))
    for memo in MEMOS + (zoo._uniform,):
        info = memo.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize
        # each input is new to the per-input memos
        assert memo is zoo._uniform or info.misses > info.maxsize
    start = random_start(rng, 8)
    flat = zoo._flat_law(start.dtype.str, start.tobytes(),
                         np.dtype(int).str, np.array([2, 5]).tobytes())
    both = np.array([1, 1, 0, 1] * 64, np.uint8)
    arrays = (flat[1:] + zoo._blocked_law(both.tobytes(), 4, 6)
              + (zoo._uniform(8),))
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0
