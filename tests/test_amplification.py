"""The closed-form amplification kernel against the dense loop it replaced,
the CDF sampler against the Generator.choice loops it replaced, the search
entry points' input checks, and a seeded regression grid."""

import itertools
import math

import numpy as np
import pytest

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


def reference_qsearch(start, mask, cfg):
    """Reference oracle: the random-cutoff schedule with every measurement
    drawn by Generator.choice.  Returns (outcome, iterations, measurements)."""
    dim = start.shape[0]
    weight = np.abs(start) ** 2
    theta = zoo.solution_angle(weight, mask)
    budget = int(math.ceil(9.0 * math.sqrt(dim)))
    rng = np.random.default_rng(cfg.rng_seed)
    m, used, iterations, measurements = 1.0, 0, 0, 0
    while used < budget:
        j = min(int(rng.integers(0, max(int(math.ceil(m)), 1))), budget - used)
        probs = weight * zoo.amplification_factors(mask, theta, j) ** 2
        probs /= probs.sum()
        z = int(rng.choice(dim, p=probs))
        iterations += j
        measurements += 1
        used += j + 1
        if mask[z]:
            return z, iterations, measurements
        m = min(m * 1.2, math.sqrt(dim))
    return None, iterations, measurements


def reference_recursive(x, y, rcfg, cfg):
    """Reference oracle: the blocked recursion (and the flat search it
    delegates to) with every measurement drawn by Generator.choice.
    Returns (index, cost, iterations, measurements)."""
    n = len(x)
    both = np.array(x) & np.array(y)
    b = max(1, int(math.ceil(math.log2(n) ** 2)))
    if n <= rcfg.base_threshold or b >= n:
        k = max(int(math.ceil(math.log2(n))), 0)
        if k == 0:
            return (0 if both[0] else None), 2, 0, 1
        dim = 1 << k
        mask = np.zeros(dim, dtype=bool)
        mask[:n] = both == 1
        z, it, ms = reference_qsearch(uniform(dim), mask, cfg)
        return z, it * 2 * (k + 1) + ms * (2 * k + 2), it, ms
    nblocks = int(math.ceil(n / b))
    jbits = max(int(math.ceil(math.log2(nblocks))), 0)
    lbits = max(int(math.ceil(math.log2(b))), 0)
    dim = 1 << (jbits + lbits)
    ldim = 1 << lbits
    blk, off = np.divmod(np.arange(dim), ldim)
    pos = blk * b + off
    mask = (off < b) & (pos < n)
    mask[mask] = both[pos[mask]] == 1
    blocks = mask.reshape(1 << jbits, ldim)
    start = np.full(blocks.shape, 1.0 / dim)
    leaf_theta = zoo.solution_angle(start, blocks)
    rng = np.random.default_rng(cfg.rng_seed)
    query_cost = 2 * (jbits + lbits + 1)
    verify_cost = 2 * int(math.ceil(math.log2(n))) + 2
    cost, iterations, measurements = 0, 0, 0
    for _ in range(int(math.ceil(2.0 * math.sqrt(n) / math.log2(n)))):
        j_leaf = int(rng.integers(0, int(math.ceil(math.sqrt(ldim)))))
        leaf = zoo.amplification_factors(blocks, leaf_theta, j_leaf)
        weight = (start * leaf ** 2).reshape(dim)
        j_outer = int(rng.integers(0, int(math.ceil(math.sqrt(2 * nblocks)))))
        outer = zoo.amplification_factors(
            mask, zoo.solution_angle(weight, mask), j_outer)
        probs = weight * outer ** 2
        probs /= probs.sum()
        z = int(rng.choice(dim, p=probs))
        cost += j_leaf * query_cost * (1 + 2 * j_outer) \
            + j_outer * query_cost + verify_cost
        iterations += j_leaf + j_outer
        measurements += 1
        if mask[z]:
            return int(pos[z]), cost, iterations, measurements
    return None, cost, iterations, measurements


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
            got = zoo.grover_state(start, np.flatnonzero(mask), j)
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
            got = start * zoo.amplification_factors(mask, theta, j)
            assert np.max(np.abs(got - dense_blocks(start, mask, j))) <= TOL
    # a non-uniform row is reflected about its own direction
    start = np.stack([random_start(rng, 16) * s for s in (0.3, 0.5, 0.8)])
    mask = rng.random((3, 16)) < 0.3
    theta = zoo.solution_angle(np.abs(start) ** 2, mask)
    for j in range(13):
        got = start * zoo.amplification_factors(mask, theta, j)
        for row, m, g in zip(start, mask, got):
            norm = np.linalg.norm(row)
            want = norm * dense_grover(row / norm, m, j)
            assert np.max(np.abs(g - want)) <= TOL


@pytest.mark.parametrize("solutions", [[-1], [4], [1, 9], [1.5], [[1, 2]]],
                         ids=["negative", "equal-dim", "above-dim",
                              "non-integer", "nested"])
def test_bad_solution_indices_rejected(solutions):
    with pytest.raises(ValueError):
        zoo.grover_state(uniform(4), solutions, 1)
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
        zoo.grover_state(start, [1], 1)
    with pytest.raises(ValueError):
        zoo.qsearch(start, [1], zoo.QSearchConfig(rng_seed=0))


def test_negative_iterations_rejected():
    with pytest.raises(ValueError):
        zoo.grover_state(uniform(4), [1], -1)
    # no iteration count gives the state of 1.5 iterations, and True is no
    # count either
    for iterations in (1.5, 1.0, math.nan, True, np.float64(2)):
        with pytest.raises(ValueError, match="^iterations must be an integer$"):
            zoo.grover_state(uniform(4), [1], iterations)
    assert np.array_equal(zoo.grover_state(uniform(4), [1], np.int64(1)),
                          zoo.grover_state(uniform(4), [1], 1))


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
                assert got == reference_qsearch(start, mask, cfg), \
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
                assert got == reference_recursive(x, y, rcfg, cfg), \
                    (n, kind, threshold, cfg)


def test_qsearch_stays_within_its_budget():
    # no round starts once ceil(9 sqrt(dim)) oracle applications are spent,
    # and a round's iterations never pass the budget; the measurement that
    # ends the last round may be one application past it
    rng = np.random.default_rng(2005)
    over = 0
    for dim in range(1, 65):
        budget = math.ceil(9 * math.sqrt(dim))
        many = np.flatnonzero(rng.random(dim) < 0.3)
        for solutions in ([], [int(rng.integers(dim))], many):
            for start in (uniform(dim), random_start(rng, dim)):
                for cfg in schedules((dim, len(solutions))):
                    res = zoo.qsearch(start, solutions, cfg)
                    spent = res.iterations + res.measurements
                    assert spent <= budget + 1, (dim, solutions, cfg)
                    over += spent > budget
    assert over  # the one-past case is reached


def test_blocked_search_measures_at_most_its_rounds():
    rng = np.random.default_rng(2006)
    # every n is above both thresholds and split into blocks
    for n in (20, 64, 65, 100, 256, 500, 1024, 2048):
        assert zoo._default_block_size(n) < n
        rounds = math.ceil(2 * math.sqrt(n) / math.log2(n))
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
                assert 1 <= res.measurements <= rounds, (n, kind, threshold)


def _grid_inputs(n):
    rng = np.random.default_rng(1000 + n)
    dense = (rng.integers(0, 2, size=n).tolist(),
             rng.integers(0, 2, size=n).tolist())
    one = [0] * n
    one[n // 3] = 1
    return {"dense": dense, "unique": (one, one),
            "disjoint": ([1] * n, [0] * n)}


# (index, cost, iterations, measurements) for rng seeds 0..3, recorded with
# the iteration-by-iteration implementation; an unchanged RNG stream keeps
# every entry.  At n = 4 the recursion delegates to the flat search.
GRID = {
    (4, "dense", "bcw"): [(None, 108, 6, 12), (None, 108, 6, 12),
                          (None, 108, 6, 12), (None, 108, 4, 14)],
    (4, "dense", "rec"): [(None, 108, 6, 12), (None, 108, 6, 12),
                          (None, 108, 6, 12), (None, 108, 4, 14)],
    (4, "unique", "bcw"): [(1, 18, 1, 2), (1, 18, 1, 2), (1, 6, 0, 1),
                           (1, 24, 0, 4)],
    (4, "unique", "rec"): [(1, 18, 1, 2), (1, 18, 1, 2), (1, 6, 0, 1),
                           (1, 24, 0, 4)],
    (64, "dense", "bcw"): [(40, 14, 0, 1), (32, 14, 0, 1), (12, 84, 1, 5),
                           (27, 56, 0, 4)],
    (64, "dense", "rec"): [(None, 442, 11, 3), (59, 174, 4, 1),
                           (21, 284, 10, 2), (None, 202, 8, 3)],
    (64, "unique", "bcw"): [(21, 154, 5, 6), (21, 196, 6, 8), (21, 126, 3, 6),
                            (21, 378, 15, 12)],
    (64, "unique", "rec"): [(21, 318, 7, 1), (21, 174, 4, 1), (21, 110, 6, 1),
                            (21, 110, 6, 1)],
    (256, "dense", "bcw"): [(20, 54, 1, 2), (38, 54, 1, 2), (41, 108, 1, 5),
                            (132, 162, 1, 8)],
    (256, "dense", "rec"): [(140, 360, 7, 1), (252, 198, 4, 1),
                            (26, 450, 11, 2), (None, 540, 14, 4)],
    (256, "unique", "bcw"): [(85, 630, 22, 13), (85, 324, 9, 9),
                             (85, 360, 10, 10), (85, 486, 15, 12)],
    (256, "unique", "rec"): [(85, 360, 7, 1), (85, 486, 9, 4), (85, 126, 6, 1),
                             (85, 270, 9, 2)],
    (1024, "disjoint", "rec"): [(None, 6178, 55, 7), (None, 5026, 49, 7),
                                (None, 4738, 59, 7), (None, 4234, 48, 7)],
    (1024, "unique", "rec"): [(341, 1774, 13, 1), (341, 1648, 17, 4),
                              (341, 766, 11, 1), (341, 238, 9, 1)],
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


def recursion_draws(n, cfg, rounds):
    """(j_leaf, j_outer) of the first rounds of the blocked search at n,
    replayed from its seed."""
    b = max(1, int(math.ceil(math.log2(n) ** 2)))
    nblocks = int(math.ceil(n / b))
    ldim = 1 << max(int(math.ceil(math.log2(b))), 0)
    rng = np.random.default_rng(cfg.rng_seed)
    draws = []
    for _ in range(rounds):
        j_leaf = int(rng.integers(0, int(math.ceil(math.sqrt(ldim)))))
        j_outer = int(rng.integers(0, int(math.ceil(math.sqrt(2 * nblocks)))))
        rng.random()  # the measurement
        draws.append((j_leaf, j_outer))
    return draws


def test_each_measurement_law_is_built_once_per_search(monkeypatch):
    built = []
    cdf = zoo._cdf

    def counting_cdf(weights):
        built.append(weights.shape)
        return cdf(weights)

    monkeypatch.setattr(zoo, "_cdf", counting_cdf)
    n = 1024
    inputs = _grid_inputs(n)
    repeated = False
    for threshold in (16, 64):
        rcfg = zoo.RecursionConfig(base_threshold=threshold)
        for s in range(16):
            cfg = zoo.QSearchConfig(rng_seed=s)
            built.clear()
            res = zoo.recursive_intersection(*inputs["disjoint"], rcfg, cfg)
            # no common index: every round measures the start
            assert (res.index, res.measurements, len(built)) == (None, 7, 1)
            for kind in ("unique", "dense"):
                built.clear()
                res = zoo.recursive_intersection(*inputs[kind], rcfg, cfg)
                draws = recursion_draws(n, cfg, res.measurements)
                assert len(built) == len(set(draws)), (threshold, s, kind)
                repeated |= len(set(draws)) < len(draws)
    assert repeated  # some search drew one (j_leaf, j_outer) twice
    built.clear()
    res = zoo.qsearch(uniform(64), [], zoo.QSearchConfig(rng_seed=0))
    assert res.outcome is None and res.measurements > 1 and len(built) == 1
