"""The closed-form amplification kernel against the dense loop it replaced,
the search entry points' input checks, and a seeded regression grid."""

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


def test_callable_predicate_matches_indices():
    cfg = zoo.QSearchConfig(rng_seed=5)
    a = zoo.qsearch(uniform(16), lambda z: z % 5 == 3, cfg)
    b = zoo.qsearch(uniform(16), [3, 8, 13], cfg)
    assert a == b and a.outcome in (3, 8, 13)


def _grid_inputs(n):
    rng = np.random.default_rng(1000 + n)
    dense = (rng.integers(0, 2, size=n).tolist(),
             rng.integers(0, 2, size=n).tolist())
    one = [0] * n
    one[n // 3] = 1
    return {"dense": dense, "unique": (one, one)}


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
