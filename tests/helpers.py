"""Helpers shared by the tests."""

import numpy as np

from qcommlab import linalg, zoo

_TINY = np.finfo(float).tiny


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unitary from the QR of a complex Gaussian matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def amplification_factors(mask: np.ndarray, theta,
                          iterations: int) -> np.ndarray:
    """Factor on each amplitude after the given number of iterations of
    "flip the sign of the solutions, then reflect about the start", each
    row of mask on its own; theta is the rows' zoo.solution_angle.

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
    start vector, checked as zoo.qsearch checks its start and solutions."""
    psi0 = zoo._start_vector(start)
    linalg._require_int(iterations, "iterations")
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    mask = zoo._solution_mask(solutions, psi0.shape[0])
    theta = zoo.solution_angle(np.abs(psi0) ** 2, mask)
    return psi0 * amplification_factors(mask, theta, iterations)
