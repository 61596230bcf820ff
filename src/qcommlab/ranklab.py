"""Communication matrices and rank machinery.

Covers the standard two-party functions (EQ, NEQ, DISJ, INT), witness
matrices whose nonzero pattern certifies a function's 1-set, one
full-rank audit for EQ and DISJ (an ordering makes the pattern
triangular), randomized scalarization of vector families into low-rank
witnesses, and the diagonal-restriction polynomial toolchain for
acceptance matrices that depend on x AND y bitwise, down to the check
that a folded polynomial approximates NOR to within NOR_ERROR.  Every
zero pattern is ``linalg.support``; acceptance probabilities, being
squared amplitudes, go through ``AcceptanceMatrix.support``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import engine, linalg
from .errors import (FamilyHypothesisError, PatternMismatchError,
                     ProbabilisticFailureError)

FUNCTION_NAMES = ("EQ", "NEQ", "DISJ", "INT")

COMM_N_GUARD = 10

SCALARIZE_RETRY_BUDGET = 32
# Lemma 2's coefficients are drawn from 2^COEFF_BITS values in [1, 2)
COEFF_BITS = 24
# nor_approx_audit's error bound: the protocols' bounded error
NOR_ERROR = 1 / 3


@dataclass(frozen=True)
class CommMatrix:
    """0/1 table of a two-party boolean function over all input pairs."""

    n: int
    name: str
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n", linalg._require_int(self.n, "n"))
        v = np.asarray(self.values)
        if v.shape != (1 << self.n, 1 << self.n):
            raise ValueError("values shape does not match n")
        # a bool table is 0/1 by its type, so only other tables are scanned
        if v.dtype != bool and not np.all((v == 0) | (v == 1)):
            raise ValueError("entries must be 0/1")
        object.__setattr__(self, "values", v.astype(np.uint8))

    def to_csv(self) -> str:
        # one digit byte and one separator byte per entry
        out = np.full(self.values.shape + (2,), ord(","), dtype=np.uint8)
        out[..., 0] = self.values + ord("0")
        out[:, -1, 1] = ord("\n")
        return out.tobytes().decode("ascii")

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "values": self.values.tolist()})


def _input_grid(n: int) -> tuple:
    """x indices as a column and y indices as a row of a 2^n x 2^n table;
    the tables' one size rule is an integer n in 1..COMM_N_GUARD."""
    if not (linalg._is_int(n) and 1 <= n <= COMM_N_GUARD):
        raise ValueError(f"n must be in 1..{COMM_N_GUARD}")
    xs = np.arange(1 << n)
    return xs[:, None], xs[None, :]


def build_comm_matrix(name: str, n: int) -> CommMatrix:
    xs, ys = _input_grid(n)
    if name == "EQ":
        v = (xs == ys)
    elif name == "NEQ":
        v = (xs != ys)
    elif name == "INT":
        v = (xs & ys) != 0
    elif name == "DISJ":
        v = (xs & ys) == 0
    else:
        raise ValueError(f"unknown function {name!r}")
    return CommMatrix(n=n, name=name, values=v)


def canonical_witness(name: str, n: int) -> np.ndarray:
    """A concrete matrix whose nonzero pattern is the function's 1-set.

    EQ uses the identity; NEQ uses x - y (rank 2); INT counts common ones
    (rank n, row 0 all zero); DISJ uses its own 0/1 table, which is full
    rank by the complement-pairing triangular ordering.  Names and sizes
    are those build_comm_matrix accepts.
    """
    table = build_comm_matrix(name, n).values
    if name == "DISJ":
        return table.astype(float)
    dim = 1 << n
    xs, ys = _input_grid(n)
    if name == "EQ":
        return np.eye(dim)
    if name == "NEQ":
        return (xs - ys).astype(float)
    common = np.bitwise_and(xs, ys)  # INT
    counts = np.zeros((dim, dim))
    for b in range(n):
        counts += (common >> b) & 1
    return counts


@dataclass(frozen=True)
class NdetWitness:
    matrix: np.ndarray
    target: CommMatrix
    rank: int


def verify_ndet_witness(m, target: CommMatrix) -> NdetWitness:
    """Accept m as a witness for target, or reject with counterexamples."""
    m = np.asarray(m)
    if m.shape != target.values.shape:
        raise ValueError("witness shape does not match the target table")
    mism = np.argwhere(linalg.support(m) != (target.values == 1))
    if mism.size:
        raise PatternMismatchError(
            f"{len(mism)} entries disagree with {target.name}_{target.n}",
            [(int(x), int(y)) for x, y in mism])
    return NdetWitness(matrix=m, target=target,
                       rank=linalg.numeric_rank(m))


@dataclass
class AuditReport:
    name: str
    n: int
    trials: int
    ok: bool
    failures: list = field(default_factory=list)
    detail: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps({
            "audit": self.name, "n": self.n, "trials": self.trials,
            "ok": self.ok, "failures": self.failures, "detail": self.detail,
        })


def _require_audit_size(n) -> None:
    """ValueError unless n is an integer in 1..8, the one size rule of the
    full-rank audits, checked before any 2^n work."""
    if not (linalg._is_int(n) and 1 <= n <= 8):
        raise ValueError("n must be an integer in 1..8")


def _fullrank_audit(fn: str, n: int, trials: int, seed: int,
                    rows, cols) -> AuditReport:
    """Random matrices with fn's nonzero pattern must have full rank; the
    pattern permuted to (rows, cols) must have ones on the diagonal and
    zeros below it, which makes every such matrix triangular."""
    trials = linalg._require_int(trials, "trials")
    if trials < 0:
        raise ValueError("trials must be >= 0")
    dim = 1 << n
    pattern = build_comm_matrix(fn, n).values
    perm = pattern[np.ix_(rows, cols)]
    failures = [{"kind": "diagonal", "i": int(i)}
                for i in np.flatnonzero(np.diagonal(perm) == 0)]
    failures += [{"kind": "below-diagonal", "i": int(i), "j": int(j)}
                 for i, j in np.argwhere(np.tril(perm, -1))]
    rng = np.random.default_rng(seed)
    for t in range(trials):
        m = (pattern * rng.uniform(0.5, 1.5, size=(dim, dim))
             * rng.choice([-1.0, 1.0], size=(dim, dim)))
        rank = linalg.numeric_rank(m)
        if rank != dim or (n <= 5 and linalg.exact_rank(m) != dim):
            failures.append({"kind": "rank", "trial": t, "rank": rank})
    name = {"EQ": "eq-fullrank", "DISJ": "disj-triangular"}[fn]
    return AuditReport(name=name, n=n, trials=trials, ok=not failures,
                       failures=failures, detail={"expected_rank": dim})


def eq_fullrank_audit(n: int, trials: int, seed: int) -> AuditReport:
    """Random matrices with the EQ nonzero pattern must have full rank."""
    _require_audit_size(n)
    identity = range(1 << n)
    return _fullrank_audit("EQ", n, trials, seed, identity, identity)


def disj_ordering(n: int):
    """Row/column orders that upper-triangularize the DISJ pattern.

    Rows are inputs x sorted by (popcount, value); column j is the
    complement of row j.  Diagonal pairs (x, ~x) are disjoint, and
    x_i being a subset of x_j forces i <= j, so everything strictly
    below the diagonal is a 0 of DISJ.
    """
    mask = (1 << n) - 1
    rows = sorted(range(1 << n), key=lambda x: (bin(x).count("1"), x))
    cols = [x ^ mask for x in rows]
    return rows, cols


def disj_triangular_audit(n: int, trials: int, seed: int) -> AuditReport:
    """The full-rank audit of DISJ under ``disj_ordering``."""
    _require_audit_size(n)
    rows, cols = disj_ordering(n)
    return _fullrank_audit("DISJ", n, trials, seed, rows, cols)


@dataclass
class ScalarizationTrial:
    """The first attempt whose zero pattern matched the target."""

    alpha: np.ndarray
    beta: np.ndarray
    v_table: np.ndarray
    success: bool
    attempt: int
    witness: NdetWitness


def _family_hypothesis_check(a_family, b_family, target):
    """Sum_i A_i(x) (x) B_i(y) must vanish exactly on target's 0-set."""
    m, nx, da = a_family.shape
    _, ny, db = b_family.shape
    # entry (a, b) of sum_i A_i(x) (x) B_i(y) is entry (a, b) of
    # A[:, x, :]^T B[:, y, :]; one x row at a time bounds the memory.
    # Not the Gram form G_A . G_B^T, G[x, (i, j)] = <A_i(x), A_j(x)>: it is
    # this norm squared, but on the svd NEQ and INT protocols at n = 2..4
    # its largest 0-set entry is 4.9e-18 to 1.5e-17, where these norms
    # square to <= 2.6e-31, and the square roots of 79 of its 145 0-set
    # entries pass tol = 1e-9.
    b_flat = b_family.reshape(m, ny * db)
    norms = np.empty((nx, ny))
    for xi in range(nx):
        total = (a_family[:, xi, :].T @ b_flat).reshape(da, ny, db)
        norms[xi] = np.linalg.norm(total, axis=(0, 2))
    pattern = linalg.support(norms)
    if not np.array_equal(pattern, target.values == 1):
        bad = np.argwhere(pattern != (target.values == 1))
        raise FamilyHypothesisError(
            "family tensor sums do not vanish exactly on the 0-set; "
            f"first offender (x,y) = {tuple(int(v) for v in bad[0])}")


def lemma2_scalarize(a_family, b_family, target: CommMatrix,
                     seed: int = 0) -> ScalarizationTrial:
    """Collapse vector families to scalars with random coefficients.

    Given families with sum_i A_i(x) (x) B_i(y) = 0 iff target(x,y) = 0,
    draws coefficient vectors alpha, beta from 2^COEFF_BITS equally spaced
    values in [1, 2) and forms v(x,y) = sum_i (alpha.A_i(x))(beta.B_i(y)).
    The zero pattern of v matches the target with high probability; the
    resulting witness has rank at most the family size m.
    """
    a_family = np.asarray(a_family, dtype=complex)
    b_family = np.asarray(b_family, dtype=complex)
    if (a_family.ndim != 3 or b_family.ndim != 3
            or a_family.shape[1] != 1 << target.n
            or b_family.shape[1] != 1 << target.n):
        raise ValueError("families must be [m, 2^n, dim] arrays")
    m = a_family.shape[0]
    if b_family.shape[0] != m:
        raise ValueError("family sizes disagree")
    _family_hypothesis_check(a_family, b_family, target)
    size = 1 << COEFF_BITS
    for attempt in range(SCALARIZE_RETRY_BUDGET):
        rng = np.random.default_rng([seed, attempt])
        alpha = 1.0 + rng.integers(0, size, size=a_family.shape[2]) / size
        beta = 1.0 + rng.integers(0, size, size=b_family.shape[2]) / size
        v = np.einsum("ix,iy->xy", a_family @ alpha, b_family @ beta)
        if np.array_equal(linalg.support(v), target.values == 1):
            return ScalarizationTrial(
                alpha=alpha, beta=beta, v_table=v, success=True,
                attempt=attempt, witness=NdetWitness(
                    matrix=v, target=target, rank=linalg.numeric_rank(v)))
    predicted = min(1.0, int(np.sum(target.values)) * 2.0 / size)
    raise ProbabilisticFailureError(
        f"no pattern match in {SCALARIZE_RETRY_BUDGET} attempts "
        f"(per-attempt failure bound {predicted:.3g})")


def protocol_to_witness(p: engine.Protocol, target: CommMatrix,
                        seed: int = 0) -> NdetWitness:
    """Low-rank witness extracted from a protocol's accepting transcripts.

    The protocol must accept with positive probability exactly on the
    target's 1-set.  Transcript components with the output bit 1 give
    families A_i(x), B_i(y); the accepting set S has size at most
    2^(cost-1), so the witness rank is at most 2^(cost-1).
    """
    n = p.input_bits
    if n != target.n:
        raise ValueError("protocol and target disagree on n")
    accept = engine.acceptance_matrix(p)
    if not np.array_equal(accept.support(), target.values == 1):
        raise ValueError(
            "protocol acceptance pattern does not compute the target")
    a_tab, b_tab = engine.output_families(p)
    live = (linalg.support(np.linalg.norm(a_tab, axis=(1, 2)))
            & linalg.support(np.linalg.norm(b_tab, axis=(1, 2))))
    s_idx = np.flatnonzero(live)
    if s_idx.size == 0:
        raise ValueError("protocol never accepts; no witness family")
    trial = lemma2_scalarize(a_tab[s_idx], b_tab[s_idx], target, seed=seed)
    return trial.witness


def is_and_dependent(p: engine.AcceptanceMatrix) -> bool:
    """True when P(x,y) is a function of the bitwise AND of the inputs."""
    # in row-major order the first pair with x AND y = k is (k, k)
    xs = np.arange(1 << p.n)
    diag = np.diagonal(p.values)
    return bool(np.all(np.abs(p.values - diag[xs[:, None] & xs[None, :]])
                       <= linalg.DEFAULT_TOL))


def _subset_sums(values, sign: int) -> np.ndarray:
    """out[S] = sum over T subset of S of sign^|S - T| * values[T], for
    values indexed by bitmask, in one whole-array pass per bit.  Sign 1
    evaluates a polynomial's coefficients at every 0/1 point; sign -1
    inverts that, the subset Moebius transform."""
    out = np.array(values, dtype=float)
    for b in range(out.size.bit_length() - 1):
        t = out.reshape(-1, 2, 1 << b)  # axis 1 is bit b of the index
        t[:, 1] += sign * t[:, 0]
    return out


@dataclass(frozen=True)
class FoldedPolynomial:
    """Multilinear polynomial with one coefficient per variable subset.

    coeffs[S] is indexed by the subset bitmask in the same
    most-significant-first bit convention as the inputs.
    """

    n: int
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n", linalg._require_int(self.n, "n"))
        c = np.asarray(self.coeffs)
        if c.shape != (1 << self.n,):
            raise ValueError(f"coeffs must be a vector of 2^{self.n} entries")
        object.__setattr__(self, "coeffs", c)

    def evaluate(self, z: int) -> float:
        """Value at the 0/1 point with bitmask z, an integer (not a bool)
        with 0 <= z < 2^n."""
        linalg._require_int(z, "point")
        if not 0 <= z < 1 << self.n:
            raise ValueError(f"point {z} out of range for {self.n} variables")
        return float(_subset_sums(self.coeffs, 1)[z])

    def monomial_count(self) -> int:
        return int(np.count_nonzero(linalg.support(self.coeffs)))


def fold_to_polynomial(p: engine.AcceptanceMatrix) -> FoldedPolynomial:
    """Restrict P to the diagonal g(z) = P(z,z) and expand in monomials.

    Requires an AND-dependent matrix; the coefficients come from the
    subset Moebius transform of g.
    """
    if not is_and_dependent(p):
        raise ValueError("acceptance matrix is not a function of x AND y")
    diag = np.diagonal(p.values)
    c = _subset_sums(diag, -1)
    if np.any(np.abs(_subset_sums(c, 1) - diag) > linalg.DEFAULT_TOL):
        raise ValueError("transform failed to reproduce the diagonal")
    return FoldedPolynomial(n=p.n, coeffs=c)


class MonomialRankReport(NamedTuple):
    monomials: int
    rank: int
    ok: bool


def monomial_rank_audit(p: engine.AcceptanceMatrix) -> MonomialRankReport:
    """The monomial count of the folded polynomial equals rank(P)."""
    poly = fold_to_polynomial(p)
    monomials = poly.monomial_count()
    rank = linalg.numeric_rank(p.values)
    return MonomialRankReport(monomials=monomials, rank=rank,
                              ok=monomials == rank)


@dataclass(frozen=True)
class NorApproxReport:
    ok: bool
    max_error: float
    monomials: int
    predicted_monomial_lower_bound: float


def nor_approx_audit(poly: FoldedPolynomial) -> NorApproxReport:
    """Does the polynomial approximate NOR to within NOR_ERROR on every
    0/1 point?

    The 2^sqrt(n/12) monomial lower bound for such approximations is
    reported alongside, never asserted at these sizes.
    """
    nor = np.eye(1, 1 << poly.n)[0]  # 1 at the all-zero point only
    max_err = float(np.max(np.abs(_subset_sums(poly.coeffs, 1) - nor)))
    return NorApproxReport(
        ok=max_err <= NOR_ERROR, max_error=max_err,
        monomials=poly.monomial_count(),
        predicted_monomial_lower_bound=2.0 ** math.sqrt(poly.n / 12.0))


def random_and_dependent_acceptance(n: int, rng) -> engine.AcceptanceMatrix:
    """Random P(x,y) = g(x AND y) with g drawn from {0, 1/8, ..., 1}, for
    the n that build_comm_matrix accepts."""
    xs, ys = _input_grid(n)
    g = rng.integers(0, 9, size=1 << n) / 8.0
    return engine.AcceptanceMatrix(n=n, values=g[xs & ys])
