"""Small dense complex linear algebra: SVD in the U*Sigma*V row-factor
convention, the one "nonzero" rule ``support``, numeric and exact integer
(Bareiss) rank, checked gates and qubit-subset unitary application.
``support``, ``numeric_rank``, ``SvdResult.rank`` and ``is_unitary`` all
apply the one constant ``DEFAULT_TOL``; none takes a tolerance.
``numeric_rank`` computes the singular values only.

A ``GateStack`` is the one checked-gate type: gates on one tuple of
targets, one per entry of a state's leading axis, or one gate as a stack
of one.  It is checked once, when it is made, by one ``is_unitary`` call
on the stack, or taken as rows of a checked stack of one
(``GateStack.stack_rows``) with one permutation check and no second
unitarity check.  It is never sliced: the engine builds each chunk of
inputs on its own, so a stack always covers exactly the entries it is
applied to.  ``unitary_with_first_column`` builds one Householder
reflection per column of a stack at once.
``apply_on_qubits`` is the one kernel: it trusts a ``GateStack``, checks
a raw matrix on every call as a stack of one, and applies one gate to
every vector, or gate i to entry i, as one matmul: on a reshaped view for
ascending contiguous targets, with one transpose each way otherwise.

Conventions used throughout the package:

* qubit 0 is the leftmost (most significant) tensor factor;
* a state vector over n qubits has dimension 2**n and basis index
  ``b_0 b_1 ... b_{n-1}`` read as a big-endian integer.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, NumericalFailureError

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class SvdResult:
    """Factorization m = u @ diag(sigma) @ v.

    Note the product convention: ``v`` already is the adjoint of the
    conventional right factor, so no dagger appears when reconstructing.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

    def reconstruct(self) -> np.ndarray:
        k = self.sigma.shape[0]
        return (self.u[:, :k] * self.sigma) @ self.v[:k, :]

    def rank(self) -> int:
        """Number of singular values in the support (0 for a zero matrix)."""
        return int(np.count_nonzero(support(self.sigma)))


def svd(m) -> SvdResult:
    """Singular value decomposition of ``m`` (the argument itself; callers
    that want the transpose convention pass ``m.T``)."""
    u, s, vh = _svd(np.asarray(m, dtype=complex), compute_uv=True)
    return SvdResult(u=u, sigma=s, v=vh)


def _svd(m: np.ndarray, compute_uv: bool):
    """np.linalg.svd of m: ValueError for an empty or non-finite m, and
    NumericalFailureError if it does not converge."""
    if m.size == 0:
        raise ValueError("svd of an empty matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError("svd input contains NaN/Inf")
    try:
        return np.linalg.svd(m, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise NumericalFailureError(f"SVD did not converge: {exc}") from exc


def support(values) -> np.ndarray:
    """Mask of ``|v| > DEFAULT_TOL * max|v|``, the package's one "nonzero"
    rule, applied to amplitudes (probabilities via their square roots).
    All False when every entry is zero; NaN or +-inf raise
    ``ValueError``."""
    mag = np.abs(np.asarray(values))
    if not np.all(np.isfinite(mag)):
        raise ValueError("support of values containing NaN/Inf")
    return mag > DEFAULT_TOL * mag.max(initial=0.0)


def numeric_rank(m) -> int:
    """Rank of m: its singular values in the support, as ``svd(m).rank()``
    counts them, computed without the singular vectors and, for real m,
    in real arithmetic.  Raises as ``svd`` does."""
    m = np.asarray(m)
    m = m.astype(complex if np.iscomplexobj(m) else float, copy=False)
    return int(np.count_nonzero(support(_svd(m, compute_uv=False))))


def is_unitary(u) -> bool:
    """Whether u is square with max|u u^H - I| <= DEFAULT_TOL, or a stack
    of such matrices along its leading axes, every one of them.  A 0 x 0
    matrix and an empty stack are unitary (True): nothing fails."""
    u = np.asarray(u)
    if u.ndim < 2 or u.shape[-1] != u.shape[-2]:
        return False
    eye = np.eye(u.shape[-1])
    return bool(np.max(np.abs(u @ u.conj().swapaxes(-1, -2) - eye),
                       initial=0.0) <= DEFAULT_TOL)


class GateStack:
    """Checked gates on one tuple of targets, one per entry of a state's
    leading axis; one gate is a stack of one.

    ``GateStack(unitaries, targets)`` checks a non-empty (count, 2^k, 2^k)
    stack, k = len(targets), with one ``is_unitary`` call (``ValueError``
    for a shape that does not match, ``ContractViolationError`` for a
    matrix that is not unitary) and keeps a read-only copy; ``rows`` is
    None.  ``stack_rows`` makes the other form: ``unitaries`` is one
    matrix, (1, 2^k, 2^k), and ``rows`` each gate's row order in it,
    (count, 2^k), so ``apply_on_qubits`` applies the one matrix to every
    entry and then takes each entry's rows, with the bits the permuted
    matrices give and no matrix per gate.
    """

    __slots__ = ("unitaries", "rows", "targets")

    def __init__(self, unitaries, targets):
        targets = _int_targets(targets)
        u = np.array(unitaries)
        side = 1 << len(targets)
        if u.ndim != 3 or not len(u) or u.shape[1:] != (side, side):
            raise ValueError(f"a gate stack needs one or more {side} x {side} "
                             f"matrices for {len(targets)} targets")
        if not is_unitary(u):
            raise ContractViolationError("operator is not unitary within 1e-9")
        u.setflags(write=False)
        self.unitaries, self.rows, self.targets = u, None, targets

    def __len__(self) -> int:
        return len(self.unitaries if self.rows is None else self.rows)

    def stack_rows(self, rows) -> "GateStack":
        """The stack whose gate i is this stack's one matrix with its rows
        in the order ``rows[i]``, on the same targets; one row order is
        kept as its permuted matrix, which spares the states a take.

        ``ValueError`` unless the stack holds one gate and ``rows`` is a
        non-empty (count, 2^k) integer array whose every row is a
        permutation of range(2^k), checked by one sort.  Unitarity is not
        checked again: P·U is unitary when U is, for a permutation matrix
        P, with the same max|UU^H - I|.
        """
        if len(self) != 1:  # a rows-form stack holds two gates or more
            raise ValueError("stack_rows needs a stack of one gate")
        rows = np.asarray(rows)
        dim = self.unitaries.shape[-1]
        if (rows.ndim != 2 or not len(rows) or rows.shape[1] != dim
                or rows.dtype.kind not in "iu"):
            raise ValueError(f"rows must be permutations of range({dim})")
        rows = rows.astype(np.intp)  # a new array, which the stack keeps
        if not (np.sort(rows, axis=1) == np.arange(dim)).all():
            raise ValueError(f"rows must be permutations of range({dim})")
        u = self.unitaries
        if len(rows) == 1:  # one gate: its permuted matrix, and no rows
            u, rows = u[0].take(rows, axis=0), None
            u.setflags(write=False)
        else:
            rows.setflags(write=False)
        stack = object.__new__(GateStack)
        stack.unitaries, stack.rows, stack.targets = u, rows, self.targets
        return stack


def _is_int(value) -> bool:
    """The one integer rule: an integer type but bool, numpy's included."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _require_int(value, name: str) -> int:
    """value as an int; ValueError unless _is_int(value)."""
    if not _is_int(value):
        raise ValueError(f"{name} must be an integer")
    return int(value)


def _int_targets(targets) -> tuple:
    """targets as ints; ValueError for a bool or a non-integer target."""
    targets = tuple(targets)
    if all(type(t) is int for t in targets):  # plain ints: one cheap pass
        return targets
    if not all(map(_is_int, targets)):
        raise ValueError(f"target qubits must be integers, got {targets}")
    return tuple(map(int, targets))


def apply_on_qubits(state, u, targets) -> np.ndarray:
    """Apply unitaries to the given qubits of ``state`` (identity
    elsewhere).  ``targets`` are integer qubit indices,
    most-significant-first.

    ``u`` is a ``GateStack``, already checked, or a raw matrix, checked
    first on every call as ``GateStack(u[None], targets)``.  A stack of
    one acts on every vector of a state with 1 to 3 axes; a longer stack
    needs a state of shape (len(u), 2^n) or (len(u), batch, 2^n), and
    entry i gets gate i.  The state is viewed as (len(u), vectors, 2^n);
    targets t..t+k-1 then take one matmul on the view (len(u), vectors *
    2^t, 2^k, 2^(n-t-k)), any other order one transpose each way around
    it.  A stack of rows of one matrix takes each entry's rows after the
    matmul.  The result is always a new array.
    """
    state = np.asarray(state, dtype=complex)
    if not isinstance(u, GateStack):
        u = GateStack(np.asarray(u)[None], targets)
    count = len(u)
    if state.ndim not in ((1, 2, 3) if count == 1 else (2, 3)):
        raise ValueError("state must be a vector or a batch of vectors"
                         + ", after one axis for the gates" * (count > 1))
    dim = state.shape[-1]
    n = dim.bit_length() - 1
    if dim != 1 << n:
        raise ValueError("state length is not a power of two")
    if targets is not u.targets:
        targets = _int_targets(targets)  # a stack's own targets are ints
    k = len(targets)
    if len(set(targets)) != k or k and (min(targets) < 0
                                        or max(targets) >= n):
        raise ValueError(f"bad target qubits {list(targets)} for {n} qubits")
    if len(u.targets) != k:
        raise ValueError("unitary dimension does not match target count")
    if count > 1 and len(state) != count:
        raise ValueError(f"{count} gates for {len(state)} entries of the "
                         "state's leading axis")
    if not state.size:  # the views below cannot infer an axis of size 0
        return state.copy()
    mats, rows = u.unitaries, u.rows  # a stack of one broadcasts
    first = targets[0] if k else 0
    if targets == tuple(range(first, first + k)):
        rest = n - first - k
        if rest == 0:
            axis = -1
            psi = state.reshape(count, -1, 1 << k) @ mats.swapaxes(-1, -2)
        else:
            axis = -2
            psi = mats[:, None] @ state.reshape(count, -1, 1 << k, 1 << rest)
        shape, perm = state.shape, None
    else:
        # the gate axis, targets, the vectors' axis, then the other qubits
        axes = [2 + t for t in targets]
        perm = [0] + axes + [a for a in range(1, 2 + n) if a not in axes]
        psi = state.reshape((count, -1) + (2,) * n).transpose(perm)
        shape, axis = psi.shape, -2
        psi = mats @ psi.reshape(count, 1 << k, -1)
    if rows is not None:  # entry i's rows, along the targets' axis
        index = rows.reshape((count,) + (1,) * (psi.ndim + axis - 1)
                             + (1 << k,) + (1,) * (-1 - axis))
        psi = np.take_along_axis(psi, index, axis)
    psi = psi.reshape(shape)
    if perm is None:
        return psi
    # the inverse of perm, by a sort of Python ints (np.argsort would
    # first convert the list to an array)
    return psi.transpose(sorted(range(len(perm)), key=perm.__getitem__)
                         ).reshape(state.shape)


def exact_rank(m) -> int:
    """Exact rank by fraction-free (Bareiss) elimination on Python ints.

    Entries must be real and finite; a complex dtype is accepted only with
    zero imaginary parts.  Every binary float is a dyadic rational, so
    scaling all entries by the largest denominator of
    ``float.as_integer_ratio`` gives an integer matrix of the same rank.
    Each elimination step replaces the trailing block by
    ``(block * pivot - outer(col, pivot_row)) // previous_pivot``; the
    division is exact because every entry is then a minor of the scaled
    matrix (Sylvester's identity), also when zero columns are skipped.
    No float, modulus or tolerance enters: this is the tolerance-free
    oracle shadowing ``numeric_rank`` on matrices whose entries are exact.
    """
    m = np.asarray(m)
    if m.ndim != 2:
        raise ValueError("exact_rank needs a 2-D matrix")
    if np.iscomplexobj(m):
        if np.any(m.imag != 0):
            raise ValueError("exact_rank only supports real matrices")
        m = m.real
    m = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(m)):
        raise ValueError("exact_rank input contains NaN/Inf")
    ratios = [v.as_integer_ratio() for v in m.ravel().tolist()]
    scale = max((d for _, d in ratios), default=1)
    a = np.array([num * (scale // d) for num, d in ratios],
                 dtype=object).reshape(m.shape)
    nrows, ncols = m.shape
    rank = 0
    prev = 1
    for col in range(ncols):
        if rank == nrows:
            break
        nonzero = np.flatnonzero(a[rank:, col])
        if nonzero.size == 0:
            continue
        pivot_row = rank + int(nonzero[0])
        a[[rank, pivot_row]] = a[[pivot_row, rank]]
        pivot = a[rank, col]
        below = slice(rank + 1, None)
        right = slice(col + 1, None)
        a[below, right] = (a[below, right] * pivot
                           - np.outer(a[below, col], a[rank, right])) // prev
        prev = pivot
        rank += 1
    return rank


def unitary_with_first_column(phi) -> np.ndarray:
    """Deterministic unitary whose first column is the given unit vector,
    or one such unitary per row of a stack of them.

    One Householder reflection, built in O(d^2): with phi normalised,
    ph = phi_0/|phi_0| (1 when phi_0 = 0) and w = phi + ph e_0, the matrix
    -ph (I - w w^H / (1 + |phi_0|)) maps e_0 to phi, and w^H w =
    2(1 + |phi_0|) >= 2, so nothing cancels.  phi of shape (d,) gives a
    (d, d) unitary and phi of shape (count, d) a (count, d, d) stack, every
    reflection built by the same elementwise steps.  Raises ``ValueError``
    unless phi is a non-empty 1-D vector, or a non-empty 2-D stack of them,
    with every vector of norm 1 within ``DEFAULT_TOL`` (NaN and inf fail
    that test).
    """
    phi = np.asarray(phi, dtype=complex)
    if phi.ndim not in (1, 2) or phi.size == 0:
        raise ValueError("first column must be a non-empty 1-D vector or "
                         "a stack of them")
    w = np.ascontiguousarray(phi.reshape(-1, phi.shape[-1]))
    # each row's norm as np.linalg.norm forms it for one vector: the dots
    # of the real and imaginary parts (matmul of 1 x d by d x 1 is a dot)
    re, im = w.real[:, None], w.imag[:, None]
    norm = np.sqrt((re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2)).ravel())
    if not np.all(np.abs(norm - 1.0) <= DEFAULT_TOL):
        raise ValueError("first column must be a finite unit vector")
    w = w / norm[:, None]
    # |w_0| by hypot, as abs of one complex number forms it
    a = np.hypot(w[:, 0].real, w[:, 0].imag)
    ph = np.ones(len(w), dtype=complex)
    np.divide(w[:, 0], a, out=ph, where=a > 0)
    w[:, 0] += ph
    u = w[:, :, None] * (w.conj() * (ph / (1.0 + a))[:, None])[:, None, :]
    u.reshape(len(w), -1)[:, ::w.shape[1] + 1] -= ph[:, None]
    return u.reshape(phi.shape + phi.shape[-1:])
