"""Small dense complex linear algebra: SVD in the U*Sigma*V row-factor
convention, the one "nonzero" rule ``support``, numeric and exact integer
(Bareiss) rank, checked gates and qubit-subset unitary application.
``support``, ``numeric_rank``, ``SvdResult.rank`` and ``is_unitary`` all
apply the one constant ``DEFAULT_TOL``; none takes a tolerance.

A ``Gate`` is checked once, when it is made: its matrix is square, of side
2^len(targets) and unitary in its own dtype, and the gate keeps a
read-only copy of it.  ``Gate.with_rows`` permutes a checked gate's rows
without a second check.  A ``GateStack`` holds checked gates on one tuple
of targets, one per entry of a state's leading axis, stacked once and
never sliced: the engine compiles each chunk of inputs on its own, so a
stack always covers exactly the entries it is applied to.
``apply_on_qubits`` is the one kernel: it trusts a ``Gate`` or a
``GateStack``, its one form of gates per entry, checks a raw matrix on
every call, and applies one gate to every row, or gate i to entry i, as
one matmul: on a reshaped view for ascending contiguous targets, with one
transpose each way otherwise.

Conventions used throughout the package:

* qubit 0 is the leftmost (most significant) tensor factor;
* a state vector over n qubits has dimension 2**n and basis index
  ``b_0 b_1 ... b_{n-1}`` read as a big-endian integer.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Optional

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
    m = np.asarray(m, dtype=complex)
    if m.size == 0:
        raise ValueError("svd of an empty matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError("svd input contains NaN/Inf")
    try:
        u, s, vh = np.linalg.svd(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise NumericalFailureError(f"SVD did not converge: {exc}") from exc
    return SvdResult(u=u, sigma=s, v=vh)


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
    """Rank of m: ``svd(m).rank()``."""
    return svd(m).rank()


def is_unitary(u) -> bool:
    """Whether u is square with max|u u^H - I| <= DEFAULT_TOL."""
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    eye = np.eye(u.shape[0])
    return bool(np.max(np.abs(u @ u.conj().T - eye)) <= DEFAULT_TOL)


@dataclass(frozen=True, eq=False)
class Gate:
    """A unitary on an explicit tuple of global qubit indices.

    Made only from a square matrix of side 2^len(targets) that passes
    ``is_unitary`` (``ValueError`` and ``ContractViolationError``
    otherwise), or by ``with_rows`` from such a gate; ``unitary`` is a
    read-only copy of it.  Gates compare and hash by identity.
    """

    unitary: np.ndarray
    targets: tuple

    def __post_init__(self):
        targets = _int_targets(self.targets)
        u = np.array(self.unitary)
        u.setflags(write=False)
        if u.shape != (1 << len(targets),) * 2:
            raise ValueError("unitary dimension does not match target count")
        if not is_unitary(u):
            raise ContractViolationError("operator is not unitary within 1e-9")
        object.__setattr__(self, "unitary", u)
        object.__setattr__(self, "targets", targets)

    def with_rows(self, rows) -> "Gate":
        """The gate whose matrix is ``self.unitary[rows]``, on the same
        targets.

        ``rows`` must be an integer permutation of range(2^len(targets))
        (``ValueError`` otherwise), checked by a sort.  The unitarity check
        is not run again: a permutation matrix P is unitary, so P·U is
        unitary when U is, with the same max|UU^H - I|.
        """
        rows = np.asarray(rows)
        dim = self.unitary.shape[0]
        if rows.shape != (dim,) or rows.dtype.kind not in "iu":
            raise ValueError(f"rows must be a permutation of range({dim})")
        rows = rows.astype(np.intp)  # a new array, which the gate keeps
        ascending = rows.copy()
        ascending.sort()
        # both sides intp, so equal bytes are equal rows
        if ascending.tobytes() != np.arange(dim, dtype=np.intp).tobytes():
            raise ValueError(f"rows must be a permutation of range({dim})")
        u = self.unitary.take(rows, axis=0)
        u.setflags(write=False)
        gate = object.__new__(Gate)
        object.__setattr__(gate, "unitary", u)
        object.__setattr__(gate, "targets", self.targets)
        # the made gate these rows come from, and their order in it, for
        # GateStack.of
        base, order = getattr(self, "_rows_of", (self, None))
        object.__setattr__(gate, "_rows_of", (
            base, rows if order is None else order[rows]))
        return gate


class GateStack:
    """Checked gates on one tuple of targets, one per entry of a state's
    leading axis, stacked once (``GateStack.of``).

    If there are several and all are ``Gate.with_rows`` of one made gate,
    ``unitaries`` is that gate's matrix, (2^k, 2^k), and ``rows`` each
    gate's row order in it, (len, 2^k): ``apply_on_qubits`` applies the
    one matrix to every entry and then takes each entry's rows, which holds
    no matrix per gate and gives the bits the permuted matrices give.
    Otherwise ``unitaries`` holds the gates' matrices, (len, 2^k, 2^k), and
    ``rows`` is None.
    """

    __slots__ = ("unitaries", "rows", "targets")

    def __init__(self, unitaries: np.ndarray, rows: Optional[np.ndarray],
                 targets: tuple):
        self.unitaries, self.rows, self.targets = unitaries, rows, targets

    @classmethod
    def of(cls, gates) -> "GateStack":
        """The stack of a non-empty sequence of ``Gate``s on one tuple of
        targets (``ValueError`` otherwise), which are not checked again."""
        if len(gates) == 1 and isinstance(gates[0], Gate):
            # a view of the one matrix
            return cls(gates[0].unitary[None], None, gates[0].targets)
        gates = list(gates)
        if not gates or not all(isinstance(g, Gate) for g in gates):
            raise ValueError("a gate stack needs one or more Gates")
        targets = gates[0].targets
        if any(g.targets != targets for g in gates):
            raise ValueError("stacked gates must share their targets")
        sources = [getattr(g, "_rows_of", (None, None)) for g in gates]
        base = sources[0][0]
        if base is not None and all(b is base for b, _ in sources):
            return cls(base.unitary, np.stack([r for _, r in sources]),
                       targets)
        return cls(np.stack([g.unitary for g in gates]), None, targets)

    def __len__(self) -> int:
        return len(self.unitaries if self.rows is None else self.rows)


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

    ``u`` is one gate or one gate per entry of ``state``'s leading axis.
    One gate is a ``Gate``, already checked, or a raw matrix, checked on
    every call; ``state`` is then one vector of length 2^n or a batch of
    shape (batch, 2^n) whose rows all get ``u``.  Gates per entry are a
    ``GateStack``; ``state`` then has shape (len(u), 2^n) or (len(u),
    batch, 2^n), and entry i gets gate i.  Targets t..t+k-1 take one
    matmul on the view (entries, batch * 2^t, 2^k, 2^(n-t-k)); any other
    order one transpose each way around it.  A stack of rows of one matrix takes each entry's
    rows after the matmul.  The result is always a new array.
    """
    state = np.asarray(state, dtype=complex)
    stacked = isinstance(u, GateStack)
    if state.ndim - stacked not in (1, 2):
        raise ValueError("state must be a vector or a batch of vectors"
                         + (", after one axis for the gates" if stacked else ""))
    dim = state.shape[-1]
    n = dim.bit_length() - 1
    if dim != 1 << n:
        raise ValueError("state length is not a power of two")
    checked = stacked or isinstance(u, Gate)
    if not (checked and targets is u.targets):
        targets = _int_targets(targets)  # a gate's own targets are ints
    k = len(targets)
    if len(set(targets)) != k or k and (min(targets) < 0
                                        or max(targets) >= n):
        raise ValueError(f"bad target qubits {list(targets)} for {n} qubits")
    if not checked:
        u = Gate(u, targets)
    elif len(u.targets) != k:
        raise ValueError("unitary dimension does not match target count")
    # one gate broadcasts; a stack pairs entry i with matrix i, or with
    # the one matrix and then its rows
    if stacked:
        mats, rows, lead = u.unitaries, u.rows, state.shape[:1]
        if len(u) != lead[0]:
            raise ValueError(f"{len(u)} gates for {lead[0]} entries of the "
                             "state's leading axis")
    else:
        mats, rows, lead = u.unitary, None, ()
    if not state.size:  # the views below cannot infer an axis of size 0
        return state.copy()
    first = targets[0] if k else 0
    if targets == tuple(range(first, first + k)):
        rest = n - first - k
        if rest == 0:
            axis = -1
            psi = state.reshape(lead + (-1, 1 << k)) @ mats.swapaxes(-1, -2)
        else:
            axis = -2
            psi = (mats[:, None] if mats.ndim == 3 else mats) @ state.reshape(
                lead + (-1, 1 << k, 1 << rest))
        shape, perm = state.shape, None
    else:
        # the gate axis, targets, then the batch axis, then the other qubits
        b = state.ndim - 1
        axes = [b + t for t in targets]
        perm = list(range(len(lead))) + axes + [
            a for a in range(len(lead), b + n) if a not in axes]
        psi = state.reshape(state.shape[:-1] + (2,) * n).transpose(perm)
        shape, axis = psi.shape, -2
        psi = mats @ psi.reshape(lead + (1 << k, -1))
    if rows is not None:
        tail = (1 << k, 1) if axis == -2 else (1 << k,)
        index = rows.reshape(lead + (1,) * (psi.ndim - 1 - len(tail)) + tail)
        psi = np.take_along_axis(psi, index, axis)
    psi = psi.reshape(shape)
    if perm is None:
        return psi
    # the inverse of perm, by a sort of Python ints (np.argsort would
    # first convert the list to an array)
    return psi.transpose(sorted(range(len(perm)), key=perm.__getitem__)
                         ).reshape(state.shape)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unitary from the QR of a complex Gaussian matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


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
    """Deterministic unitary whose first column is the given unit vector.

    One Householder reflection, built in O(d^2): with phi normalised,
    ph = phi_0/|phi_0| (1 when phi_0 = 0) and w = phi + ph e_0, the matrix
    -ph (I - w w^H / (1 + |phi_0|)) maps e_0 to phi, and w^H w =
    2(1 + |phi_0|) >= 2, so nothing cancels.  Raises ``ValueError`` unless
    phi is a non-empty 1-D vector of norm 1 within ``DEFAULT_TOL`` (NaN and
    inf fail that test).
    """
    phi = np.asarray(phi, dtype=complex)
    if phi.ndim != 1 or phi.size == 0:
        raise ValueError("first column must be a non-empty 1-D vector")
    norm = np.linalg.norm(phi)
    if not abs(norm - 1.0) <= DEFAULT_TOL:
        raise ValueError("first column must be a finite unit vector")
    w = phi / norm
    a = abs(w[0])
    ph = w[0] / a if a else 1.0
    w[0] += ph
    u = np.outer(w, w.conj() * (ph / (1.0 + a)))
    u.flat[::w.size + 1] -= ph
    return u
