"""Switched linear system model and signal-dependent system matrices.

The plant is x(t+1) = A x(t) + sigma(t) B u(t) with output y(t) = C x(t)
emitted only when sigma(t) = 1.  For a fixed dropout signal the model is
linear time varying, and reachability/observability are decided by the
rank of signal-masked block matrices.  The blocks A^{T-1-i} B and C A^i
depend only on the horizon, so the worst-case scans build them once per
call: a chunk's controllability matrices are the blocks times its
(N, T) bool mask, and controllability_matrix is the one-signal case.
III-energy and IV need only C's U and s, which its zero columns do not
change, so for them the blocks of each row's successful steps alone are
gathered, transposed, into stacks of rows with the same count of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signals import Signal, SignalSet

__all__ = [
    "SwitchedLinearSystem",
    "controllability_matrix",
    "observability_matrix",
    "numerical_rank",
    "first_full_rank_time",
]

# A must be invertible for the model to be meaningful at every horizon
_INVERTIBILITY_RTOL = 1e-12


def _finite(x, name: str, ndim: int | None = None, size: int | None = None) -> np.ndarray:
    """x as a new float array, refused with a ValueError that names it.

    Every entry must be finite; with ndim the array must have that many
    dimensions, and with size x is a vector, raveled, of that many entries.
    """
    arr = np.array(x, dtype=float)
    if size is not None:
        arr = arr.ravel()
        if arr.size != size:
            raise ValueError(f"{name} must have {size} entries, got {arr.size}")
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"{name} must have {ndim} dimensions, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} has a non-finite entry")
    return arr


@dataclass(frozen=True, eq=False)
class SwitchedLinearSystem:
    """Matrices (A, B, C) with A square and invertible."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        for name in "ABC":
            object.__setattr__(self, name, _finite(getattr(self, name), name, ndim=2))
        A, B, C = self.A, self.B, self.C
        n = A.shape[0]
        if A.shape != (n, n):
            raise ValueError(f"A must be square, got {A.shape}")
        if B.shape[0] != n:
            raise ValueError(f"B must have {n} rows, got {B.shape}")
        if C.shape[1] != n:
            raise ValueError(f"C must have {n} columns, got {C.shape}")
        sv = np.linalg.svd(A, compute_uv=False)
        if sv[-1] <= _INVERTIBILITY_RTOL * max(sv[0], 1.0):
            raise ValueError("A is singular to working precision")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]

    def __repr__(self):
        return f"SwitchedLinearSystem(n={self.n}, m={self.m}, p={self.p})"


def _ctrb_blocks(sys: SwitchedLinearSystem, T: int) -> np.ndarray:
    """The blocks A^{T-1-i} B for i = 0..T-1, shape (T, n, m), by iterated multiplication."""
    blocks = np.empty((T, sys.n, sys.m))
    P = sys.B
    for i in range(T - 1, -1, -1):
        blocks[i] = P
        if i > 0:
            P = sys.A @ P
    return blocks


def _ctrb_stack(blocks: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Controllability matrices of the rows of an (N, T) bool mask, shape (N, n, m T)."""
    N, T = mask.shape
    _, n, m = blocks.shape
    # written in C order, so the reshape is a view and not a second copy
    stack = np.multiply(mask[:, None, :, None], blocks.transpose(1, 0, 2), order="C")
    return stack.reshape(N, n, T * m)


def _active_stacks(blocks: np.ndarray, mask: np.ndarray, size: int):
    """Transposed controllability matrices C' of the rows of an (N, T) bool mask, less zero rows.

    Yields (rows, stack) for chunks of at most `size` rows with the same
    count c of successful steps, in increasing c and, within a count, in
    row order.  stack has shape (len(rows), c m', n): the transposed blocks
    (A^{T-1-i} B)' of each row's successful steps i, in step order, less
    the m - m' inputs whose column is zero in every block.  A dropped
    step's block and a dead input are zero rows of C', which change
    neither C's U nor its s.
    """
    live = blocks.any(axis=(0, 1))
    blocks_t = blocks[:, :, live].swapaxes(1, 2)  # (T, m', n)
    _, width, n = blocks_t.shape
    counts = mask.sum(axis=1)
    for c in range(mask.shape[1] + 1):
        group = np.flatnonzero(counts == c)
        for start in range(0, len(group), size):
            rows = group[start : start + size]
            steps = np.nonzero(mask[rows])[1].reshape(len(rows), c)
            yield rows, blocks_t[steps].reshape(len(rows), c * width, n)


def controllability_matrix(sys: SwitchedLinearSystem, s: Signal) -> np.ndarray:
    """Blocks [s(0) A^{T-1} B, ..., s(T-2) A B, s(T-1) B], shape n x (m T).

    Maps the stacked input vector to x(T) from zero initial state.  This is
    the one-signal case of the stack that the worst-case scans build per
    chunk of signals: the blocks A^{T-1-i} B, built by iterated
    multiplication, times the signal's bits.
    """
    mask = SignalSet([s]).to_array()
    return _ctrb_stack(_ctrb_blocks(sys, mask.shape[1]), mask)[0]


def _obsv_blocks(sys: SwitchedLinearSystem, T: int) -> np.ndarray:
    """The blocks C A^i for i = 0..T-1, shape (T, p, n), by iterated multiplication."""
    blocks = np.empty((T, sys.p, sys.n))
    M = sys.C
    for i in range(T):
        blocks[i] = M
        if i < T - 1:
            M = M @ sys.A
    return blocks


def observability_matrix(sys: SwitchedLinearSystem, s: Signal) -> np.ndarray:
    """Stacked rows s(i) C A^i for i = 0..T-1, shape (p T) x n."""
    row = SignalSet([s]).to_array()[0]
    return np.vstack([b * M for b, M in zip(row, _obsv_blocks(sys, len(row)))])


def _rank_cut(shape: tuple[int, ...], sv: np.ndarray) -> np.ndarray:
    """The rank cut max(dim) * eps * s_max for descending singular values sv.

    sv may be a stack (N, k) of them; the result has shape (..., 1).
    """
    return max(shape) * np.finfo(float).eps * sv[..., :1]


def numerical_rank(M) -> int:
    """Count of singular values above the fixed cut _rank_cut, max(dim) * eps * s_max."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.size == 0:
        return 0
    sv = np.linalg.svd(M, compute_uv=False)
    return int(np.count_nonzero(sv > _rank_cut(M.shape, sv)))


def first_full_rank_time(sys: SwitchedLinearSystem, s: Signal) -> int | None:
    """Least t with the observability matrix over s(0..t) of full column rank.

    Returns None when no prefix achieves rank n (estimation infeasible for
    this signal at this horizon).  The worst-case scan builds the blocks
    C A^i once per call and walks its signals' prefix trie, testing each
    distinct prefix once with _full_rank.
    """
    row = SignalSet([s]).to_array()[0]
    blocks = _obsv_blocks(sys, len(row))
    for successes, t in enumerate(np.flatnonzero(row).tolist(), 1):
        # rank cannot reach n before p * successes >= n
        if successes * sys.p >= sys.n and _full_rank(blocks, row, t):
            return t
    return None


def _full_rank(blocks: np.ndarray, row: np.ndarray, t: int) -> bool:
    """Whether the rows s(i) C A^i, i <= t, of the (T,) bool row have rank n."""
    n = blocks.shape[2]
    return numerical_rank(blocks[: t + 1][row[: t + 1]].reshape(-1, n)) == n
