"""Dense two-phase simplex for small equality-form linear programs.

Solves   min c'x   subject to   A x = b,  x >= 0

with Bland's anti-cycling rule throughout, so the pivot sequence (and
therefore the reported vertex) is deterministic.  Phase 1 minimizes the
sum of artificial variables; redundant rows discovered there are removed.
The artificial block doubles as a running copy of the basis inverse, from
which a dual vector y (A'y <= c, b'y = c'x at optimality) is read off and
returned as a certificate.

Problem sizes here are tiny (a few hundred columns), so a full dense
tableau is simpler and fast enough; no sparsity, no factorization updates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LpResult", "solve_standard_lp"]

_PIVOT_TOL = 1e-9
# phase 1 calls the LP infeasible when the artificial sum left exceeds this
# times max(1, sum |b|) of the equilibrated rows
_PHASE1_TOL = 1e-9


@dataclass
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded" | "iteration_limit"
    x: np.ndarray | None = None
    value: float | None = None
    dual: np.ndarray | None = None  # one multiplier per input row
    iterations: int = 0


def _pivot(T: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])
    T[:, col] = 0.0
    T[row, col] = 1.0


def _bland_entering(cost_row: np.ndarray, allowed: int) -> int:
    idx = np.nonzero(cost_row[:allowed] < -_PIVOT_TOL)[0]
    return int(idx[0]) if idx.size else -1


def _bland_leaving(T: np.ndarray, basis: list[int], col: int) -> int:
    m = T.shape[0] - 1
    coeffs = T[:m, col]
    rhs = T[:m, -1]
    best_ratio = None
    best_row = -1
    best_basic = None
    for i in range(m):
        if coeffs[i] > _PIVOT_TOL:
            ratio = max(rhs[i], 0.0) / coeffs[i]
            if (
                best_ratio is None
                or ratio < best_ratio - _PIVOT_TOL
                or (abs(ratio - best_ratio) <= _PIVOT_TOL and basis[i] < best_basic)
            ):
                best_ratio = ratio
                best_row = i
                best_basic = basis[i]
    return best_row


def _run_simplex(T: np.ndarray, basis: list[int], allowed: int, max_iter: int) -> tuple[str, int]:
    it = 0
    while it < max_iter:
        col = _bland_entering(T[-1], allowed)
        if col < 0:
            return "optimal", it
        row = _bland_leaving(T, basis, col)
        if row < 0:
            return "unbounded", it
        _pivot(T, row, col)
        basis[row] = col
        it += 1
    return "iteration_limit", it


def solve_standard_lp(c, A, b) -> LpResult:
    c = np.asarray(c, dtype=float).ravel()
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float).ravel()
    m, n = A.shape
    if c.size != n or b.size != m:
        raise ValueError("inconsistent LP dimensions")
    max_iter = 500 * (m + n + 10)  # per phase
    c_orig, A_orig, b_orig = c, A, b

    # equilibrate: unit row and column inf-norms keep the fixed pivot
    # tolerance meaningful when blocks span many orders of magnitude
    row_norm = np.abs(A).max(axis=1)
    row_scale = np.where(row_norm > 0, 1.0 / np.maximum(row_norm, 1e-300), 1.0)
    A = A * row_scale[:, None]
    b = b * row_scale
    col_norm = np.abs(A).max(axis=0)
    col_scale = np.where(col_norm > 0, 1.0 / np.maximum(col_norm, 1e-300), 1.0)
    A = A * col_scale[None, :]
    c = c * col_scale

    signs = np.where(b < 0, -1.0, 1.0)
    A = A * signs[:, None]
    b = b * signs
    signs = signs * row_scale  # fold both into the dual unscaling

    # tableau [A | I_artificial | rhs]; cost row holds reduced costs, last
    # entry is -objective
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n : n + m] = np.eye(m)
    T[:m, -1] = b
    basis = list(range(n, n + m))

    # phase 1: minimize the artificial sum
    T[-1, :n] = -A.sum(axis=0)
    T[-1, -1] = -b.sum()
    status, it1 = _run_simplex(T, basis, allowed=n + m, max_iter=max_iter)
    if status != "optimal":
        return LpResult(status=status, iterations=it1)
    phase1_value = -T[-1, -1]
    if phase1_value > _PHASE1_TOL * max(1.0, float(np.abs(b).sum())):
        return LpResult(status="infeasible", iterations=it1)

    # drive artificials out of the basis; rows that cannot pivot are redundant
    keep = np.ones(m, dtype=bool)
    for i in range(m):
        if basis[i] >= n:
            candidates = np.nonzero(np.abs(T[i, :n]) > _PIVOT_TOL)[0]
            if candidates.size:
                _pivot(T, i, int(candidates[0]))
                basis[i] = int(candidates[0])
            else:
                keep[i] = False
    if not keep.all():
        rows = list(np.nonzero(keep)[0])
        T = T[rows + [m]]
        basis = [basis[i] for i in rows]

    # phase 2: real objective, artificial columns barred from entering
    mk = len(basis)
    cB = np.array([c[j] for j in basis])
    T[-1, : n + m] = 0.0
    T[-1, :n] = c - cB @ T[:mk, :n]
    T[-1, n : n + m] = -(cB @ T[:mk, n : n + m])
    T[-1, -1] = -(cB @ T[:mk, -1])
    status, it2 = _run_simplex(T, basis, allowed=n, max_iter=max_iter)
    if status != "optimal":
        return LpResult(status=status, iterations=it1 + it2)

    x = np.zeros(n)
    for i, j in enumerate(basis):
        if j < n:
            x[j] = max(T[i, -1], 0.0)
    x = x * col_scale  # back to the caller's variables
    value = float(c_orig @ x)

    # dual from the artificial block: y' = c_B' B^{-1}, then undo the row
    # flips and row scaling folded into `signs`
    cB = np.array([c[j] for j in basis])
    y = (cB @ T[: len(basis), n : n + m]) * signs
    return LpResult(status="optimal", x=x, value=value, dual=y, iterations=it1 + it2)
