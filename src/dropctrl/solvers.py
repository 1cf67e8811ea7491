"""Per-signal input-design solvers.

Each routine targets   C u = x_f   for a signal-masked controllability
matrix C and returns a SolveResult rather than raising on unreachable
targets.  One thin SVD of C, cut where numerical_rank cuts, decides the
range test: x_f is reachable when its part off C's range is at most
FEAS_TOL * ||x_f||.  The 1-norm and infinity-norm problems are linear
programs run through the in-house simplex; the 2-norm problem is closed
form from the SVD; the combined 1-norm + 2-norm objective is handled by an
operator-splitting iteration whose proximal step composes soft
thresholding with a radial shrink.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .simplex import solve_standard_lp
from .systems import _rank_cut

__all__ = [
    "SolveResult",
    "OPTIMAL",
    "INFEASIBLE",
    "MAX_ITERATIONS",
    "FEAS_TOL",
    "check_weights",
    "min_energy",
    "min_fuel",
    "min_inf_norm",
    "min_fuel_energy",
]

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
MAX_ITERATIONS = "max_iterations"

# part of an equality target that may lie off C's range (times ||target||);
# the worst-case analyses read the same cut for their value thresholds
FEAS_TOL = 1e-9

# operator-splitting iteration cap and scaled stopping tolerance
_ADMM_MAX_ITER = 200_000
_ADMM_TOL = 1e-9


@dataclass
class SolveResult:
    status: str
    u: np.ndarray | None = None
    value: float | None = None
    residual: float | None = None
    duality_gap: float | None = None
    iterations: int = 0

    @property
    def feasible(self) -> bool:
        return self.status != INFEASIBLE


def _prep(Cmat, rhs):
    C = np.atleast_2d(np.asarray(Cmat, dtype=float))
    v = np.asarray(rhs, dtype=float).ravel()
    if v.size != C.shape[0]:
        raise ValueError(f"target dimension {v.size} != {C.shape[0]} rows")
    return C, v


def _factor(C: np.ndarray):
    """One thin SVD of C: U_r, s_r, V_r for the singular values above the rank cut."""
    U, s, Vt = np.linalg.svd(C, full_matrices=False)
    r = int(np.count_nonzero(s > _rank_cut(C.shape, s)))
    return U[:, :r], s[:r], Vt[:r].T


def _range_test(U: np.ndarray, v: np.ndarray):
    """U'v, and whether v (or each row of v) is off span(U) by at most FEAS_TOL * ||v||."""
    c = v @ U
    return c, np.linalg.norm(v - c @ U.T, axis=-1) <= FEAS_TOL * np.linalg.norm(v, axis=-1)


def min_energy(Cmat, x_f) -> SolveResult:
    """Minimum 2-norm u = V_r (U_r' x_f / s_r) with C u = x_f; the residual is a report."""
    C, xf = _prep(Cmat, x_f)
    U, s, V = _factor(C)
    coeff, reached = _range_test(U, xf)
    u = V @ (coeff / s)
    residual = float(np.linalg.norm(C @ u - xf))
    if not reached:
        return SolveResult(INFEASIBLE, residual=residual)
    return SolveResult(OPTIMAL, u=u, value=float(np.linalg.norm(u)), residual=residual)


def _solve_lp(c, A, b, C: np.ndarray, target: np.ndarray, scale: float) -> SolveResult:
    """Solve the LP scaled by 1/scale whose first 2q columns are u+ and u-.

    A target off C's range is infeasible without an LP.  The result is
    unscaled; the duality gap comes from the simplex dual certificate and
    the residual is taken against the caller's target.
    """
    if not _range_test(_factor(C)[0], target)[1]:
        return SolveResult(INFEASIBLE)
    q = C.shape[1]
    lp = solve_standard_lp(c, A, b)
    if lp.status == "infeasible":
        return SolveResult(INFEASIBLE, iterations=lp.iterations)
    if lp.status != "optimal":
        return SolveResult(MAX_ITERATIONS, iterations=lp.iterations)
    u = scale * (lp.x[:q] - lp.x[q : 2 * q])
    value = scale * lp.value
    dual_value = scale * float(b @ lp.dual)
    gap = abs(value - dual_value) / max(1.0, abs(value))
    residual = float(np.linalg.norm(C @ u - target))
    return SolveResult(
        OPTIMAL,
        u=u,
        value=value,
        residual=residual,
        duality_gap=gap,
        iterations=lp.iterations,
    )


def min_fuel(Cmat, x_f, input_bound: float | None = None) -> SolveResult:
    """Minimum 1-norm u with C u = x_f and optionally |u_i| <= input_bound.

    Split u into positive/negative parts and solve the equality-form LP.
    """
    if input_bound is not None and input_bound <= 0:
        raise ValueError("input_bound must be positive")
    C, xf = _prep(Cmat, x_f)
    n, q = C.shape
    scale = float(np.linalg.norm(xf))
    if scale == 0.0:
        return SolveResult(OPTIMAL, u=np.zeros(q), value=0.0, residual=0.0, duality_gap=0.0)
    xf_s = xf / scale
    bound_s = None if input_bound is None else input_bound / scale

    if bound_s is None:
        A = np.hstack([C, -C])
        b = xf_s
        c = np.ones(2 * q)
    else:
        # extra rows u+_i + u-_i + w_i = bound keep |u_i| within the box
        A = np.block(
            [
                [C, -C, np.zeros((n, q))],
                [np.eye(q), np.eye(q), np.eye(q)],
            ]
        )
        b = np.concatenate([xf_s, np.full(q, bound_s)])
        c = np.concatenate([np.ones(2 * q), np.zeros(q)])
    return _solve_lp(c, A, b, C, xf, scale)


def min_inf_norm(Cmat, b) -> SolveResult:
    """Minimum infinity-norm u with C u = b (LP with a shared peak variable)."""
    C, rhs = _prep(Cmat, b)
    n, q = C.shape
    scale = float(np.linalg.norm(rhs))
    if scale == 0.0:
        return SolveResult(OPTIMAL, u=np.zeros(q), value=0.0, residual=0.0, duality_gap=0.0)
    rhs_s = rhs / scale
    # columns: u+ (q), u- (q), peak t (1), slack w (q)
    A = np.block(
        [
            [C, -C, np.zeros((n, 1)), np.zeros((n, q))],
            [np.eye(q), np.eye(q), -np.ones((q, 1)), np.eye(q)],
        ]
    )
    bb = np.concatenate([rhs_s, np.zeros(q)])
    c = np.zeros(3 * q + 1)
    c[2 * q] = 1.0
    return _solve_lp(c, A, bb, C, rhs, scale)


def _shrink(v: np.ndarray, l1: float, l2: float) -> np.ndarray:
    # prox of l1*||.||_1 + l2*||.||_2: soft threshold, then radial shrink
    if l1 > 0.0:
        v = np.sign(v) * np.maximum(np.abs(v) - l1, 0.0)
    if l2 > 0.0:
        nv = np.linalg.norm(v)
        if nv <= l2:
            return np.zeros_like(v)
        v = (1.0 - l2 / nv) * v
    return v


def check_weights(gamma1: float, gamma2: float) -> None:
    """Reject fuel+energy weights unless gamma1, gamma2 >= 0 and gamma1 + gamma2 > 0."""
    if gamma1 < 0 or gamma2 < 0 or gamma1 + gamma2 <= 0:
        raise ValueError("need gamma1, gamma2 >= 0 with gamma1 + gamma2 > 0")


def min_fuel_energy(Cmat, x_f, gamma1: float, gamma2: float) -> SolveResult:
    """Minimize gamma1*||u||_1 + gamma2*||u||_2 subject to C u = x_f.

    Operator splitting between the affine constraint set (projection with
    C's right singular vectors V_r) and the norm objective (proximal shrink),
    with over-relaxation and residual-balanced penalty adaptation.  The
    reported u is the projected, exactly feasible iterate.
    """
    check_weights(gamma1, gamma2)
    C, xf = _prep(Cmat, x_f)
    q = C.shape[1]
    scale = float(np.linalg.norm(xf))
    if scale == 0.0:
        return SolveResult(OPTIMAL, u=np.zeros(q), value=0.0, residual=0.0)
    U, s, V = _factor(C)
    coeff, reached = _range_test(U, xf / scale)
    if not reached:
        return SolveResult(INFEASIBLE)
    u_part = V @ (coeff / s)

    def project(v):
        return v - V @ (V.T @ v) + u_part

    def objective(v):
        return gamma1 * float(np.abs(v).sum()) + gamma2 * float(np.linalg.norm(v))

    rho = 1.0
    alpha = 1.6
    z = u_part.copy()
    w = np.zeros(q)
    obj_window: list[float] = []
    u = u_part
    for it in range(1, _ADMM_MAX_ITER + 1):
        u = project(z - w)
        u_relaxed = alpha * u + (1.0 - alpha) * z
        z_new = _shrink(u_relaxed + w, gamma1 / rho, gamma2 / rho)
        w = w + u_relaxed - z_new
        primal = float(np.linalg.norm(u - z_new))
        dual = rho * float(np.linalg.norm(z_new - z))
        z = z_new
        obj = objective(u)
        obj_window.append(obj)
        if len(obj_window) > 25:
            obj_window.pop(0)
        ref = max(1.0, float(np.linalg.norm(u)))
        if primal <= _ADMM_TOL * ref and dual <= _ADMM_TOL * ref:
            stable = max(obj_window) - min(obj_window) <= 1e-7 * max(1.0, obj)
            if stable:
                break
        if it % 50 == 0:
            if primal > 10.0 * dual:
                rho *= 2.0
                w /= 2.0
            elif dual > 10.0 * primal:
                rho /= 2.0
                w *= 2.0
    else:
        u_final = scale * project(z)
        return SolveResult(
            MAX_ITERATIONS,
            u=u_final,
            value=objective(u_final),
            residual=float(np.linalg.norm(C @ u_final - xf)),
            iterations=_ADMM_MAX_ITER,
        )

    u_final = scale * u
    return SolveResult(
        OPTIMAL,
        u=u_final,
        value=objective(u_final),
        residual=float(np.linalg.norm(C @ u_final - xf)),
        iterations=it,
    )
