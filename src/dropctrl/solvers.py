"""Per-signal input-design solvers.

Each routine targets   C u = x_f   for a signal-masked controllability
matrix C and returns a SolveResult rather than raising on unreachable
targets.  One thin SVD of C, cut where numerical_rank cuts, decides the
range test: x_f is reachable when its part off C's range is at most
FEAS_TOL * ||x_f||.  The 1-norm and infinity-norm problems are linear
programs in the rows U_r'C of that SVD, so their rows have full rank and,
past the range test, every program is feasible and bounded; the
interior-point solver in simplex.py certifies them, and a result without
its certificate is MAX_ITERATIONS.  peak_within asks only whether the
least peak input is within a bound, and most of the time the same SVD
answers: the least-norm input is a witness, or a weak-duality bound,
counted against its own rounding, rules the bound out; the LP runs only
in between.  The 2-norm problem is closed form from
the SVD; the combined 1-norm + 2-norm objective is handled by an
operator-splitting iteration whose proximal step composes soft
thresholding with a radial shrink.  Each LP or splitting solve takes
one SVD of C: its range test, screens and LPs share it.  The least-norm value needs only
U_r and s_r, which the n x n triangle R' of C' = Q R carries, and C's
zero columns (the blocks of dropped steps, the inputs with a zero column
of B) change neither, so the QR is taken of C's nonzero columns alone
and the rank cut stays that of C's own shape: the worst-case scan
factors a chunk of controllability matrices, with one count of
successful steps, by one QR call and one SVD call of the triangles,
never forms their right singular vectors, and then cuts and tests the
matrices of each rank together.  min_energy takes its status and value
from that code on one matrix, and its input from the same triangle with
Q, zero on the dropped columns.
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
    "peak_within",
    "min_fuel_energy",
]

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
MAX_ITERATIONS = "max_iterations"

# part of an equality target that may lie off C's range (times ||target||);
# the worst-case analyses read the same cut for their value thresholds
FEAS_TOL = 1e-9
_EPS = float(np.finfo(float).eps)

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


def _factor_stack(
    Ct: np.ndarray, shape: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin U and s of each matrix C of `shape` (n, q), and its rank r, from a stack Ct of their C'.

    Ct has shape (N, q', n): each matrix's transpose C', less any zero rows,
    which change neither U nor s.  C' = Q R gives C = R'Q', so the small
    triangle R' (n x n when q' >= n) has C's U and s, and its SVD costs no
    right singular vectors of C (Chan, ACM TOMS 8, 1982).  Each step is one
    call over the stack.  r counts the singular values above the rank cut
    of C's own shape, the one numerical_rank applies; they lead, so U_r and
    s_r are the first r columns.
    """
    U, s, _, rank = _triangle_svd(np.linalg.qr(Ct, mode="r"), shape)
    return U, s, rank


def _triangle_svd(
    R: np.ndarray, shape: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """SVDs R' = U S W' of a stack of triangles of C' = Q R, and the rank of each C of `shape`."""
    U, s, Wt = np.linalg.svd(R.swapaxes(1, 2), full_matrices=False)
    return U, s, Wt, np.count_nonzero(s > _rank_cut(shape, s), axis=1)


def _factor(C: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """U_r, s_r, V_r of one matrix's thin SVD, cut where numerical_rank cuts."""
    U, s, Vt = np.linalg.svd(C, full_matrices=False)
    r = np.count_nonzero(s > _rank_cut(C.shape, s))
    return U[:, :r], s[:r], Vt[:r].T


def _ranks(rank: np.ndarray) -> list[tuple[int, np.ndarray | slice]]:
    """(r, the matrices of rank r) for each rank r in a stack, as indices or a slice of all.

    Array code on the matrices of one rank takes the same products, with
    the same shapes, as code on each matrix's U_r and s_r alone.
    """
    ranks = sorted(set(rank.tolist()))
    if len(ranks) == 1:  # the common case: a view of the stack, not a copy
        return [(ranks[0], slice(None))]
    return [(r, np.flatnonzero(rank == r)) for r in ranks]


def _range_test(U: np.ndarray, v: np.ndarray):
    """U'v, and whether v (or each row of v) is off span(U) by at most FEAS_TOL * ||v||.

    U may be a stack (N, n, r); then the results are stacks too.
    """
    c = v @ U
    off = np.linalg.norm(v - c @ U.swapaxes(-1, -2), axis=-1)
    return c, off <= FEAS_TOL * np.linalg.norm(v, axis=-1)


def min_energy(Cmat, x_f) -> SolveResult:
    """Minimum 2-norm u with C u = x_f; the residual is a report.

    Status and value are the one-matrix case of _least_norm, which the
    worst-case scan runs on a stack of controllability matrices.  Like the
    scan, it factors C's nonzero columns only: their reduced C_+' = Q R
    has the triangle R of _factor_stack, bit for bit, and the rank cut is
    that of C's own shape.  The input is u = Q W_r (U_r' x_f / s_r) on
    those columns, from the SVD R' = U S W' (C_+ = U S (Q W)', so Q W holds
    C_+'s right singular vectors), and zero on the others.
    """
    C, xf = _prep(Cmat, x_f)
    live = C.any(axis=0)
    Q, R = np.linalg.qr(C[:, live].T)
    U, s, Wt, rank = _triangle_svd(R[None], C.shape)
    value, reached = _least_norm(U, s, rank, xf)
    r = rank[0]
    u = np.zeros(C.shape[1])
    u[live] = Q @ (Wt[0, :r].T @ (xf @ U[0, :, :r] / s[0, :r]))
    residual = float(np.linalg.norm(C @ u - xf))
    if reached[0]:
        return SolveResult(OPTIMAL, u=u, value=float(value[0]), residual=residual)
    return SolveResult(INFEASIBLE, residual=residual)


def _least_norm(
    U: np.ndarray, s: np.ndarray, rank: np.ndarray, xf: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Least input norms ||U_r' x_f / s_r|| of a stack's factor, and whether each matrix reaches x_f.

    U, s and rank are _factor_stack's.  The least-norm input
    V_r (U_r' x_f / s_r) has that norm because V_r has orthonormal columns,
    so V_r is never formed.  Each norm is a stacked vector-vector product,
    the dot that np.linalg.norm takes of one vector.
    """
    norms = np.empty(len(U))
    reached = np.empty(len(U), dtype=bool)
    for r, idx in _ranks(rank):
        # x_f as a one-row matrix, so that each matrix of the stack sees the 1-D product
        coeff, ok = _range_test(U[idx, :, :r], xf[None])
        reached[idx] = ok[:, 0]
        y = coeff[:, 0] / s[idx, :r]
        norms[idx] = np.sqrt((y[:, None, :] @ y[:, :, None])[:, 0, 0])
    return norms, reached


def _solve_lp(
    C: np.ndarray, target: np.ndarray, U: np.ndarray, coeff: np.ndarray, program
) -> SolveResult:
    """Solve program(U_r'C, U_r'target / ||target||), the LP whose first 2q columns are u+ and u-.

    U and coeff = U_r'target are the caller's factor and range test, and
    target is on C's range, so U_r'C has full row rank and the LP is
    feasible and bounded.  An LP result counts only with its certificate
    and a residual C u - target within FEAS_TOL * ||target||; anything else
    is MAX_ITERATIONS.  duality_gap is the certified gap relative to the
    value.
    """
    q = C.shape[1]
    scale = float(np.linalg.norm(target))
    if scale == 0.0:
        return SolveResult(OPTIMAL, u=np.zeros(q), value=0.0, residual=0.0, duality_gap=0.0)
    c, A, b = program(U.T @ C, coeff / scale)
    lp = solve_standard_lp(c, A, b)
    if lp.status == "optimal":
        u = scale * (lp.x[:q] - lp.x[q : 2 * q])
        residual = float(np.linalg.norm(C @ u - target))
        if residual <= FEAS_TOL * scale:
            gap = abs(lp.value - float(b @ lp.dual)) / abs(lp.value) if lp.value else 0.0
            return SolveResult(OPTIMAL, u, scale * lp.value, residual, gap, lp.iterations)
    return SolveResult(MAX_ITERATIONS, iterations=lp.iterations)


def _reach(C: np.ndarray, target: np.ndarray):
    """C's factor U_r, s_r, V_r and coeff = U_r'target, or None when target is off C's range."""
    U, s, V = _factor(C)
    coeff, reached = _range_test(U, target)
    return (U, s, V, coeff) if reached else None


def min_fuel(Cmat, x_f, input_bound: float | None = None) -> SolveResult:
    """Minimum 1-norm u with C u = x_f and optionally |u_i| <= input_bound.

    Split u into positive/negative parts and solve the equality-form LP.
    With a bound, the program is feasible exactly when the least peak input
    is at most the bound, so peak_within's tests decide that first: a peak
    certified above input_bound * (1 + FEAS_TOL) is INFEASIBLE, a peak that
    is not certified is returned as it is, and the box widens to a
    witness's peak that lies within the tolerance above the bound.  The
    range test, the screens and both LPs share one SVD of C.
    """
    if input_bound is not None and input_bound <= 0:
        raise ValueError("input_bound must be positive")
    C, xf = _prep(Cmat, x_f)
    q = C.shape[1]
    factor = _reach(C, xf)
    if factor is None:
        return SolveResult(INFEASIBLE)
    U, _, _, coeff = factor
    if input_bound is None:
        return _solve_lp(C, xf, U, coeff, lambda Cr, b: (np.ones(2 * q), np.hstack([Cr, -Cr]), b))
    peak = _peak_within(C, xf, input_bound, *factor)[1]
    if peak.status != OPTIMAL:
        return peak
    bound = max(input_bound, peak.value)

    def program(Cr, b):
        # extra rows u+_i + u-_i + w_i = bound keep |u_i| within the box
        A = np.block([[Cr, -Cr, np.zeros((Cr.shape[0], q))], [np.eye(q), np.eye(q), np.eye(q)]])
        c = np.concatenate([np.ones(2 * q), np.zeros(q)])
        return c, A, np.concatenate([b, np.full(q, bound / np.linalg.norm(xf))])

    return _solve_lp(C, xf, U, coeff, program)


def min_inf_norm(Cmat, b) -> SolveResult:
    """Minimum infinity-norm u with C u = b (LP with a shared peak variable)."""
    C, rhs = _prep(Cmat, b)
    factor = _reach(C, rhs)
    if factor is None:
        return SolveResult(INFEASIBLE)
    U, _, _, coeff = factor
    return _min_inf_norm(C, rhs, U, coeff)


def _min_inf_norm(C: np.ndarray, rhs: np.ndarray, U: np.ndarray, coeff: np.ndarray) -> SolveResult:
    """min_inf_norm for a target on C's range, from the caller's U_r and coeff = U_r'rhs."""
    q = C.shape[1]

    def program(Cr, br):
        # columns: u+ (q), u- (q), peak t (1), slack w (q)
        A = np.block(
            [
                [Cr, -Cr, np.zeros((Cr.shape[0], q + 1))],
                [np.eye(q), np.eye(q), -np.ones((q, 1)), np.eye(q)],
            ]
        )
        c = np.zeros(3 * q + 1)
        c[2 * q] = 1.0
        return c, A, np.concatenate([br, np.zeros(q)])

    return _solve_lp(C, rhs, U, coeff, program)


def _peak_bounds(C, b, U, coeff, s, V) -> tuple[float, np.ndarray]:
    """A certified lower bound on min{||u||_inf : C u = b}, and the least-norm input u2.

    coeff = U_r'b.  Weak LP duality gives ||u||_inf >= b'y / ||C'y||_1 for
    every y and every u with C u = b; y = U_r (coeff / s_r^2) makes C'y the
    least-norm input u2 = V_r (coeff / s_r) up to rounding.  The products
    are taken as computed, their rounding bounds n eps |C'||y| and
    n eps |b'||y| (Higham, Accuracy and Stability of Numerical Algorithms,
    2002, sec. 3.1) counted against the bound, and a relative (q + 4) eps
    more covers the sum and the quotient.  The bound is exact arithmetic's
    for C and b as stored; the LP path accepts an input within
    FEAS_TOL ||b|| of b, a looser test.
    """
    n, q = C.shape
    u2 = V @ (coeff / s)
    y = U @ (coeff / s**2)
    norm1 = float((np.abs(y @ C) + n * _EPS * (np.abs(y) @ np.abs(C))).sum())
    dual = float(b @ y) - n * _EPS * float(np.abs(b) @ np.abs(y))
    if dual <= 0.0 or norm1 <= 0.0:
        return 0.0, u2
    return dual / norm1 * (1.0 - (q + 4) * _EPS), u2


def peak_within(Cmat, b, bound: float) -> tuple[str, SolveResult]:
    """Decide whether an input u with C u = b and ||u||_inf <= bound (1 + FEAS_TOL) exists.

    Returns (by, result).  result is OPTIMAL with a witness u and its peak
    as value, INFEASIBLE when no such input exists, or MAX_ITERATIONS when
    the LP that had to decide is not certified.  by names the test that
    decided, in this order, each from the range test's one SVD:
    "off_range" (b is off C's range), "upper_screen" (the least-norm input
    u2 passes the LP path's own acceptance: peak within the bound and
    ||C u2 - b|| <= FEAS_TOL ||b||), "lower_screen" (_peak_bounds certifies
    the least peak above the bound) or "lp_solves" (the min_inf_norm LP,
    on the same SVD, decides).
    """
    C, rhs = _prep(Cmat, b)
    factor = _reach(C, rhs)
    if factor is None:
        return "off_range", SolveResult(INFEASIBLE)
    return _peak_within(C, rhs, bound, *factor)


def _peak_within(C, rhs, bound, U, s, V, coeff) -> tuple[str, SolveResult]:
    """peak_within for a target on C's range, from the caller's factor and coeff = U_r'rhs."""
    limit = bound * (1.0 + FEAS_TOL)
    lower, u2 = _peak_bounds(C, rhs, U, coeff, s, V)
    peak = float(np.abs(u2).max(initial=0.0))
    residual = float(np.linalg.norm(C @ u2 - rhs))
    if peak <= limit and residual <= FEAS_TOL * float(np.linalg.norm(rhs)):
        return "upper_screen", SolveResult(OPTIMAL, u=u2, value=peak, residual=residual)
    if lower > limit:
        return "lower_screen", SolveResult(INFEASIBLE)
    res = _min_inf_norm(C, rhs, U, coeff)
    if res.status == OPTIMAL and res.value > limit:
        return "lp_solves", SolveResult(INFEASIBLE, iterations=res.iterations)
    return "lp_solves", res


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
