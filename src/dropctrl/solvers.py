"""Per-signal input-design solvers.

Each routine targets   C u = x_f   for a signal-masked controllability
matrix C and returns a SolveResult rather than raising on unreachable
targets.  Every U, s and V of C comes from one factorization (Chan, ACM
TOMS 8, 1982): C' = Q R, then the SVD R' = U S W' of the small triangle,
so C = U S (Q W)'; a stack of matrices takes one QR call and one SVD
call, and the rank cut is numerical_rank's for C's own shape.  The range
test accepts x_f when its part off C's range is at most FEAS_TOL *
||x_f||.  The 1-norm and infinity-norm problems are linear programs in
the rows U_r'C, which have full rank, so past the range test every
program is feasible and bounded; the interior-point solver in simplex.py
certifies them, and a result without its certificate is MAX_ITERATIONS.
peak_within asks only whether the least peak input is within a bound:
the least-norm input V_r (U_r'x_f / s_r) is a witness, or a
weak-duality bound, counted against its own rounding, rules the bound
out; the LP runs only in between, and stops as soon as the same bound at
its dual iterate rules the bound out.  The combined 1-norm + 2-norm
objective is an operator-splitting iteration that projects with V_r.
The scans decide stacks: II's screens and III-fuel's range tests are
array code per rank group, and the fuel LPs of one rank share a stacked
interior-point iteration, in which each ends as it would alone, so
peak_within and min_fuel are the one-matrix case.  The least-norm value
needs only U_r and s_r, which C's zero columns (dropped steps, inputs
with a zero column of B) do not change, so III-energy and IV factor C's
nonzero columns alone and form no Q (_factor_stack); min_energy takes
its value from that code and its input from Q W on those columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .simplex import _solve_stack, solve_standard_lp
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

# constraint-matrix entries per stacked interior-point solve in III-fuel, so
# that a stack's memory does not grow with its programs' size.  At study-lp's
# shape (n=10, m=7, T=12, k=1: 10 x 168 programs; bench/run.py --seconds 10,
# medians of five and four alternating rounds in two sessions), stacks of 7
# programs read run_s 0.310 and 0.286 s, of 14 0.308 and 0.238 s and of 28
# 0.298 and 0.253 s, and peak_rss_mb 41.6, 41.9 and 43.0 MB in the second
# session (41.45 MB solving one program at a time): 14 is as fast as 28 at a
# third of its memory.  A program with input_bound's box rows (94 x 252 there)
# is solved alone: a bounded call took 325 ms alone against 273-282 ms in
# stacks of 2 to 14, whose traced peaks grew from 1.1 to 12.5 MB
_LP_STACK_ENTRIES = 14 * 10 * 168


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
    which change neither U nor s.  This is _factors without Q, so without
    V: the rank r counts the leading singular values above the rank cut
    of C's own shape, and U_r and s_r are the first r columns.
    """
    U, s, _, rank = _triangle_svd(np.linalg.qr(Ct, mode="r"), shape)
    return U, s, rank


def _triangle_svd(
    R: np.ndarray, shape: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """SVDs R' = U S W' of a stack of triangles of C' = Q R, and the rank of each C of `shape`."""
    U, s, Wt = np.linalg.svd(R.swapaxes(1, 2), full_matrices=False)
    return U, s, Wt, np.count_nonzero(s > _rank_cut(shape, s), axis=1)


def _factors(Cs: np.ndarray, target: np.ndarray):
    """Each rank group of a stack Cs (N, n, q): (idx, U_r, s_r, V_r, U_r'target, reached).

    One reduced QR call C' = Q R over the stack and one SVD call of the
    triangles R' = U S W' (_triangle_svd) give C = U S (Q W)', so V = Q W
    holds C's right singular vectors; the rank cut is that of C's shape.
    idx picks the group's matrices (_ranks), and reached is _range_test's
    verdict on the one target.
    """
    Q, R = np.linalg.qr(Cs.swapaxes(1, 2))
    U, s, Wt, rank = _triangle_svd(R, Cs.shape[1:])
    for r, idx in _ranks(rank):
        coeff, reached = _range_test(U[idx, :, :r], target[None])
        V = Q[idx] @ Wt[idx, :r].swapaxes(1, 2)
        yield idx, U[idx, :, :r], s[idx, :r], V, coeff[:, 0], reached[:, 0]


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


def _zero_input(q: int) -> SolveResult:
    return SolveResult(OPTIMAL, u=np.zeros(q), value=0.0, residual=0.0, duality_gap=0.0)


def _lp_verdict(C: np.ndarray, target: np.ndarray, scale: float, b: np.ndarray, lp) -> SolveResult:
    """The design of an LP result for C u = target, its program's right side b scaled by 1 / scale.

    An LP result counts only with its certificate and a residual
    C u - target within FEAS_TOL * ||target||; anything else is
    MAX_ITERATIONS.  duality_gap is the certified gap relative to the
    value.
    """
    q = C.shape[1]
    if lp.status == "optimal":
        u = scale * (lp.x[:q] - lp.x[q : 2 * q])
        residual = float(np.linalg.norm(C @ u - target))
        if residual <= FEAS_TOL * scale:
            gap = abs(lp.value - float(b @ lp.dual)) / abs(lp.value) if lp.value else 0.0
            return SolveResult(OPTIMAL, u, scale * lp.value, residual, gap, lp.iterations)
    return SolveResult(MAX_ITERATIONS, iterations=lp.iterations)


def min_fuel(Cmat, x_f, input_bound: float | None = None) -> SolveResult:
    """Minimum 1-norm u with C u = x_f and optionally |u_i| <= input_bound.

    Split u into positive/negative parts and solve the equality-form LP.
    An infinite bound is no bound, and a NaN bound is refused.  With a
    finite bound, the program is feasible exactly when the least peak input
    is at most the bound, so peak_within's tests decide that first: a peak
    certified above input_bound * (1 + FEAS_TOL) is INFEASIBLE, a peak that
    is not certified is returned as it is, and the box widens to a
    witness's peak that lies within the tolerance above the bound.  The
    range test, the screens and both LPs share one factor of C.  This is
    the one-matrix case of the worst-case scan's evaluator, _min_fuel_rows.
    """
    C, xf = _prep(Cmat, x_f)
    return _min_fuel_rows(C[None], xf, input_bound, _lp_counters())[0]


def _lp_counters() -> dict:
    """Zeroed counters for _min_fuel_rows: LPs solved, their iterations, stacked solver calls."""
    return {"lp_solves": 0, "iterations": 0, "stacks": 0}


def _min_fuel_rows(
    Cs: np.ndarray, xf: np.ndarray, input_bound: float | None, counters: dict
) -> list[SolveResult]:
    """min_fuel of each matrix of the stack Cs against one target x_f.

    Each rank group of the stack's one factor (_factors) takes its range
    test and, with a bound, peak_within's tests (_peak_group); its rows that
    reach the fuel LP, whose rows U_r'C have the group's shape, are solved
    in stacks of at most _LP_STACK_ENTRIES constraint entries by one
    stacked interior-point iteration.  counters adds the LPs solved (the
    fuel LPs and the peak LPs of the bound's test), their iterations, and
    the calls of the LP solver they took.
    """
    if input_bound is not None and not input_bound > 0:  # NaN included
        raise ValueError("input_bound must be positive")
    if input_bound == math.inf:
        input_bound = None
    boxed = input_bound is not None
    q = Cs.shape[2]
    scale = float(np.linalg.norm(xf))
    results: list[SolveResult | None] = [None] * len(Cs)
    for idx, U, s, V, coeff, reached in _factors(Cs, xf):
        rows = np.arange(len(Cs))[idx]
        fail = [SolveResult(INFEASIBLE)] * len(rows)
        go, box = reached.copy(), np.zeros(len(rows))
        if boxed:
            peaks = _peak_group(Cs[idx], xf, input_bound, U, s, V, coeff, reached)
            for j, (by, peak) in enumerate(peaks):
                if by == "lp_solves":
                    _count_lps(counters, 1, peak.iterations)
                fail[j], go[j] = peak, peak.status == OPTIMAL
                if go[j]:
                    box[j] = max(input_bound, peak.value)
        for j in np.flatnonzero(~go).tolist():
            results[rows[j]] = fail[j]
        live = np.flatnonzero(go)
        if scale == 0.0 or not live.size:  # a zero target takes the zero input
            for j in live.tolist():
                results[rows[j]] = _zero_input(q)
            continue
        size = max(1, _LP_STACK_ENTRIES // ((U.shape[2] + boxed * q) * (2 + boxed) * q))
        for lo in range(0, len(live), size):
            j = live[lo : lo + size]
            b = coeff[j] / scale
            if boxed:
                b = np.hstack([b, np.repeat(box[j, None] / scale, q, axis=1)])
            c, A = _fuel_programs(U[j].swapaxes(1, 2) @ Cs[rows[j]], boxed)
            lps = _solve_stack(c, A, b)
            _count_lps(counters, len(lps), sum(lp.iterations for lp in lps))
            for i, bi, lp in zip(rows[j].tolist(), b, lps):
                results[i] = _lp_verdict(Cs[i], xf, scale, bi, lp)
    return results


def _count_lps(counters: dict, solves: int, iterations: int) -> None:
    counters["lp_solves"] += solves
    counters["iterations"] += iterations
    counters["stacks"] += 1


def _fuel_programs(Cr: np.ndarray, boxed: bool) -> tuple[np.ndarray, np.ndarray]:
    """c and A of the stacked fuel LPs over (u+, u-): min 1'(u+ + u-) subject to Cr (u+ - u-) = b.

    A boxed program has q more rows, u+_i + u-_i + w_i = bound over a
    slack w, which keep |u_i| within the bound of its right side.
    """
    N, r, q = Cr.shape
    if not boxed:
        return np.ones((N, 2 * q)), np.concatenate([Cr, -Cr], axis=2)
    A = np.zeros((N, r + q, 3 * q))
    A[:, :r, :q], A[:, :r, q : 2 * q] = Cr, -Cr
    A[:, r:] = np.hstack([np.eye(q)] * 3)
    return np.tile(np.concatenate([np.ones(2 * q), np.zeros(q)]), (N, 1)), A


def min_inf_norm(Cmat, b) -> SolveResult:
    """Minimum infinity-norm u with C u = b (LP with a shared peak variable)."""
    C, rhs = _prep(Cmat, b)
    [(_, [U], _, _, [coeff], [reached])] = _factors(C[None], rhs)  # the one matrix
    if not reached:
        return SolveResult(INFEASIBLE)
    return _min_inf_norm(C, rhs, U, coeff)


def _min_inf_norm(
    C: np.ndarray, rhs: np.ndarray, U: np.ndarray, coeff: np.ndarray, limit: float | None = None
) -> SolveResult:
    """min_inf_norm for a target on C's range, from the caller's U_r and coeff = U_r'rhs.

    The LP's rows are U_r'C, which have full row rank, and rhs is on C's
    range, so the LP is feasible and bounded.  With a limit, the LP stops
    as soon as its dual iterate y_1 on those rows certifies the least peak
    above the limit: _peak_lower of y = U_r y_1, since C'y = (U_r'C)'y_1.
    That result is INFEASIBLE, with the iterations the LP took.
    """
    q = C.shape[1]
    scale = float(np.linalg.norm(rhs))
    if scale == 0.0:
        return _zero_input(q)
    Cr = U.T @ C
    r = Cr.shape[0]
    # columns: u+ (q), u- (q), peak t (1), slack w (q)
    A = np.block(
        [
            [Cr, -Cr, np.zeros((r, q + 1))],
            [np.eye(q), np.eye(q), -np.ones((q, 1)), np.eye(q)],
        ]
    )
    c = np.zeros(3 * q + 1)
    c[2 * q] = 1.0
    b = np.concatenate([coeff / scale, np.zeros(q)])
    stop = None if limit is None else (lambda y: _peak_lower(C, rhs, U @ y[:r]) > limit)
    lp = solve_standard_lp(c, A, b, stop=stop)
    if lp.status == "stopped":
        return SolveResult(INFEASIBLE, iterations=lp.iterations)
    return _lp_verdict(C, rhs, scale, b, lp)


def _peak_lower(C: np.ndarray, b: np.ndarray, y: np.ndarray) -> np.ndarray:
    """A certified lower bound b'y / ||C'y||_1 on min{||u||_inf : C u = b}, for any y.

    Weak LP duality gives ||u||_inf >= b'y / ||C'y||_1 for every y and
    every u with C u = b.  The products are taken as computed, their
    rounding bounds n eps |C'||y| and n eps |b'||y| (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, sec. 3.1) counted against
    the bound, and a relative (q + 4) eps more covers the sum and the
    quotient.  The bound is exact arithmetic's for C, b and y as stored;
    the LP path accepts an input within FEAS_TOL ||b|| of b, a looser test.
    C and y may be stacks (N, n, q) and (N, n), one bound per matrix; each
    product is the one a single C and y take.
    """
    n, q = C.shape[-2:]
    y = y[..., None, :]
    norm1 = (np.abs(y @ C) + n * _EPS * (np.abs(y) @ np.abs(C))).sum(axis=(-2, -1))
    dual = (y @ b[:, None] - n * _EPS * (np.abs(y) @ np.abs(b)[:, None]))[..., 0, 0]
    ok = (dual > 0.0) & (norm1 > 0.0)
    return np.divide(dual, norm1, out=np.zeros(np.shape(dual)), where=ok) * (1.0 - (q + 4) * _EPS)


def peak_within(Cmat, b, bound: float) -> tuple[str, SolveResult]:
    """Decide whether an input u with C u = b and ||u||_inf <= bound (1 + FEAS_TOL) exists.

    Returns (by, result).  result is OPTIMAL with a witness u and its peak
    as value, INFEASIBLE when no such input exists, or MAX_ITERATIONS when
    the LP that had to decide is not certified.  by names the test that
    decided, in this order, each from the range test's one factor:
    "off_range" (b is off C's range), "upper_screen" (the least-norm input
    u2 passes the LP path's own acceptance: peak within the bound and
    ||C u2 - b|| <= FEAS_TOL ||b||), "lower_screen" (_peak_lower certifies
    the least peak above the bound) or "lp_solves" (the min_inf_norm LP,
    on the same factor, decides).  An infinite bound admits every input on
    C's range; a NaN bound is refused.  This is the one-matrix case of
    _peak_rows, which the worst-case scan runs on a stack.
    """
    C, rhs = _prep(Cmat, b)
    return _peak_rows(C[None], rhs, bound)[0]


def _peak_rows(Cs: np.ndarray, rhs: np.ndarray, bound: float) -> list[tuple[str, SolveResult]]:
    """peak_within of each matrix of the stack Cs against one target, from one factor."""
    if math.isnan(bound):
        raise ValueError("bound must not be NaN")
    verdicts: list = [None] * len(Cs)
    for idx, *factor in _factors(Cs, rhs):
        rows = np.arange(len(Cs))[idx].tolist()
        for i, verdict in zip(rows, _peak_group(Cs[idx], rhs, bound, *factor)):
            verdicts[i] = verdict
    return verdicts


def _peak_group(Cs, rhs, bound, U, s, V, coeff, reached) -> Iterator[tuple[str, SolveResult]]:
    """peak_within of each matrix of one rank group, from their factor and range test.

    The screens are array code over the group.  The upper screen tries the
    least-norm inputs u2 = V_r (coeff / s_r); the lower screen takes
    _peak_lower at y = U_r (coeff / s_r^2), for which C'y is u2 up to
    rounding.  The LP then only decides, one matrix at a time: it stops at
    the first dual iterate whose _peak_lower lies above the limit
    bound * (1 + FEAS_TOL), and only an LP that no iterate rules out runs
    on to its certified optimum.
    """
    limit = bound * (1.0 + FEAS_TOL)
    u2 = (V @ (coeff / s)[..., None])[..., 0]
    peak = np.abs(u2).max(axis=1, initial=0.0)
    residual = np.linalg.norm((Cs @ u2[..., None])[..., 0] - rhs, axis=1)
    upper = reached & (peak <= limit) & (residual <= FEAS_TOL * np.linalg.norm(rhs))
    lower = reached & ~upper
    y = (U[lower] @ (coeff[lower] / s[lower] ** 2)[..., None])[..., 0]
    lower[lower] = _peak_lower(Cs[lower], rhs, y) > limit
    for i in range(len(Cs)):
        if not reached[i]:
            yield "off_range", SolveResult(INFEASIBLE)
        elif upper[i]:
            yield "upper_screen", SolveResult(OPTIMAL, u2[i], float(peak[i]), float(residual[i]))
        elif lower[i]:
            yield "lower_screen", SolveResult(INFEASIBLE)
        else:
            res = _min_inf_norm(Cs[i], rhs, U[i], coeff[i], limit)
            if res.status == OPTIMAL and res.value > limit:
                res = SolveResult(INFEASIBLE, iterations=res.iterations)
            yield "lp_solves", res


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
    [(_, _, [s], [V], [coeff], [reached])] = _factors(C[None], xf / scale)  # the one matrix
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
