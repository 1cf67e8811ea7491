"""Per-signal input-design solvers.

Each routine targets   C u = x_f   for a signal-masked controllability
matrix C and returns a SolveResult rather than raising on unreachable
targets.  Every U, s and V of C comes from one factorization (Chan, ACM
TOMS 8, 1982): C' = Q R, then the SVD R' = U S W' of the small triangle,
so C = U S (Q W)'; the rank cut is numerical_rank's for C's own shape,
and the range test accepts x_f when its part off C's range is at most
FEAS_TOL * ||x_f||.  Past it every problem is feasible and bounded, and
a result is OPTIMAL only with a certificate (primal residual, dual
feasible point and gap, each within FEAS_TOL), else MAX_ITERATIONS: the
1-norm and infinity-norm problems are LPs in the full-rank rows U_r'C
for simplex.py, and the weighted 1-norm + 2-norm mix takes a barrier
method on its dual and a closed-form polish of the support that
suggests.  peak_within tries a least-norm witness and a weak-duality
bound before its LP.  The scans decide stacks, one rank group at a time
in array code, and the one-matrix functions are their case: III-fuel's
LPs of one rank share a stacked iteration in which each ends as it
would alone, and III-energy and IV factor C's nonzero columns alone and
read a triangle certified full rank (_full_rank_screen) through its
inverse, so that only the others take the SVD call (_least_norm_groups).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from .simplex import _solve_stack, solve_standard_lp
from .systems import _finite, _rank_cut

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

# fuel+energy's dual barrier solve: the Newton steps a row may take, the
# squared Newton decrement that ends a centring, and what its counters count
_NEWTON_STEPS = 500
_CENTRED = 1e-10
_FE_COUNTERS = ("rows", "newton_steps", "polishes")

# constraint-matrix entries per stacked interior-point solve in III-fuel, so
# that a stack's memory does not grow with its programs' size: 14 of
# study-lp's 10 x 168 programs, as fast as 28 at a third of the memory; a
# program with input_bound's box rows is solved alone (ROADMAP, set aside)
_LP_STACK_ENTRIES = 14 * 10 * 168


@dataclass
class SolveResult:
    status: str
    u: np.ndarray | None = None
    value: float | None = None
    residual: float | None = None
    duality_gap: float | None = None
    iterations: int = 0


def _prep(Cmat, rhs, name: str) -> tuple[np.ndarray, np.ndarray]:
    """A one-matrix solver's C and target, refused by name unless finite and of C's row count."""
    C = np.atleast_2d(_finite(Cmat, "Cmat"))
    return C, _finite(rhs, name, size=C.shape[0])


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

    Status and value are the one-matrix case of _least_norm_groups, which
    the worst-case scan runs on a stack of controllability matrices.  Like
    the scan, it factors C's nonzero columns only, C_+' = Q R, with the
    rank cut of C's own shape.  A triangle that the screen certifies full
    rank gives u = Q R'^-1 x_f on those columns (C_+ = R'Q', so
    C_+^+ = Q R'^-1); any other gives u = Q W_r (U_r' x_f / s_r) from the
    SVD R' = U S W' (C_+ = U S (Q W)', so Q W holds C_+'s right singular
    vectors).  u is zero on the other columns.
    """
    C, xf = _prep(Cmat, x_f, "x_f")
    live = C.any(axis=0)
    Q, R = np.linalg.qr(C[:, live].T)
    [(_, Y, reached, Wt)] = _least_norm_groups(R[None], C.shape, xf[None])  # the one matrix
    y = Y[0, 0]
    u = np.zeros(C.shape[1])
    u[live] = Q @ (y if Wt is None else Wt[0].T @ y)
    residual = float(np.linalg.norm(C @ u - xf))
    if reached[0, 0]:
        return SolveResult(OPTIMAL, u=u, value=float(_norms(Y[:, 0])[0]), residual=residual)
    return SolveResult(INFEASIBLE, residual=residual)


def _full_rank_screen(R: np.ndarray, shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Which triangles R of a stack certify their C of `shape` full rank, and those triangles' inverses.

    R is the stack (N, p, n) of triangles of C_+' = Q R.  A square R with
    1 / ||R^-1||_F > 2 max(shape) eps ||R||_F has rank n under
    _triangle_svd's cut max(shape) eps s_max, since s_min >= 1 / ||R^-1||_F
    and s_max <= ||R||_F.  The factor 2 covers the rounding of the
    computed inverse: at the margin cond(R) <= 1 / (2 max(shape) eps), so
    its norm errs by at most about n eps cond(R) <= 1/2 relative (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 8 and
    14), and s_min still lies above the cut.  A wide R (p < n), a zero on
    R's diagonal and an inverse that overflows or is not finite certify
    nothing; the inverses are one back substitution over the stack
    (_triangular_inverse).
    """
    N, p, n = R.shape
    full = np.zeros(N, dtype=bool)
    if p < n:
        return full, np.empty((0, n, n))
    invertible = np.diagonal(R, axis1=1, axis2=2).all(axis=1)
    Ri = R[invertible]
    with np.errstate(over="ignore", invalid="ignore"):
        inv = _triangular_inverse(Ri)
        cut = _rank_cut(shape, np.linalg.norm(Ri, axis=(1, 2))[:, None])[:, 0]
        certified = 1.0 / np.linalg.norm(inv, axis=(1, 2)) > 2.0 * cut
    full[invertible] = certified
    return full, inv[certified]


def _triangular_inverse(R: np.ndarray) -> np.ndarray:
    """The inverses of a stack (N, n, n) of upper triangles with no zero on their diagonals.

    Back substitution for R X = I, one stacked row product per row of X
    from the last up: X[i, i:] = (e_i - R[i, i+1:] X[i+1:, i:]) / R[i, i].
    Each column is a triangular solve, so R X = I holds to within
    n eps |R| |X| (Higham, ch. 8), the bound an LU inverse meets.
    """
    n = R.shape[-1]
    X = np.zeros_like(R)
    e = np.eye(n)
    for i in reversed(range(n)):
        below = R[:, i, None, i + 1 :] @ X[:, i + 1 :, i:]
        X[:, i, i:] = (e[i, i:] - below[:, 0]) / R[:, i, i, None]
    return X


def _least_norm_groups(R: np.ndarray, shape: tuple[int, ...], targets: np.ndarray):
    """Least-norm coordinates of the targets for each triangle R of C_+' = Q R, by group.

    Yields (idx, Y, reached, Wt): idx picks the group's triangles of the
    stack R, Y (len(idx), k, w) holds each triangle's coordinates of the k
    rows of targets, reached (len(idx), k) whether each target is on C's
    range, and ||Y[i, j]|| is the least input norm of target j.  The
    triangles that _full_rank_screen certifies come first, as one group
    with Y = targets R^-1 (the rows of R'^-1 v), every target reached and
    Wt None: the least-norm input is Q Y[i, j].  The others take one
    _triangle_svd call and come in groups of one rank r, with
    Y = U_r'v / s_r, reached from _range_test and Wt the first r rows of
    W': the input is Q Wt[i]' Y[i, j].
    """
    full, inv = _full_rank_screen(R, shape)
    if full.any():
        yield np.flatnonzero(full), targets @ inv, np.ones((len(inv), len(targets)), bool), None
    rest = np.flatnonzero(~full)
    if rest.size:
        U, s, Wt, rank = _triangle_svd(R[rest], shape)
        for r, idx in _ranks(rank):
            coeff, reached = _range_test(U[idx, :, :r], targets)
            yield rest[idx], coeff / s[idx, None, :r], reached, Wt[idx, :r]


def _norms(Y: np.ndarray) -> np.ndarray:
    """The 2-norms of the rows of Y (N, w), each the dot that np.linalg.norm takes of one vector."""
    return np.sqrt((Y[:, None, :] @ Y[:, :, None])[:, 0, 0])


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
    C, xf = _prep(Cmat, x_f, "x_f")
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
    C, rhs = _prep(Cmat, b, "b")
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
    C, rhs = _prep(Cmat, b, "b")
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


def check_weights(gamma1: float, gamma2: float) -> None:
    """Reject fuel+energy weights unless gamma1, gamma2 are finite, >= 0 and not both 0."""
    for name, gamma in (("gamma1", gamma1), ("gamma2", gamma2)):
        if not (math.isfinite(gamma) and gamma >= 0):  # NaN included
            raise ValueError(f"{name} must be finite and >= 0, got {gamma}")
    if gamma1 + gamma2 <= 0:
        raise ValueError("need gamma1 + gamma2 > 0")


def min_fuel_energy(Cmat, x_f, gamma1: float, gamma2: float) -> SolveResult:
    """Minimize gamma1*||u||_1 + gamma2*||u||_2 subject to C u = x_f.

    gamma2 = 0 gives min_fuel's result and gamma1 = 0 min_energy's, the value
    times the other weight; else it is _min_fuel_energy_rows' one-matrix case.
    """
    check_weights(gamma1, gamma2)
    C, xf = _prep(Cmat, x_f, "x_f")
    if gamma1 == 0.0 or gamma2 == 0.0:
        res = min_energy(C, xf) if gamma1 == 0.0 else min_fuel(C, xf)
        return replace(res, value=None if res.value is None else res.value * (gamma1 + gamma2))
    return _min_fuel_energy_rows(C[None], xf, gamma1, gamma2, dict.fromkeys(_FE_COUNTERS, 0))[0]


def _min_fuel_energy_rows(Cs, xf, gamma1: float, gamma2: float, counters: dict) -> list[SolveResult]:
    """min_fuel_energy, both weights positive, of each matrix of the stack Cs, from one factor."""
    results: list = [None] * len(Cs)
    for idx, U, s, V, coeff, reached in _factors(Cs, xf):
        for j, i in enumerate(np.arange(len(Cs))[idx].tolist()):
            if not reached[j]:
                results[i] = SolveResult(INFEASIBLE)
            elif not xf.any():  # a zero target takes the zero input
                results[i] = _zero_input(Cs.shape[2])
            else:
                results[i] = _fuel_energy_row(Cs[i], xf, U[j], s[j], V[j], gamma1, gamma2, counters)
    return results


def _fuel_energy_row(C, xf, U, s, V, g1, g2, counters) -> SolveResult:
    """The certified fuel+energy design for x_f on the range of C = U_r S_r V_r'.

    C u = x_f is V_r'u = c = U_r'x_f / s_r, with the dual max c'y over
    V_r y = z + w, |z_i| <= g1, ||w|| <= g2.  Newton steps (Boyd and
    Vandenberghe, Convex Optimization, 2004, ch. 11) centre the
    self-concordant barrier -t c'y - sum log(g1^2 - z_i^2) - log(g2^2 - ||w||^2)
    from y = z = 0, damped to 1 / (1 + lam) until the decrement lam is 1/4,
    where full steps converge quadratically (Nesterov, Introductory Lectures
    on Convex Optimization, 2004, sec. 4.1) or else stall.  A centre's
    u = 2w / (t (g2^2 - ||w||^2)) has V_r'u = c and a value at most
    (q + 1) / t above c'y, so t starts at (q + 1) over V_r c's value and
    grows tenfold per centring.  Each centre is polished; the row ends
    OPTIMAL at the first certified design, or MAX_ITERATIONS once it
    stalls, takes _NEWTON_STEPS steps or (q + 1) / t is below c'y's rounding.
    """
    q, r = V.shape
    c = (xf @ U) / s
    J = np.hstack([V, -np.eye(q)])  # (y, z) -> w = V_r y - z
    JJ, box, x = J.T @ J, np.arange(r, r + q), np.zeros(r + q)
    t = (q + 1) / (g1 * np.abs(V @ c).sum() + g2 * np.linalg.norm(c))
    steps, counters["rows"] = 0, counters["rows"] + 1
    while True:
        last, stalled = math.inf, False
        while True:  # one centring
            z, w = x[r:], J @ x
            d, e = g1 * g1 - z * z, g2 * g2 - w @ w
            Jw = J.T @ w
            grad = (2.0 / e) * Jw + np.concatenate([-t * c, 2.0 * z / d])
            H = (2.0 / e) * JJ + (4.0 / e**2) * np.outer(Jw, Jw)
            H[box, box] += 2.0 * (g1 * g1 + z * z) / d**2
            try:
                step = np.linalg.solve(H, -grad)
            except np.linalg.LinAlgError:  # singular in floating point: a stall
                step = np.full(r + q, math.nan)
            lam2 = -float(grad @ step)
            if 0.0 <= lam2 <= _CENTRED:
                break
            lam = math.sqrt(max(lam2, 0.0))
            x_new = x + (step if lam <= 0.25 else step / (1.0 + lam))
            feasible = np.abs(x_new[r:]).max() < g1 and np.sum((J @ x_new) ** 2) < g2 * g2
            if stalled := not (0.0 < lam2 < last and steps < _NEWTON_STEPS and feasible):
                break
            x, last, steps = x_new, (lam2 if lam <= 0.25 else math.inf), steps + 1
            counters["newton_steps"] += 1
        counters["polishes"] += 1
        res = _polish(C, xf, U, s, V, c, 2.0 * w / (t * e), x[:r], z, g1, g2)
        if res is not None or stalled or (q + 1) / t <= _EPS * float(c @ x[:r]):
            return replace(res or SolveResult(MAX_ITERATIONS), iterations=steps)
        t *= 10.0


def _polish(C, xf, U, s, V, c, u, y, z, g1, g2) -> SolveResult | None:
    """The design of the support and signs that a centre suggests, OPTIMAL if it certifies.

    i is in B, the support, when |u_i| / max |u| exceeds its box's slack
    1 - |z_i| / g1.  With M = V_r', sigma the signs of u_B
    and P_B the projector onto M_B's row space, M_B u_B = c and
    M_B'y = g1 sigma + u_B / a give u_B = M_B^+ c - a g1 (I - P_B) sigma,
    a = ||u|| / g2 = ||M_B^+ c|| / sqrt(g2^2 - g1^2 ||(I - P_B) sigma||^2),
    refined once in M's terms and once against C's residual, and y nearest
    the barrier's.  The dual is U_r (y / s_r); with C's own entries the
    design certifies when ||C u - x_f|| <= FEAS_TOL ||x_f||, ||S_g1(C'y)||_2
    <= g2 (1 + FEAS_TOL) (S the soft threshold) and the gap <= FEAS_TOL value.
    """
    B = np.abs(u) > np.abs(u).max() * (1.0 - np.abs(z) / g1)
    sigma, M = np.sign(u[B]), V[B].T
    base, proj = np.linalg.lstsq(M, np.column_stack([c, M @ sigma]), rcond=None)[0].T
    room = g2 * g2 - g1 * g1 * float((sigma - proj) @ (sigma - proj))
    if not (room > 0.0 and base.any()):
        return None
    a = float(np.linalg.norm(base)) / math.sqrt(room)
    uB = base - a * g1 * (sigma - proj)
    uB += np.linalg.lstsq(M, c - M @ uB, rcond=None)[0]
    uB += np.linalg.lstsq(M, (xf - C[:, B] @ uB) @ U / s, rcond=None)[0]
    y = U @ ((y + np.linalg.lstsq(M.T, g1 * sigma + uB / a - M.T @ y, rcond=None)[0]) / s)
    u = np.zeros(len(u))
    u[B] = uB
    value = g1 * float(np.abs(u).sum()) + g2 * float(np.linalg.norm(u))
    residual = float(np.linalg.norm(C @ u - xf))
    gap = abs(value - float(xf @ y))
    excess = float(np.linalg.norm(np.maximum(np.abs(y @ C) - g1, 0.0)))
    ok = residual <= FEAS_TOL * np.linalg.norm(xf) and gap <= FEAS_TOL * value
    if ok and excess <= g2 * (1.0 + FEAS_TOL):
        return SolveResult(OPTIMAL, u, value, residual, gap / value)
    return None
