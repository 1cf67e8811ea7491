"""Certified primal-dual interior-point solver for small equality-form LPs.

Solves   min c'x   subject to   A x = b,  x >= 0

with Mehrotra's predictor-corrector (S. Mehrotra, "On the implementation
of a primal-dual interior point method", SIAM J. Optim. 2(4), 1992) on the
dense normal equations A D A' dy = r, after scaling rows, then columns, to
unit infinity-norm.  A result is "optimal" only when a certificate backs
it in the caller's units: ||A x - b|| <= TOL ||b||, dual infeasibility
||(A'y - c)+|| <= TOL ||c|| and a duality gap |c'x - b'y| <= TOL |c'x|.
Once the iterates settle which x_j exceed their s_j, that support B is
tried first: x_B moved onto A_B x_B = b, x_N = 0, and y solving
A_B' y = c_B, so basic optima, zero optima included, come back exact.
Anything else is "iteration_limit".

The iteration runs on a stack of programs of one shape at once, and one
program is the stack of one (solve_standard_lp).  The scaling, the
normal matrices A D A' and their solves, the step lengths, sigma and mu
and the certificates are each one call over the programs still
iterating, and a program leaves the stack when it certifies or stalls.
Least squares, which numpy does not stack and whose rank cut the
ill-conditioned programs need, stay one program at a time: the two
lstsq calls of the starting point and the two of the support polish,
whose y_B depends on the support alone and is kept for the next polish
on the same support; the polished pairs are certified in one call.  Every product is the
BLAS call of one program (a dot for an inner product or a norm, gemv,
gemm) and every reduction runs along one program's row, so a program's
arithmetic does not depend on the others in its stack: each ends with
the result it gets alone, bit for bit.

A caller may also pass a test on the dual iterates, stop(y), y a
program's dual in the caller's units: a program whose iterate the test
accepts leaves the stack at that iteration as "stopped", with that
dual, the way a certified program leaves it.  The test is asked only of finite programs that did not
certify at the iteration, and it changes no arithmetic, so a program it
does not stop ends bit for bit as it does without it.  solvers' peak LP
stops this way once its dual certifies the least peak above the box, by
weak duality, which holds for every y and so for an iterate.

Nothing here detects infeasibility or unboundedness: every program the
package builds is feasible and bounded (see solvers._min_inf_norm and
solvers._min_fuel_rows), and any other program ends as
"iteration_limit".
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

__all__ = ["LpResult", "solve_standard_lp"]

# relative primal residual, dual infeasibility and duality gap of a certificate
_TOL = 1e-9
_MAX_ITER = 100
# fraction of the step to the boundary of x > 0, s > 0
_STEP = 0.99
_EPS = np.finfo(float).eps


@dataclass
class LpResult:
    status: str  # "optimal" | "stopped" | "iteration_limit"
    x: np.ndarray | None = None
    value: float | None = None
    dual: np.ndarray | None = None  # one multiplier per input row
    iterations: int = 0


def _lstsq(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.linalg.lstsq(M, v, rcond=None)[0]


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u[i] @ v[i] for each program: the BLAS dot that a product of two vectors takes."""
    return (u[:, None, :] @ v[:, :, None])[:, 0, 0]


def _norm(v: np.ndarray) -> np.ndarray:
    return np.sqrt(_dot(v, v))


def _mv(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M[i] @ v[i] for each program."""
    return (M @ v[:, :, None])[:, :, 0]


def _solve(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """M[i]^-1 rhs[i] for each program; a singular M[i] takes least squares, its program alone.

    np.linalg.solve refuses the whole stack when one matrix is singular
    (rows that are not independent), so then each program is solved by
    itself, the others with the same LAPACK call as in the stack.
    """
    try:
        return np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError:
        out = np.empty_like(rhs)
        for i in range(len(M)):
            try:
                out[i] = np.linalg.solve(M[i], rhs[i])
            except np.linalg.LinAlgError:
                out[i] = _lstsq(M[i], rhs[i])
        return out


def _max_step(v: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """The longest step in (0, 1] along dv that keeps each program's v >= 0."""
    return np.minimum(np.where(dv < 0, -v / dv, np.inf).min(axis=1), 1.0)


def solve_standard_lp(c, A, b, stop: Callable[[np.ndarray], bool] | None = None) -> LpResult:
    """The one-program stack; stop(y), if given, is its test on the dual iterates."""
    c = np.asarray(c, dtype=float).ravel()
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float).ravel()
    m, n = A.shape
    if c.size != n or b.size != m:
        raise ValueError("inconsistent LP dimensions")
    return _solve_stack(c[None], A[None], b[None], stop)[0]


# a program that divides by zero or overflows fails its certificate and
# leaves the stack as "iteration_limit"; numpy need not warn about it
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _solve_stack(
    c: np.ndarray,
    A: np.ndarray,
    b: np.ndarray,
    stop: Callable[[np.ndarray], bool] | None = None,
) -> list[LpResult]:
    """Solve min c[i]'x subject to A[i] x = b[i], x >= 0 for each program of a stack.

    c is (N, n), A (N, m, n) and b (N, m); one LpResult per program, in
    order.  stop(y), if given, stops a program at a dual iterate y.
    The programs still iterating are kept contiguous: when some leave,
    the stack is compacted once, not gathered at every iteration.
    """
    N, m, n = A.shape
    results: list[LpResult | None] = [None] * N

    # unit row, then column, infinity-norms; scaled x, y map back times the scales
    # (the stack-sized temporaries share one buffer, which ends as As)
    row_norm = np.abs(A).max(axis=2)
    row_scale = 1.0 / np.where(row_norm > 0, row_norm, 1.0)
    As = A * row_scale[:, :, None]
    col_norm = np.abs(As, out=As).max(axis=1)
    col_scale = 1.0 / np.where(col_norm > 0, col_norm, 1.0)
    As = np.multiply(row_scale[:, :, None], col_scale[:, None, :], out=As)
    As *= A
    bs, cs = b * row_scale, c * col_scale
    b_norm, c_norm = _norm(b), _norm(c)
    b_tol = _TOL * np.where(b_norm > 0, b_norm, 1.0)
    c_tol = _TOL * np.where(c_norm > 0, c_norm, 1.0)

    def certified(x_s, y_s):
        """(ok, x, y, c'x): each program's pair in the caller's units, and whether it certifies."""
        x, y = np.maximum(x_s, 0.0) * col_scale, y_s * row_scale
        value = _dot(c, x)
        ok = (
            (_norm(_mv(A, x) - b) <= b_tol)
            & (_norm(np.maximum(_mv(A.swapaxes(1, 2), y) - c, 0.0)) <= c_tol)
            & (np.abs(value - _dot(b, y)) <= _TOL * np.abs(value))
        )
        return ok, x, y, value

    # Mehrotra's starting point: least-norm x and least-squares y, shifted inside;
    # AA' solved without lstsq's rank cut starts an ill-conditioned program
    # elsewhere, which can change its verdict
    AAt = As @ As.swapaxes(1, 2)
    x = _mv(As.swapaxes(1, 2), np.stack([_lstsq(M, v) for M, v in zip(AAt, bs)]))
    y = np.stack([_lstsq(M, v) for M, v in zip(AAt, _mv(As, cs))])
    s = cs - _mv(As.swapaxes(1, 2), y)
    x += np.maximum(-1.5 * x.min(axis=1), 0.0)[:, None]
    s += np.maximum(-1.5 * s.min(axis=1), 0.0)[:, None]
    xs = _dot(x, s)
    dx = np.where(xs > 0, 0.5 * xs / s.sum(axis=1), 1.0)
    ds = np.where(xs > 0, 0.5 * xs / x.sum(axis=1), 1.0)
    x, s = x + dx[:, None], s + ds[:, None]

    ids = np.arange(N)  # each stacked program's place in the input
    support = None
    # y_B of each program's last polish, by its place in the input: it depends
    # on the support B alone, which the polish often meets again
    polish_y: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for it in range(1, _MAX_ITER + 1):
        rp = bs - _mv(As, x)
        rd = cs - _mv(As.swapaxes(1, 2), y) - s
        d = x / s
        M = (As * d[:, None, :]) @ As.swapaxes(1, 2)

        def direction(rxs):
            # S dx + X ds = rxs, A dx = rp, A'dy + ds = rd
            rhs = rp - _mv(As, rxs / s - d * rd)
            dy = _solve(M, rhs[:, :, None])[:, :, 0]
            ds = rd - _mv(As.swapaxes(1, 2), dy)
            return (rxs - x * ds) / s, dy, ds

        dx_a, _, ds_a = direction(-x * s)
        ap, ad = _max_step(x, dx_a), _max_step(s, ds_a)
        mu = _dot(x, s) / n
        ratio = _dot(x + ap[:, None] * dx_a, s + ad[:, None] * ds_a) / n / mu
        # the C library's pow, which numpy's vectorised power misses by an ulp at times
        sigma = np.array([r**3 for r in ratio.tolist()])
        dx, dy, ds = direction((sigma * mu)[:, None] - x * s - dx_a * ds_a)
        ap, ad = _STEP * _max_step(x, dx), _STEP * _max_step(s, ds)
        x, y, s = x + ap[:, None] * dx, y + ad[:, None] * dy, s + ad[:, None] * ds
        finite = np.isfinite(np.hstack([x, y, s])).all(axis=1)

        found, x_c, y_c, value = certified(x, y)
        # complementarity below the rounding of the objective: no progress is left
        stalled = _dot(x, s) <= _EPS * _dot(np.abs(cs), x)
        found &= finite
        prev, support = support, x > s
        settled = found | stalled
        if prev is not None:
            settled |= (prev == support).all(axis=1)
        polish = np.flatnonzero(settled & finite)
        if len(polish):
            # the polished pairs, certified in one call with the other rows' iterates
            vx, vy = x.copy(), y.copy()
            for i in polish:
                B = support[i]
                AB = As[i][:, B]
                vx[i] = 0.0
                vx[i, B] = x[i, B] + _lstsq(AB, bs[i] - AB @ x[i, B])
                last = polish_y.get(ids[i])
                if last is None or not np.array_equal(last[0], B):
                    last = polish_y[ids[i]] = B, _lstsq(AB.T, cs[i, B])
                vy[i] = last[1]
            ok, vx, vy, v_value = certified(vx, vy)
            better = np.zeros_like(ok)
            better[polish] = ok[polish]
            found |= better
            x_c[better], y_c[better], value[better] = vx[better], vy[better], v_value[better]

        stopped = np.zeros_like(found)
        if stop is not None:
            for i in np.flatnonzero(finite & ~found):
                stopped[i] = stop(y_c[i])
        done = found | stopped | stalled | ~finite
        for i in np.flatnonzero(done):
            if found[i]:
                results[ids[i]] = LpResult(
                    "optimal", x=x_c[i].copy(), value=float(value[i]), dual=y_c[i].copy(),
                    iterations=it,
                )
            elif stopped[i]:
                results[ids[i]] = LpResult("stopped", dual=y_c[i].copy(), iterations=it)
            else:
                results[ids[i]] = LpResult("iteration_limit", iterations=it)
        if done.all():
            return results
        if done.any():
            keep = ~done
            # the stack-sized arrays one at a time, so that few copies coexist
            A = A[keep]
            As = As[keep]
            ids, b, c, bs, cs, row_scale, col_scale, b_tol, c_tol, x, y, s, support = (
                v[keep]
                for v in (ids, b, c, bs, cs, row_scale, col_scale, b_tol, c_tol, x, y, s, support)
            )
    for i in ids:
        results[i] = LpResult("iteration_limit", iterations=_MAX_ITER)
    return results
