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

Nothing here detects infeasibility or unboundedness: every program the
package builds is feasible and bounded (see solvers._solve_lp), and any
other program ends as "iteration_limit".
"""

from __future__ import annotations

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
    status: str  # "optimal" | "iteration_limit"
    x: np.ndarray | None = None
    value: float | None = None
    dual: np.ndarray | None = None  # one multiplier per input row
    iterations: int = 0


def _lstsq(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.linalg.lstsq(M, v, rcond=None)[0]


def _max_step(v: np.ndarray, dv: np.ndarray) -> float:
    shrinking = dv < 0
    return min(1.0, float((-v[shrinking] / dv[shrinking]).min())) if shrinking.any() else 1.0


def solve_standard_lp(c, A, b) -> LpResult:
    c = np.asarray(c, dtype=float).ravel()
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float).ravel()
    m, n = A.shape
    if c.size != n or b.size != m:
        raise ValueError("inconsistent LP dimensions")

    # unit row, then column, infinity-norms; scaled x, y map back times the scales
    row_norm = np.abs(A).max(axis=1)
    row_scale = 1.0 / np.where(row_norm > 0, row_norm, 1.0)
    col_norm = np.abs(A * row_scale[:, None]).max(axis=0)
    col_scale = 1.0 / np.where(col_norm > 0, col_norm, 1.0)
    As = A * np.outer(row_scale, col_scale)
    bs, cs = b * row_scale, c * col_scale

    def certified(x_s, y_s):
        """The caller's (x, y, c'x) when the scaled pair certifies in the caller's units."""
        x, y = np.maximum(x_s, 0.0) * col_scale, y_s * row_scale
        value = float(c @ x)
        if (
            np.linalg.norm(A @ x - b) <= _TOL * (np.linalg.norm(b) or 1.0)
            and np.linalg.norm(np.maximum(A.T @ y - c, 0.0)) <= _TOL * (np.linalg.norm(c) or 1.0)
            and abs(value - float(b @ y)) <= _TOL * abs(value)
        ):
            return x, y, value
        return None

    # Mehrotra's starting point: least-norm x and least-squares y, shifted inside
    AAt = As @ As.T
    x = As.T @ _lstsq(AAt, bs)
    y = _lstsq(AAt, As @ cs)
    s = cs - As.T @ y
    x += max(-1.5 * x.min(), 0.0)
    s += max(-1.5 * s.min(), 0.0)
    xs = float(x @ s)
    dx, ds = (0.5 * xs / s.sum(), 0.5 * xs / x.sum()) if xs > 0 else (1.0, 1.0)
    x, s = x + dx, s + ds

    support = None
    for it in range(1, _MAX_ITER + 1):
        rp = bs - As @ x
        rd = cs - As.T @ y - s
        d = x / s
        M = (As * d) @ As.T

        def direction(rxs):
            # S dx + X ds = rxs, A dx = rp, A'dy + ds = rd
            rhs = rp - As @ (rxs / s - d * rd)
            try:
                dy = np.linalg.solve(M, rhs)
            except np.linalg.LinAlgError:  # rows that are not independent
                dy = _lstsq(M, rhs)
            ds = rd - As.T @ dy
            return (rxs - x * ds) / s, dy, ds

        dx_a, _, ds_a = direction(-x * s)
        ap, ad = _max_step(x, dx_a), _max_step(s, ds_a)
        mu = float(x @ s) / n
        sigma = (float((x + ap * dx_a) @ (s + ad * ds_a)) / n / mu) ** 3
        dx, dy, ds = direction(sigma * mu - x * s - dx_a * ds_a)
        ap, ad = _STEP * _max_step(x, dx), _STEP * _max_step(s, ds)
        x, y, s = x + ap * dx, y + ad * dy, s + ad * ds
        if not all(np.isfinite(v).all() for v in (x, y, s)):
            break

        found = certified(x, y)
        # complementarity below the rounding of the objective: no progress is left
        stalled = x @ s <= _EPS * (np.abs(cs) @ x)
        prev, support = support, x > s
        if found is not None or stalled or np.array_equal(prev, support):
            AB = As[:, support]
            vx = np.zeros(n)
            vx[support] = x[support] + _lstsq(AB, bs - AB @ x[support])
            found = certified(vx, _lstsq(AB.T, cs[support])) or found
        if found is not None:
            x, y, value = found
            return LpResult("optimal", x=x, value=value, dual=y, iterations=it)
        if stalled:
            break
    return LpResult("iteration_limit", iterations=it)
