"""Finite-horizon LQR under dropout-masked actuation.

The backward difference Riccati recursion carries the signal: at a
dropout step the quadratic correction term vanishes and the update is the
pure Lyapunov step Q + A'PA.  Gains designed for the ideal loop can be
replayed through a lossy channel to price the degradation of a fixed
controller.  P(t) depends only on the suffix s(t..T-1), and the rolled
state x(t) and its running cost only on the prefix s(0..t-1), so the
worst-case scans walk the signal trie of a block of rows level by level,
each level numbered by _children (as in I's and II's prefix walk):
_riccati keeps one P per distinct suffix and _rollout one state per
distinct prefix, each computed once from its parent node, with the
correction applied only to the nodes whose bit is 1.  riccati_backward
and degraded_cost are the one-signal case, a trie with one node per level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .signals import Signal, SignalSet
from .systems import SwitchedLinearSystem

__all__ = [
    "LqrWeights",
    "RiccatiSolution",
    "GainSchedule",
    "riccati_backward",
    "lqr_cost",
    "lti_gains",
    "degraded_cost",
]

_SYM_TOL = 1e-10


def _check_symmetric(M: np.ndarray, name: str) -> np.ndarray:
    scale = max(1.0, float(np.abs(M).max(initial=0.0)))
    if np.abs(M - M.T).max(initial=0.0) > _SYM_TOL * scale:
        raise ValueError(f"{name} must be symmetric")
    return (M + M.T) / 2.0


class LqrWeights:
    """Stage weights Q >= 0, R > 0, terminal Q_f > 0 and horizon T."""

    __slots__ = ("Q", "R", "Qf", "T")

    def __init__(self, Q, R, Qf, T: int):
        Q = _check_symmetric(np.atleast_2d(np.asarray(Q, dtype=float)), "Q")
        R = _check_symmetric(np.atleast_2d(np.asarray(R, dtype=float)), "R")
        Qf = _check_symmetric(np.atleast_2d(np.asarray(Qf, dtype=float)), "Qf")
        if Q.shape != Qf.shape:
            raise ValueError("Q and Qf must have equal shape")
        tolQ = _SYM_TOL * max(1.0, float(np.abs(Q).max(initial=0.0)))
        if np.linalg.eigvalsh(Q)[0] < -tolQ:
            raise ValueError("Q must be positive semidefinite")
        if np.linalg.eigvalsh(R)[0] <= _SYM_TOL * max(1.0, float(np.abs(R).max())):
            raise ValueError("R must be positive definite")
        if np.linalg.eigvalsh(Qf)[0] <= _SYM_TOL * max(1.0, float(np.abs(Qf).max())):
            raise ValueError("Qf must be positive definite")
        if T < 1:
            raise ValueError("horizon T must be >= 1")
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "Qf", Qf)
        object.__setattr__(self, "T", int(T))

    @classmethod
    def identity(cls, n: int, m: int, T: int) -> "LqrWeights":
        return cls(np.eye(n), np.eye(m), np.eye(n), T)

    def __setattr__(self, name, value):
        raise AttributeError("LqrWeights is immutable")


@dataclass
class RiccatiSolution:
    """Cost-to-go matrices P(0..T); P(T) equals the terminal weight."""

    P: np.ndarray  # (T+1, n, n)

    def __post_init__(self):
        self.P = np.asarray(self.P, dtype=float)


@dataclass
class GainSchedule:
    """Feedback gains K(0..T-1) for u(t) = K(t) x(t)."""

    K: np.ndarray  # (T, m, n)

    def __post_init__(self):
        self.K = np.asarray(self.K, dtype=float)


def riccati_backward(sys: SwitchedLinearSystem, s: Signal, w: LqrWeights) -> RiccatiSolution:
    """Backward recursion from P(T) = Qf with the correction gated by the signal.

    The one-signal case of _riccati, which the worst-case scan runs on the
    suffix trie of a block of signals.
    """
    steps = [P[0] for P, _ in _riccati(sys, SignalSet([s]).to_array(), w)]
    return RiccatiSolution(P=np.array(steps[::-1]))


def _children(
    node: np.ndarray, bits: np.ndarray, nodes: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One trie level down from `nodes` nodes: the distinct (parent, bit) pairs of the rows.

    The key parent * 2 + bit lies below 2 * nodes, so a table of the keys
    present numbers the new nodes in key order.  Returns each new node's
    parent and bit, and each row's new node.
    """
    keys = node * 2 + bits
    present = np.zeros(2 * nodes, dtype=bool)
    present[keys] = True
    new = present.nonzero()[0]
    return new >> 1, (new & 1).astype(bool), present.cumsum()[keys] - 1


def _riccati(
    sys: SwitchedLinearSystem, mask: np.ndarray, w: LqrWeights
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """P(T), P(T-1), ..., P(0) over the suffix trie of an (N, T) bool mask.

    Yields, per level t, the (M, n, n) stack of P(t) for the M distinct
    suffixes s(t..T-1) and each row's index into it.  A node's P is its
    parent's Lyapunov step Q + A'PA, with the gated correction only on the
    nodes whose bit is 1; each level is yielded and then dropped, so a scan
    that needs only P(0) holds two levels, not T+1.
    """
    N, T = mask.shape
    if T != w.T:
        raise ValueError(f"signal length {T} != weight horizon {w.T}")
    A, B = sys.A, sys.B
    P = w.Qf[None]
    node = np.zeros(N, dtype=np.intp)
    yield P, node
    for t in range(T - 1, -1, -1):
        parent, on, node = _children(node, mask[:, t], len(P))
        # a plant that overflows has inf or NaN costs, which the scans report
        with np.errstate(over="ignore", invalid="ignore"):
            P = P[parent]
            step = w.Q + A.T @ P @ A
            if on.any():
                Pon = P[on]
                BtP = B.T @ Pon
                gain = np.linalg.solve(w.R + BtP @ B, BtP @ A)
                step[on] -= (A.T @ Pon @ B) @ gain
            P = (step + step.swapaxes(1, 2)) / 2.0
        yield P, node


def lqr_cost(sol: RiccatiSolution, x0) -> float:
    x0 = np.asarray(x0, dtype=float).ravel()
    return float(x0 @ sol.P[0] @ x0)


def lti_gains(sys: SwitchedLinearSystem, w: LqrWeights) -> GainSchedule:
    """Optimal gains for the dropout-free loop, K(t) = -(R+B'PB)^{-1} B'PA."""
    sol = riccati_backward(sys, Signal.ones(w.T), w)
    A, B = sys.A, sys.B
    K = np.empty((w.T, sys.m, sys.n))
    for t in range(w.T):
        BtP = B.T @ sol.P[t + 1]
        K[t] = -np.linalg.solve(w.R + BtP @ B, BtP @ A)
    return GainSchedule(K=K)


def degraded_cost(
    sys: SwitchedLinearSystem, gains: GainSchedule, s: Signal, w: LqrWeights, x0
) -> float:
    """Cost of replaying the ideal-loop gains through a lossy channel.

    Rolls x(t+1) = (A + s(t) B K(t)) x(t) and accumulates
    x'(Q + K'RK)x at each stage plus the terminal x'Qf x; the controller
    never re-plans after a dropout.  The one-signal case of _rollout, which
    the worst-case scan runs on the prefix trie of a block of signals.
    """
    return float(_rollout(sys, gains, SignalSet([s]).to_array(), w, x0)[0][0])


@np.errstate(over="ignore", invalid="ignore")  # inf or NaN costs are reported
def _rollout(
    sys: SwitchedLinearSystem, gains: GainSchedule, mask: np.ndarray, w: LqrWeights, x0
) -> tuple[np.ndarray, int]:
    """degraded_cost for each row of an (N, T) bool mask, over its prefix trie.

    Level t holds one state x(t), an (M, n, 1) stack, and one running cost
    per distinct prefix s(0..t-1); a child node steps its parent's state
    with A + B K(t) or A by its bit.  Returns the N costs and the number of
    trie nodes stepped.
    """
    N, T = mask.shape
    if T != w.T or gains.K.shape[0] != T:
        raise ValueError("signal, weights and gain schedule horizons must match")
    A, B = sys.A, sys.B
    x = np.asarray(x0, dtype=float).reshape(1, -1, 1)
    cost = np.zeros(1)
    node = np.zeros(N, dtype=np.intp)
    nodes = 0
    for t in range(T):
        K = gains.K[t]
        cost += _quadratic(x, w.Q + K.T @ w.R @ K)
        parent, on, node = _children(node, mask[:, t], len(x))
        x, cost = x[parent], cost[parent]
        x[on] = (A + B @ K) @ x[on]
        x[~on] = A @ x[~on]
        nodes += len(parent)
    return (cost + _quadratic(x, w.Qf))[node], nodes


def _quadratic(x: np.ndarray, M: np.ndarray) -> np.ndarray:
    """x'Mx for stacks of columns x (..., n, 1) and matrices M (..., n, n).

    Each row is the vector-matrix product x'M, then a dot with x: the
    products a single vector takes, so a stack row equals its own case.
    """
    return (x.swapaxes(-1, -2) @ M @ x)[..., 0, 0]
