"""Reference implementations that the tests compare the package against.

Each one computes a quantity the package produces some other way, by the
plain definition: admissibility by walking the automaton, minimality by
pairwise dominance or by the paper's surround rule for the k family, the
dynamics by rolling them forward, and the reachability Gramian and the
optimal LQR cost from their formulas.  No analysis uses them.
"""

from __future__ import annotations

import numpy as np

from dropctrl import Signal, SignalSet, controllability_matrix


def is_admissible(a, s: Signal) -> bool:
    """True iff some walk from a start node spells the signal exactly."""
    word = str(s)
    T = len(word)
    seen = {(v, 0) for v in a.start_nodes}
    stack = list(seen)
    while stack:
        node, pos = stack.pop()
        if pos == T:
            return True
        for dst, label in a.out_edges(node):
            end = pos + len(label)
            if end <= T and word.startswith(label, pos):
                state = (dst, end)
                if state not in seen:
                    seen.add(state)
                    stack.append(state)
    return False


def dominates(s1: Signal, s2: Signal) -> bool:
    """True iff s1 precedes s2 in the support order (s1's 1s are s2's 1s)."""
    if len(s1) != len(s2):
        raise ValueError(f"length mismatch: {len(s1)} vs {len(s2)}")
    return all(b1 <= b2 for b1, b2 in zip(s1.bits, s2.bits))


def minimal_filter(ss: SignalSet) -> SignalSet:
    """Minimal elements of ss under the support order (brute-force filter).

    Keeps s iff no other member's support is strictly contained in s's.
    Each row is packed into as many 64-bit words as its horizon needs.
    """
    bits = ss.to_array()
    packed = np.packbits(bits, axis=1)
    words = np.pad(packed, ((0, 0), (0, -packed.shape[1] % 8))).view(np.uint64)
    # a row is minimal when every other row has a 1 outside its support
    keep = [np.count_nonzero((words & ~w).any(axis=1)) == len(words) - 1 for w in words]
    # a subset of distinct sorted rows is still distinct and sorted
    return SignalSet._from_array(bits[np.array(keep, dtype=bool)])


def is_minimal_k(s: Signal, k: int) -> bool:
    """Minimality test for the at-most-k-consecutive-dropouts constraint.

    A signal is minimal iff it is admissible (no k+1 consecutive zeros)
    and each 1 bit is surrounded by at least k zeros, counting p zeros
    immediately before and q immediately after.  Positions beyond the
    horizon contribute nothing, so a trailing 1 needs its k zeros inside
    the signal.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    # the i-th 1 has runs[i] zeros before it and runs[i + 1] after it
    runs = [len(r) for r in str(s).split("1")]
    return max(runs) <= k and all(p + q >= k for p, q in zip(runs, runs[1:]))


def simulate(sys, s: Signal, x0, u) -> tuple[np.ndarray, list]:
    """States x(0..T), shape (T+1, n), and outputs y(0..T-1), None at dropouts."""
    row = SignalSet([s]).to_array()[0]
    T = len(row)
    u = np.asarray(u, dtype=float)
    if u.ndim == 1:
        u = u.reshape(-1, sys.m)
    if u.shape != (T, sys.m):
        raise ValueError(f"expected {T} inputs of dimension {sys.m}, got {u.shape}")
    states = np.empty((T + 1, sys.n))
    states[0] = np.asarray(x0, dtype=float).reshape(sys.n)
    outputs = []
    for t in range(T):
        if row[t]:
            outputs.append(sys.C @ states[t])
            states[t + 1] = sys.A @ states[t] + sys.B @ u[t]
        else:
            outputs.append(None)
            states[t + 1] = sys.A @ states[t]
    return states, outputs


def reachability_gramian(sys, s: Signal) -> np.ndarray:
    """W = C C', the sum over successful steps of A^{T-1-i} B B' (A^{T-1-i})'."""
    Cm = controllability_matrix(sys, s)
    W = Cm @ Cm.T
    return (W + W.T) / 2.0


def lqr_cost(P, x0) -> float:
    """x0' P(0) x0, the optimal cost from x0, for riccati_backward's P(0..T)."""
    x0 = np.asarray(x0, dtype=float).ravel()
    return float(x0 @ P[0] @ x0)


def fuel_energy_row(c, x_f: float, gamma1: float, gamma2: float) -> float:
    """min gamma1 ||u||_1 + gamma2 ||u||_2 subject to c'u = x_f, for one row c, from its dual.

    The dual is max x_f y subject to ||S_gamma1(c y)||_2 <= gamma2, S the
    soft threshold.  That norm grows with |y|, so the optimum is |x_f| y*
    where ||S_gamma1(c y*)||_2 = gamma2, and y* is bisected on
    [0, (gamma1 + gamma2) / max |c|], where the norm is at least gamma2.
    """
    c = np.abs(np.asarray(c, dtype=float).ravel())

    def excess(y: float) -> float:
        return float(np.linalg.norm(np.maximum(c * y - gamma1, 0.0)))

    lo, hi = 0.0, (gamma1 + gamma2) / c.max()
    while lo < (mid := (lo + hi) / 2) < hi:
        lo, hi = (mid, hi) if excess(mid) < gamma2 else (lo, mid)
    return abs(x_f) * hi
