import math

import numpy as np
import pytest

from dropctrl import (
    LqrWeights,
    Signal,
    SwitchedLinearSystem,
    controllability_matrix,
    degraded_cost,
    first_full_rank_time,
    lti_gains,
    observability_matrix,
    riccati_backward,
)
from oracles import dominates, lqr_cost, simulate


def scalar_setup():
    sys = SwitchedLinearSystem([[2.0]], [[1.0]], [[1.0]])
    w = LqrWeights([[1.0]], [[1.0]], [[1.0]], 1)
    return sys, w


def random_instance(rng, T):
    n = int(rng.integers(1, 4))
    m = int(rng.integers(1, 3))
    while True:
        A = rng.standard_normal((n, n))
        if abs(np.linalg.det(A)) > 1e-3:
            break
    sys = SwitchedLinearSystem(A, rng.standard_normal((n, m)), np.eye(n))
    M = rng.standard_normal((n, n))
    Q = M.T @ M  # PSD
    Mr = rng.standard_normal((m, m))
    R = Mr.T @ Mr + 0.5 * np.eye(m)
    Mf = rng.standard_normal((n, n))
    Qf = Mf.T @ Mf + 0.5 * np.eye(n)
    return sys, LqrWeights(Q, R, Qf, T)


def test_weights_validation():
    with pytest.raises(ValueError):
        LqrWeights([[1.0, 0.5], [0.4, 1.0]], [[1.0]], np.eye(2), 2)  # asymmetric Q
    with pytest.raises(ValueError):
        LqrWeights(np.eye(2), [[0.0]], np.eye(2), 2)  # R not PD
    with pytest.raises(ValueError):
        LqrWeights(np.eye(2), [[1.0]], np.zeros((2, 2)), 2)  # Qf not PD
    with pytest.raises(ValueError):
        LqrWeights(-np.eye(2), [[1.0]], np.eye(2), 2)  # Q not PSD
    with pytest.raises(ValueError):
        LqrWeights(np.eye(2), [[1.0]], np.eye(2), 0)  # bad horizon
    # the horizon is an integer, not truncated to one
    for T in (3.7, 3.0, "3", [3], None):
        with pytest.raises(ValueError, match="^horizon T must be an integer"):
            LqrWeights(np.eye(2), [[1.0]], np.eye(2), T)
    assert LqrWeights(np.eye(2), [[1.0]], np.eye(2), np.int64(3)).T == 3


def test_riccati_scalar_hand_checks():
    sys, w = scalar_setup()
    sol = riccati_backward(sys, Signal("1"), w)
    assert sol[0, 0, 0] == pytest.approx(3.0, abs=1e-12)
    assert sol[1, 0, 0] == pytest.approx(1.0)
    sol = riccati_backward(sys, Signal("0"), w)
    assert sol[0, 0, 0] == pytest.approx(5.0, abs=1e-12)


def test_riccati_terminal_condition_and_psd():
    rng = np.random.default_rng(3)
    for _ in range(20):
        T = int(rng.integers(1, 7))
        sys, w = random_instance(rng, T)
        bits = rng.integers(0, 2, size=T).tolist()
        sol = riccati_backward(sys, Signal(bits), w)
        assert np.array_equal(sol[T], w.Qf)
        for P in sol:
            assert np.allclose(P, P.T)
            scale = max(1.0, np.abs(P).max())
            assert np.linalg.eigvalsh(P)[0] >= -1e-9 * scale


def test_riccati_all_zero_signal_is_lyapunov_accumulation():
    rng = np.random.default_rng(5)
    for _ in range(10):
        T = int(rng.integers(1, 6))
        sys, w = random_instance(rng, T)
        sol = riccati_backward(sys, Signal.zeros(T), w)
        # direct sum: P(0) = sum_t (A^t)' Q A^t + (A^T)' Qf A^T
        acc = np.zeros((sys.n, sys.n))
        Ap = np.eye(sys.n)
        for _t in range(T):
            acc += Ap.T @ w.Q @ Ap
            Ap = sys.A @ Ap
        acc += Ap.T @ w.Qf @ Ap
        assert np.allclose(sol[0], acc, rtol=1e-9, atol=1e-9)


def test_riccati_monotone_in_support_order():
    rng = np.random.default_rng(7)
    for _ in range(40):
        T = int(rng.integers(1, 7))
        sys, w = random_instance(rng, T)
        s2_bits = rng.integers(0, 2, size=T)
        s1_bits = s2_bits * rng.integers(0, 2, size=T)
        s1, s2 = Signal(s1_bits.tolist()), Signal(s2_bits.tolist())
        assert dominates(s1, s2)
        diff = riccati_backward(sys, s1, w)[0] - riccati_backward(sys, s2, w)[0]
        assert np.linalg.eigvalsh(diff)[0] >= -1e-9 * max(1.0, np.abs(diff).max())


def test_lqr_cost_examples():
    sys, w = scalar_setup()
    sol = riccati_backward(sys, Signal("1"), w)
    assert lqr_cost(sol, [1.0]) == pytest.approx(3.0)
    assert lqr_cost(sol, [0.0]) == 0.0
    assert lqr_cost(riccati_backward(sys, Signal("0"), w), [2.0]) == pytest.approx(20.0)


def test_lti_gains_scalar():
    sys, w = scalar_setup()
    g = lti_gains(sys, w)
    assert g[0, 0, 0] == pytest.approx(-1.0)


def test_lti_gains_zero_b():
    sys = SwitchedLinearSystem(np.diag([0.5, 1.5]), np.zeros((2, 1)), np.eye(2))
    g = lti_gains(sys, LqrWeights.identity(2, 1, 3))
    assert np.allclose(g, 0.0)


def test_gain_rollout_matches_riccati_cost():
    # dynamic programming identity: closed-loop rollout cost under no
    # dropouts equals x0' P(0) x0
    rng = np.random.default_rng(11)
    for _ in range(20):
        T = int(rng.integers(1, 7))
        sys, w = random_instance(rng, T)
        x0 = rng.standard_normal(sys.n)
        gains = lti_gains(sys, w)
        nominal = riccati_backward(sys, Signal.ones(T), w)
        direct = lqr_cost(nominal, x0)
        rolled = degraded_cost(sys, gains, Signal.ones(T), w, x0)
        assert rolled == pytest.approx(direct, rel=1e-9, abs=1e-12)


def test_degraded_cost_scalar_hand_check():
    sys, w = scalar_setup()
    gains = lti_gains(sys, w)
    assert degraded_cost(sys, gains, Signal("0"), w, [1.0]) == pytest.approx(6.0, abs=1e-12)
    assert degraded_cost(sys, gains, Signal("1"), w, [1.0]) == pytest.approx(3.0, abs=1e-12)
    assert degraded_cost(sys, gains, Signal("0"), w, [0.0]) == 0.0


def test_degraded_cost_closed_loop_trajectory():
    # the accumulated state sequence is x(t+1) = (A + s(t) B K(t)) x(t)
    rng = np.random.default_rng(13)
    sys, w = random_instance(rng, 4)
    x0 = rng.standard_normal(sys.n)
    gains = lti_gains(sys, w)
    s = Signal("0101")
    x = x0.copy()
    expected = 0.0
    for t in range(4):
        K = gains[t]
        expected += float(x @ (w.Q + K.T @ w.R @ K) @ x)
        x = (sys.A + (sys.B @ K if s[t] else 0.0)) @ x
    expected += float(x @ w.Qf @ x)
    assert degraded_cost(sys, gains, s, w, x0) == pytest.approx(expected, rel=1e-12)


def test_horizon_mismatch_errors():
    sys, w = scalar_setup()
    with pytest.raises(ValueError):
        riccati_backward(sys, Signal("11"), w)
    gains = lti_gains(sys, w)
    with pytest.raises(ValueError):
        degraded_cost(sys, gains, Signal("11"), w, [1.0])


def test_degraded_cost_refuses_non_finite_or_mis_sized_inputs():
    sys, w = scalar_setup()
    gains = lti_gains(sys, w)
    assert gains.shape == (w.T, sys.m, sys.n)
    s = Signal("0" * w.T)
    for bad_gains, x0, name in [
        (gains, [1.0, 2.0], "x0"),
        (gains, [], "x0"),
        (gains, [math.nan], "x0"),
        (gains, [math.inf], "x0"),
        (gains[1:], [1.0], "gains"),
        (np.full_like(gains, math.nan), [1.0], "gains"),
    ]:
        with pytest.raises(ValueError, match=rf"^{name} "):
            degraded_cost(sys, bad_gains, s, w, x0)


def test_one_signal_functions_read_bit_strings():
    # a string means what Signal(str) means: each '0' is a dropout
    sys, w = random_instance(np.random.default_rng(5), 4)
    gains = lti_gains(sys, w)
    x0, u = np.ones(sys.n), np.ones((4, sys.m))
    calls = [
        lambda s: controllability_matrix(sys, s),
        lambda s: observability_matrix(sys, s),
        lambda s: first_full_rank_time(sys, s),
        lambda s: riccati_backward(sys, s, w),
        lambda s: degraded_cost(sys, gains, s, w, x0),
        lambda s: simulate(sys, s, x0, u)[0],
        lambda s: [y is None for y in simulate(sys, s, x0, u)[1]],
    ]
    for call in calls:
        assert np.array_equal(call("0101"), call(Signal("0101")))
        with pytest.raises(ValueError):
            call("012")
    assert first_full_rank_time(sys, "0101") == 1
    assert np.array_equal(controllability_matrix(sys, "00"), np.zeros((sys.n, 2 * sys.m)))
