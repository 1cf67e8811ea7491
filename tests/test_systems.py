import math

import numpy as np
import pytest

from dropctrl import (
    Signal,
    SwitchedLinearSystem,
    controllability_matrix,
    first_full_rank_time,
    numerical_rank,
    observability_matrix,
)
from oracles import dominates, reachability_gramian, simulate


def random_sys(rng, n=3, m=2, p=2):
    while True:
        A = rng.standard_normal((n, n))
        if abs(np.linalg.det(A)) > 1e-3:
            return SwitchedLinearSystem(A, rng.standard_normal((n, m)), rng.standard_normal((p, n)))


def random_signal(rng, T):
    return Signal(rng.integers(0, 2, size=T).tolist() or [1])


def test_system_validation():
    with pytest.raises(ValueError):
        SwitchedLinearSystem(np.zeros((2, 2)), np.eye(2), np.eye(2))  # singular A
    with pytest.raises(ValueError):
        SwitchedLinearSystem(np.eye(2), np.ones((3, 1)), np.eye(2))  # B rows
    with pytest.raises(ValueError):
        SwitchedLinearSystem(np.eye(2), np.ones((2, 1)), np.ones((1, 3)))  # C cols
    sys = SwitchedLinearSystem(np.eye(2), np.ones((2, 1)), np.ones((1, 2)))
    assert (sys.n, sys.m, sys.p) == (2, 1, 1)


def test_simulate_dropped_second_input():
    sys = SwitchedLinearSystem(np.eye(2), np.eye(2), np.eye(2))
    e1 = np.array([1.0, 0.0])
    states, outputs = simulate(sys, Signal("10"), np.zeros(2), [e1, e1])
    assert np.allclose(states[2], e1)
    assert outputs[1] is None


def test_simulate_scalar_hand_checks():
    sys = SwitchedLinearSystem([[2.0]], [[1.0]], [[1.0]])
    states, _ = simulate(sys, Signal("11"), [1.0], [[0.0], [0.0]])
    assert states[2] == pytest.approx(4.0)
    states, outputs = simulate(sys, Signal("01"), [0.0], [[5.0], [1.0]])
    assert states[2] == pytest.approx(1.0)
    assert outputs[0] is None and outputs[1] is not None


def test_simulate_dimension_errors():
    sys = SwitchedLinearSystem([[2.0]], [[1.0]], [[1.0]])
    with pytest.raises(ValueError):
        simulate(sys, Signal("11"), [0.0], [[1.0]])


def test_controllability_matrix_examples():
    sys = SwitchedLinearSystem([[2.0]], [[1.0]], [[1.0]])
    assert np.allclose(controllability_matrix(sys, Signal("11")), [[2.0, 1.0]])
    assert np.allclose(controllability_matrix(sys, Signal("00")), [[0.0, 0.0]])


def test_controllability_matches_simulation():
    rng = np.random.default_rng(11)
    for _ in range(25):
        sys = random_sys(rng)
        T = int(rng.integers(1, 7))
        s = random_signal(rng, T)
        u = rng.standard_normal((T, sys.m))
        xT = simulate(sys, s, np.zeros(sys.n), u)[0][T]
        Cm = controllability_matrix(sys, s)
        predicted = Cm @ u.ravel()
        assert np.linalg.norm(predicted - xT) <= 1e-10 * max(1.0, np.linalg.norm(xT))


def test_observability_matrix_examples():
    sys = SwitchedLinearSystem([[2.0]], [[1.0]], [[1.0]])
    assert np.allclose(observability_matrix(sys, Signal("101")).ravel(), [1.0, 0.0, 4.0])
    rng = np.random.default_rng(5)
    sys = random_sys(rng, n=3, m=1, p=1)
    O = observability_matrix(sys, Signal("111"))
    classical = np.vstack([sys.C, sys.C @ sys.A, sys.C @ sys.A @ sys.A])
    assert np.allclose(O, classical)


def test_observability_kernel_means_indistinguishable():
    rng = np.random.default_rng(21)
    # build a system observable only through one state: C = e1'
    A = np.diag([1.0, 2.0])
    sys = SwitchedLinearSystem(A, np.ones((2, 1)), np.array([[1.0, 0.0]]))
    s = Signal("11")
    O = observability_matrix(sys, s)
    # x0 in the kernel produces the same outputs as the origin
    x0 = np.array([0.0, 1.0])
    assert np.allclose(O @ x0, 0.0)
    u = np.zeros((2, 1))
    _, ya = simulate(sys, s, x0, u)
    _, yb = simulate(sys, s, np.zeros(2), u)
    for a, b in zip(ya, yb):
        assert np.allclose(a, b)


def test_gramian_examples():
    eye = SwitchedLinearSystem(np.eye(3), np.eye(3), np.eye(3))
    assert np.allclose(reachability_gramian(eye, Signal("1111")), 4 * np.eye(3))
    scalar = SwitchedLinearSystem([[2.0]], [[1.0]], [[1.0]])
    assert np.allclose(reachability_gramian(scalar, Signal("01")), [[1.0]])
    assert np.allclose(reachability_gramian(scalar, Signal("00")), [[0.0]])


def test_gramian_monotone_in_support_order():
    rng = np.random.default_rng(3)
    for _ in range(40):
        sys = random_sys(rng)
        T = int(rng.integers(1, 7))
        s2_bits = rng.integers(0, 2, size=T)
        mask = rng.integers(0, 2, size=T)
        s1_bits = s2_bits * mask
        s1, s2 = Signal(s1_bits.tolist()), Signal(s2_bits.tolist())
        assert dominates(s1, s2)
        diff = reachability_gramian(sys, s2) - reachability_gramian(sys, s1)
        assert np.linalg.eigvalsh(diff)[0] >= -1e-10 * max(1.0, np.abs(diff).max())


def test_numerical_rank():
    assert numerical_rank(np.eye(4)) == 4
    assert numerical_rank(np.zeros((3, 5))) == 0
    assert numerical_rank([[1.0, 1.0], [1.0, 1.0]]) == 1


def test_first_full_rank_time_examples():
    scalar = SwitchedLinearSystem([[2.0]], [[1.0]], [[1.0]])
    assert first_full_rank_time(scalar, Signal("01")) == 1
    assert first_full_rank_time(scalar, Signal("0000")) is None
    rng = np.random.default_rng(9)
    sys = random_sys(rng, n=3, m=1, p=1)
    assert first_full_rank_time(sys, Signal("11111")) == 2  # n-1 for p=1


def test_first_full_rank_time_antitone():
    rng = np.random.default_rng(13)
    for _ in range(40):
        sys = random_sys(rng, n=2, m=1, p=1)
        T = int(rng.integers(2, 8))
        s2_bits = rng.integers(0, 2, size=T)
        s1_bits = s2_bits * rng.integers(0, 2, size=T)
        t1 = first_full_rank_time(sys, Signal(s1_bits.tolist()))
        t2 = first_full_rank_time(sys, Signal(s2_bits.tolist()))
        t1 = math.inf if t1 is None else t1
        t2 = math.inf if t2 is None else t2
        assert t1 >= t2
