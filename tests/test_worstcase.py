import math

import numpy as np
import pytest
from numpy.random import PCG64, Generator, SeedSequence

from dropctrl import (
    EXHAUSTIVE,
    MAX_ITERATIONS,
    MINIMAL,
    Automaton,
    CapExceeded,
    LqrWeights,
    Polytope,
    Signal,
    SwitchedLinearSystem,
    build_k_constraint_automaton,
    candidate_signals,
    controllability_matrix,
    min_energy,
    minimal_signals_bfs,
    polytope_reachable,
    random_system,
    reachability_gramian,
    worst_control_time,
    worst_energy,
    worst_estimation_time,
    worst_fixed_input_lqr,
    worst_fuel,
    worst_fuel_energy,
    worst_lqr,
)
from dropctrl import worstcase
from dropctrl.study import _discard_reason
from dropctrl.worstcase import PROBLEMS


def scalar_sys(a=2.0):
    return SwitchedLinearSystem([[a]], [[1.0]], [[1.0]])


def random_sys(rng, n, m, p):
    while True:
        A = rng.standard_normal((n, n))
        if abs(np.linalg.det(A)) > 1e-3:
            return SwitchedLinearSystem(A, rng.standard_normal((n, m)), rng.standard_normal((p, n)))


def test_candidate_signals_modes():
    assert candidate_signals(1, 4, "minimal").to_strings() == ("0101", "0110", "1010")
    assert len(candidate_signals(1, 4, "exhaustive")) == 8
    a = Automaton([1], [(1, 1, "1"), (1, 1, "0")], [1])
    assert candidate_signals(a, 2, "minimal").to_strings() == ("00",)
    with pytest.raises(ValueError):
        candidate_signals(1, 3, "bogus")
    with pytest.raises(TypeError):
        candidate_signals("1", 3)
    dead = Automaton([1, 2], [(1, 2, "0")], [1])
    with pytest.raises(ValueError):
        candidate_signals(dead, 3)


def test_exhaustive_cap_enforced():
    with pytest.raises(CapExceeded):
        candidate_signals(2, 14, "exhaustive", cap=64)


def test_cap_bounds_exhaustive_enumeration_only():
    a = build_k_constraint_automaton(1)
    minimal = candidate_signals(a, 30, MINIMAL, cap=64)
    assert len(minimal) == 4410
    assert minimal == minimal_signals_bfs(1, 30)
    with pytest.raises(CapExceeded):
        candidate_signals(a, 30, EXHAUSTIVE, cap=64)
    even = Automaton([1], [(1, 1, "10")], [1])  # no word of odd length
    for mode in (MINIMAL, EXHAUSTIVE):
        with pytest.raises(ValueError, match="admits no signals"):
            candidate_signals(even, 3, mode, cap=64)
        with pytest.raises(ValueError, match="T must be >= 1"):
            candidate_signals(a, 0, mode)
        with pytest.raises(ValueError, match="cap must be >= 1"):
            candidate_signals(a, 4, mode, cap=0)


# a valid value of each argument a PROBLEMS row takes, for the scalar plant
ROW_ARGS = {
    "T": 4,
    "weights": LqrWeights.identity(1, 1, 4),
    "x0": [1.0],
    "x_f": [1.0],
    "poly": Polytope([[0.5]]),
    "input_bound": None,
    "gamma1": 1.0,
    "gamma2": 1.0,
}


@pytest.mark.parametrize("command", list(PROBLEMS))
def test_bad_T_mode_or_cap_is_refused_before_per_call_data(command, monkeypatch):
    # the package's own message, not numpy's "negative dimensions", and no block built
    for name in ("_obsv_blocks", "_ctrb_blocks", "lti_gains"):
        monkeypatch.setattr(worstcase, name, lambda *a: pytest.fail("per-call data was built"))
    problem = PROBLEMS[command]
    values = {name: ROW_ARGS[name] for name in problem.args}

    def run(**bad):
        return problem.run(scalar_sys(), 1, **{**values, **bad})

    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        run(mode="bogus")
    for cap in (0, -1):
        with pytest.raises(ValueError, match="cap must be >= 1"):
            run(mode=EXHAUSTIVE, cap=cap)
    if "T" in problem.args:  # the others take their horizon from LqrWeights, which checks it
        for T in (-3, 0):
            with pytest.raises(ValueError, match="T must be >= 1"):
                run(T=T)


def test_estimation_worked_example():
    rep = worst_estimation_time(scalar_sys(), 1, 4)
    assert rep.worst_value == 1.0
    assert str(rep.argmax_signal) == "0101"  # lexicographically smallest attainer
    assert rep.info["worst_steps"] == 2
    assert rep.feasible
    values = {str(e.signal): e.value for e in rep.per_signal}
    assert values == {"0101": 1.0, "0110": 1.0, "1010": 0.0}


def test_estimation_all_ones_classical():
    rng = np.random.default_rng(1)
    sys = random_sys(rng, 3, 1, 1)
    ones_only = Automaton([1], [(1, 1, "1")], [1])
    rep = worst_estimation_time(sys, ones_only, 5, mode="exhaustive")
    assert rep.worst_value == 2.0  # n-1 for p=1


def test_estimation_infeasible_reported_as_inf():
    dead = Automaton([1, 2], [(1, 2, "0"), (2, 1, "0")], [1, 2])
    rep = worst_estimation_time(scalar_sys(), dead, 4, mode="exhaustive")
    assert math.isinf(rep.worst_value)
    assert not rep.feasible


def test_control_time_worked_example():
    rep = worst_control_time(scalar_sys(0.5), 1, 4, [0.1])
    assert rep.worst_value == 1.0
    assert rep.info["worst_steps"] == 2


def test_control_time_zero_state():
    rep = worst_control_time(scalar_sys(), 1, 4, [0.0])
    assert rep.worst_value == 0.0
    assert all(e.value == 0.0 for e in rep.per_signal)


def test_control_time_unreachable_is_inf():
    # |u| <= 1 can never cancel a fast expanding state
    rep = worst_control_time(scalar_sys(50.0), 1, 3, [10.0])
    assert math.isinf(rep.worst_value)


def test_fuel_energy_worked_examples():
    sys = scalar_sys()
    rep = worst_fuel(sys, 1, 2, [1.0])
    assert rep.worst_value == pytest.approx(1.0)
    assert str(rep.argmax_signal) == "01"
    assert {str(e.signal): e.value for e in rep.per_signal} == {"01": 1.0, "10": 0.5}
    rep = worst_energy(sys, 1, 2, [1.0])
    assert rep.worst_value == pytest.approx(1.0)
    rep = worst_fuel(sys, 1, 2, [0.0])
    assert rep.worst_value == 0.0


def test_fuel_infeasible_signal_flagged():
    # target outside the zero-column range for the all-drop signal
    a = Automaton([1], [(1, 1, "0"), (1, 1, "1")], [1])
    rep = worst_fuel(scalar_sys(), a, 2, [1.0], mode="exhaustive")
    per = {str(e.signal): e for e in rep.per_signal}
    assert per["00"].status == "infeasible"
    assert math.isinf(rep.worst_value)


def test_worst_fuel_energy_combined():
    rep = worst_fuel_energy(scalar_sys(), 1, 2, [1.0], 1.0, 1.0)
    # per-signal optimum: 01 -> u=(0,1): 1+1 = 2; 10 -> u=(.5,0): .5+.5 = 1
    assert rep.worst_value == pytest.approx(2.0, rel=1e-6)
    assert str(rep.argmax_signal) == "01"


def test_worst_lqr_worked_example():
    a = Automaton([1], [(1, 1, "0"), (1, 1, "1")], [1])
    w = LqrWeights([[1.0]], [[1.0]], [[1.0]], 1)
    rep = worst_lqr(scalar_sys(), a, w, [1.0], mode="minimal")
    assert rep.worst_value == pytest.approx(5.0)
    rep = worst_lqr(scalar_sys(), a, w, [0.0], mode="exhaustive")
    assert rep.worst_value == 0.0


def test_worst_fixed_lqr_worked_example():
    a = Automaton([1], [(1, 1, "0"), (1, 1, "1")], [1])
    w = LqrWeights([[1.0]], [[1.0]], [[1.0]], 1)
    rep = worst_fixed_input_lqr(scalar_sys(), a, w, [1.0], mode="exhaustive")
    assert rep.worst_value == pytest.approx(6.0)
    assert {str(e.signal): e.value for e in rep.per_signal} == {"0": 6.0, "1": 3.0}
    rep_min = worst_fixed_input_lqr(scalar_sys(), a, w, [1.0], mode="minimal")
    assert "warning" in rep_min.info


def test_nan_cost_is_a_solver_failure():
    # A'PA overflows to inf - inf: every cost is NaN, which is no verdict
    sys = SwitchedLinearSystem(np.diag([1e30, 1e30]), [[1.0], [0.0]], np.eye(2))
    w = LqrWeights.identity(2, 1, 6)
    rep = worst_lqr(sys, 1, w, np.ones(2))
    words = ["010101", "010110", "011010", "101010", "101101"]
    assert [(str(e.signal), e.value, e.status) for e in rep.per_signal] == [
        (word, math.inf, MAX_ITERATIONS) for word in words
    ]
    assert rep.info["failed_signals"] == words
    assert (rep.worst_value, str(rep.argmax_signal), rep.feasible) == (math.inf, words[0], False)
    # the study discards such a sample instead of reading its cost
    assert _discard_reason(PROBLEMS["lqr-maxmin"], "nominal", rep) == "solver_failure"


def test_fixed_lqr_all_ones_automaton_gives_nominal():
    ones_only = Automaton([1], [(1, 1, "1")], [1])
    w = LqrWeights([[1.0]], [[1.0]], [[1.0]], 1)
    rep = worst_fixed_input_lqr(scalar_sys(), ones_only, w, [1.0], mode="exhaustive")
    assert rep.worst_value == pytest.approx(3.0)  # the nominal optimal cost


def test_polytope_examples():
    eye = SwitchedLinearSystem(np.eye(2), np.eye(2), np.eye(2))
    ones_only = Automaton([1], [(1, 1, "1")], [1])
    boundary = math.sqrt(3.0) * np.array([[1.0, 0.0], [0.0, -1.0]])
    ok, rep = polytope_reachable(eye, ones_only, 3, Polytope(boundary))
    assert ok and rep.worst_value == pytest.approx(1.0)
    ok, _ = polytope_reachable(eye, 1, 3, Polytope(np.array([[0.0, 0.0]])))
    assert ok
    # worst minimal signal for k=1, T=3 has a single success: W = I
    ok, rep = polytope_reachable(eye, 1, 3, Polytope(np.array([[1.2, 0.9]])))
    assert not ok
    assert rep.worst_value == pytest.approx(1.2**2 + 0.9**2)


def test_polytope_singular_gramian_unreachable_direction():
    sys = SwitchedLinearSystem(np.eye(2), np.array([[1.0], [0.0]]), np.eye(2))
    ones_only = Automaton([1], [(1, 1, "1")], [1])
    ok, rep = polytope_reachable(sys, ones_only, 2, Polytope(np.array([[0.0, 0.5]])))
    assert not ok
    assert math.isinf(rep.worst_value)
    ok, _ = polytope_reachable(sys, ones_only, 2, Polytope(np.array([[1.0, 0.0]])))
    assert ok


def test_polytope_scaling_monotone():
    rng = np.random.default_rng(3)
    sys = random_sys(rng, 2, 2, 1)
    V = rng.standard_normal((3, 2))
    ok_base, rep = polytope_reachable(sys, 1, 4, Polytope(V))
    if ok_base:
        for alpha in (0.9, 0.5, 0.1):
            ok, _ = polytope_reachable(sys, 1, 4, Polytope(alpha * V))
            assert ok


def test_mode_equivalence_small_random():
    rng = np.random.default_rng(11)
    for _ in range(12):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        p = int(rng.integers(1, 3))
        sys = random_sys(rng, n, m, p)
        k = int(rng.integers(1, 3))
        T = int(rng.integers(2, 6))
        x = rng.standard_normal(n)
        a = worst_estimation_time(sys, k, T, mode="minimal").worst_value
        b = worst_estimation_time(sys, k, T, mode="exhaustive").worst_value
        assert a == b
        fa = worst_fuel(sys, k, T, x, mode="minimal").worst_value
        fb = worst_fuel(sys, k, T, x, mode="exhaustive").worst_value
        if math.isinf(fa) or math.isinf(fb):
            assert math.isinf(fa) and math.isinf(fb)
        else:
            assert fa == pytest.approx(fb, rel=1e-6)


def test_reports_deterministic():
    rng = np.random.default_rng(13)
    sys = random_sys(rng, 3, 2, 2)
    w = LqrWeights.identity(3, 2, 6)
    base = worst_lqr(sys, 1, w, np.ones(3), mode="exhaustive")
    again = worst_lqr(sys, 1, w, np.ones(3), mode="exhaustive")
    assert again.worst_value == base.worst_value
    assert again.argmax_signal == base.argmax_signal
    assert [(str(e.signal), e.value) for e in again.per_signal] == [
        (str(e.signal), e.value) for e in base.per_signal
    ]


def test_control_time_matches_scalar_closed_form():
    # scalar plants admit a closed form: horizon t is feasible iff
    # |a^{t+1} x0| <= sum of |a^{t-i} b| over successful steps i <= t
    rng = np.random.default_rng(17)
    for _ in range(20):
        a = float(rng.uniform(-2.0, 2.0)) or 0.5
        b = float(rng.uniform(0.2, 2.0))
        x0 = float(rng.uniform(-2.0, 2.0))
        T = int(rng.integers(2, 7))
        sys = SwitchedLinearSystem([[a]], [[b]], [[1.0]])
        rep = worst_control_time(sys, 1, T, [x0], mode="exhaustive")
        for entry in rep.per_signal:
            s = entry.signal
            expected = math.inf
            for t in range(T):
                budget = sum(abs(a ** (t - i) * b) for i in range(t + 1) if s[i])
                if abs(a ** (t + 1) * x0) <= budget + 1e-12:
                    expected = t
                    break
            assert entry.value == expected, (str(s), a, b, x0)


def test_energy_value_squares_to_gramian_form():
    # least-norm energy reaching x_f equals sqrt(x_f' W^+ x_f), tying the
    # input-design route to the Gramian route
    rng = np.random.default_rng(19)
    for _ in range(15):
        sys = random_sys(rng, 3, 2, 1)
        T = int(rng.integers(2, 6))
        bits = rng.integers(0, 2, size=T)
        if not bits.any():
            bits[0] = 1
        s = Signal(bits.tolist())
        C = controllability_matrix(sys, s)
        xf = C @ rng.standard_normal(C.shape[1])
        res = min_energy(C, xf)
        W = reachability_gramian(sys, s).W
        form = float(xf @ np.linalg.pinv(W) @ xf)
        assert res.value**2 == pytest.approx(form, rel=1e-8, abs=1e-10)


def test_argmax_tie_break_is_lexicographic():
    # A = identity makes every two-success signal equivalent
    eye = SwitchedLinearSystem(np.eye(1), np.eye(1), np.eye(1))
    rep = worst_energy(eye, 1, 3, [1.0], mode="exhaustive")
    attainers = [str(e.signal) for e in rep.per_signal if e.value == rep.worst_value]
    assert str(rep.argmax_signal) == min(attainers)


# the study's badly scaled recipe at n=3: the all-ones C has kappa 4.5e7 to
# 4.5e9 at T=8, where a rank or residual cut placed near rounding wrongly
# reports +inf
def x10_plant(seed):
    rng = Generator(PCG64(SeedSequence(seed, spawn_key=(1000, 2))))
    return random_system(3, 2, 2, "gaussian_x10", rng, screen_horizon=8)


@pytest.mark.parametrize("seed, k", [(3, 1), (3, 2), (9, 2), (27, 1), (27, 2)])
def test_energy_minimal_equals_exhaustive_on_ill_conditioned_plants(seed, k):
    sys = x10_plant(seed)
    fast = worst_energy(sys, k, 8, np.ones(3), mode="minimal").worst_value
    full = worst_energy(sys, k, 8, np.ones(3), mode="exhaustive").worst_value
    assert math.isfinite(full)
    assert full == pytest.approx(fast, rel=1e-8)


def test_min_energy_reaches_target_of_ill_conditioned_plant():
    C = controllability_matrix(x10_plant(9), Signal.ones(8))
    sv = np.linalg.svd(C, compute_uv=False)
    assert sv[0] / sv[-1] > 1e9  # singular values 2.6e10, 3.0e7 and 5.9
    res = min_energy(C, np.ones(3))
    assert res.status == "optimal"
    u_ref, *_ = np.linalg.lstsq(C, np.ones(3), rcond=None)
    assert res.value == pytest.approx(np.linalg.norm(u_ref), rel=1e-6)


def test_polytope_finite_on_ill_conditioned_plant():
    sys = x10_plant(9)
    poly = Polytope(0.01 * np.vstack([np.eye(3), -np.eye(3)]))
    ok, rep = polytope_reachable(sys, 1, 8, poly)
    assert ok and math.isfinite(rep.worst_value)
    for entry in rep.per_signal:
        C = controllability_matrix(sys, entry.signal)
        expected = max(min_energy(C, v).value ** 2 for v in poly.vertices)
        assert entry.status == "optimal"
        assert entry.value == pytest.approx(expected, rel=1e-8)
