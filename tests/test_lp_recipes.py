"""LP regressions on the randomized study's own plants (n=10, m=7, T=12, k=1).

The plants are drawn exactly as `run_study` draws them, so every recipe,
the ill-conditioned `gaussian_x10` among them, is covered, and not only
benign standard-normal matrices.
"""

import numpy as np
import pytest

from test_batched import control_time_oracle
from test_simplex import assert_certified

import dropctrl.solvers as solvers
from dropctrl import (
    INFEASIBLE,
    MAX_ITERATIONS,
    OPTIMAL,
    Signal,
    candidate_signals,
    controllability_matrix,
    min_fuel,
    min_inf_norm,
    worst_control_time,
)
from dropctrl.simplex import _MAX_ITER
from dropctrl.solvers import FEAS_TOL
from dropctrl.study import GENERATION_METHODS, _sample_rng, random_system


def study_plant(seed, sample, n=10, m=7, T=12):
    method = GENERATION_METHODS[sample % len(GENERATION_METHODS)]
    return random_system(n, m, m, method, _sample_rng(seed, sample), screen_horizon=max(n, T))


@pytest.fixture
def lp_log(monkeypatch):
    """Every (c, A, b, result) the solvers send through the LP layer."""
    log = []
    original = solvers.solve_standard_lp

    def logged(c, A, b):
        res = original(c, A, b)
        log.append((c, A, b, res))
        return res

    monkeypatch.setattr(solvers, "solve_standard_lp", logged)
    return log


def assert_solve_certified(res, target):
    assert res.residual <= FEAS_TOL * np.linalg.norm(target)
    assert res.duality_gap <= 1e-9


@pytest.mark.parametrize("sample", [3, 4], ids=["orthogonal_diag", "gaussian"])
def test_min_fuel_matches_highs_on_study_plants(sample):
    linprog = pytest.importorskip("scipy.optimize").linprog
    sys = study_plant(7, sample)
    xf = np.ones(sys.n)
    for s in candidate_signals(1, 12):
        C = controllability_matrix(sys, s)
        res = min_fuel(C, xf)
        assert res.status == OPTIMAL, str(s)
        assert_solve_certified(res, xf)
        q = C.shape[1]
        ref = linprog(np.ones(2 * q), A_eq=np.hstack([C, -C]), b_eq=xf, bounds=(0, None), method="highs")
        assert ref.status == 0
        assert res.value == pytest.approx(ref.fun, rel=1e-6), str(s)


def unscreened_scan(sys, report, x0):
    """The report's signals through control_time_oracle; its memo holds one LP per distinct prefix."""
    memo = {}
    verdicts = [control_time_oracle(sys, e.signal, x0, memo) for e in report.per_signal]
    return verdicts, memo


@pytest.mark.parametrize("sample", [2, 3, 4], ids=["gaussian_x10", "orthogonal_diag", "gaussian"])
def test_control_time_lps_are_certified_on_study_plants(lp_log, sample):
    # the screens decide most horizons without an LP, so the LPs of every
    # distinct prefix the scan visits are solved here directly
    sys = study_plant(7, sample)
    x0 = np.ones(sys.n)
    report = worst_control_time(sys, 1, 12, x0)
    assert "failed_signals" not in report.info
    verdicts, memo = unscreened_scan(sys, report, x0)
    assert [(e.value, e.status) for e in report.per_signal] == verdicts
    assert len(memo) == report.info["counters"]["prefixes"]
    assert lp_log
    for c, A, b, res in lp_log:
        assert_certified(c, A, b, res)


def test_min_fuel_on_gaussian_x10_is_certified_or_stops_early():
    # cond(C) is about 2e11 here: rounding in C u alone is near 1e-6 ||x_f||,
    # so no verdict may claim FEAS_TOL, and the solver must see that soon
    sys = study_plant(7, 2)
    xf = np.ones(sys.n)
    for s in candidate_signals(1, 12):
        res = min_fuel(controllability_matrix(sys, s), xf)
        if res.status == OPTIMAL:
            assert_solve_certified(res, xf)
        else:
            assert res.status == MAX_ITERATIONS
            assert res.iterations < _MAX_ITER // 4


def test_tiny_inf_norm_optimum_on_gaussian_x10():
    # signal 010101010101 at horizon 9: the scaled optimum is about 8e-11, so
    # only a gap relative to the value itself certifies it
    sys = study_plant(7, 2)
    target = np.ones(sys.n)
    for _ in range(10):
        target = sys.A @ target
    res = min_inf_norm(controllability_matrix(sys, Signal("0101010101")), -target)
    assert res.status == OPTIMAL
    assert_solve_certified(res, target)
    assert res.value == pytest.approx(15343.03, rel=1e-6)


def test_control_time_finishes_inside_the_iteration_cap(lp_log):
    # seed 11, sample 8 (gaussian_x10): a pivoting solver stalled on one of
    # these LPs for 178,500 pivots
    sys = study_plant(11, 8)
    x0 = np.ones(sys.n)
    report = worst_control_time(sys, 1, 12, x0)
    assert "failed_signals" not in report.info
    assert all(e.status == INFEASIBLE for e in report.per_signal)
    verdicts, memo = unscreened_scan(sys, report, x0)
    assert [(e.value, e.status) for e in report.per_signal] == verdicts
    assert len(memo) == report.info["counters"]["prefixes"]
    assert max(res.iterations for *_, res in lp_log) < _MAX_ITER
    for c, A, b, res in lp_log:
        assert_certified(c, A, b, res)


def prefix_targets(sys, T, x0):
    """(bits, C, b) for each distinct prefix of the k=1 minimal signals, b = -A^{t+1} x0."""
    targets = [-np.linalg.matrix_power(sys.A, t + 1) @ x0 for t in range(T)]
    keys = {s.bits[: t + 1] for s in candidate_signals(1, T) for t in range(T)}
    for key in sorted(keys):
        yield key, controllability_matrix(sys, Signal(key)), targets[len(key) - 1]


@pytest.mark.parametrize("sample", [2, 3, 4], ids=["gaussian_x10", "orthogonal_diag", "gaussian"])
def test_screen_bounds_bracket_the_certified_lp_value(sample):
    # the lower screen's dual bound <= the least peak <= the least-norm input's peak
    sys = study_plant(7, sample)
    checked = 0
    for key, C, b in prefix_targets(sys, 12, 0.3 * np.ones(sys.n)):
        U, s, V = solvers._factor(C)
        coeff, reached = solvers._range_test(U, b)
        res = min_inf_norm(C, b)
        if not reached:
            assert res.status == INFEASIBLE
            continue
        lower, u2 = solvers._peak_bounds(C, b, U, coeff, s, V)
        if res.status == OPTIMAL:
            assert lower <= res.value * (1.0 + 1e-9), key
            assert res.value <= np.abs(u2).max() * (1.0 + 1e-9), key
            checked += 1
    assert checked >= 100


def test_each_screen_and_the_lp_against_the_unscreened_scan():
    # at x0 = 0.3 * 1 on seed 7's orthogonal_diag plant every test decides
    # some prefix: the range test, both screens and the LP
    sys = study_plant(7, 3)
    x0 = 0.3 * np.ones(sys.n)
    report = worst_control_time(sys, 1, 12, x0)
    counters = report.info["counters"]
    decided = ("off_range", "upper_screen", "lower_screen", "lp_solves")
    assert all(counters[by] > 0 for by in decided), counters
    assert counters["prefixes"] == sum(counters[by] for by in decided)
    assert counters["prefixes"] + counters["memo_hits"] == sum(
        int(e.value) + 1 if e.status == OPTIMAL else 12 for e in report.per_signal
    )
    verdicts, memo = unscreened_scan(sys, report, x0)
    assert [(e.value, e.status) for e in report.per_signal] == verdicts
    assert len(memo) == counters["prefixes"]


@pytest.mark.parametrize("sample", [2, 4], ids=["gaussian_x10", "gaussian"])
def test_exhaustive_control_time_equals_minimal_at_paper_shape(sample):
    # n=10, m=7, T=12: the 377 admissible words against the 28 minimal ones
    sys = study_plant(7, sample)
    x0 = np.ones(sys.n)
    fast = worst_control_time(sys, 1, 12, x0)
    full = worst_control_time(sys, 1, 12, x0, mode="exhaustive")
    assert len(full.per_signal) == 377 and len(fast.per_signal) == 28
    assert (full.worst_value, full.argmax_signal) == (fast.worst_value, fast.argmax_signal)
    assert "failed_signals" not in full.info
