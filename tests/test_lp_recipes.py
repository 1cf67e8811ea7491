"""LP regressions on the randomized study's own plants (n=10, m=7, T=12, k=1).

The plants are drawn exactly as `run_study` draws them, so every recipe,
the ill-conditioned `gaussian_x10` among them, is covered, and not only
benign standard-normal matrices.
"""

import numpy as np
import pytest

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


@pytest.mark.parametrize("sample", [2, 3, 4], ids=["gaussian_x10", "orthogonal_diag", "gaussian"])
def test_control_time_lps_are_certified_on_study_plants(lp_log, sample):
    sys = study_plant(7, sample)
    report = worst_control_time(sys, 1, 12, np.ones(sys.n))
    assert "failed_signals" not in report.info
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
    report = worst_control_time(sys, 1, 12, np.ones(sys.n))
    assert "failed_signals" not in report.info
    assert all(e.status == INFEASIBLE for e in report.per_signal)
    assert max(res.iterations for *_, res in lp_log) < _MAX_ITER
    for c, A, b, res in lp_log:
        assert_certified(c, A, b, res)
