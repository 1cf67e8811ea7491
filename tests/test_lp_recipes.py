"""LP regressions on the randomized study's own plants (n=10, m=7, T=12, k=1).

The plants are drawn exactly as `run_study` draws them, so every recipe,
the ill-conditioned `gaussian_x10` among them, is covered, and not only
benign standard-normal matrices.
"""

import numpy as np
import pytest

from test_batched import control_time_oracle, longdouble_dual_bound
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
    peak_within,
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
    """Every (c, A, b, result, call) the solvers send through the LP layer.

    call is the (C, rhs, U, limit) of the _min_inf_norm call that built
    the LP, against which a stopped LP is checked.
    """
    log, calls = [], []
    inf_norm, solve = solvers._min_inf_norm, solvers.solve_standard_lp

    def logged_inf_norm(C, rhs, U, coeff, limit=None):
        calls.append((C, rhs, U, limit))
        return inf_norm(C, rhs, U, coeff, limit)

    def logged(c, A, b, stop=None):
        res = solve(c, A, b, stop=stop)
        log.append((c, A, b, res, calls[-1]))
        return res

    monkeypatch.setattr(solvers, "_min_inf_norm", logged_inf_norm)
    monkeypatch.setattr(solvers, "solve_standard_lp", logged)
    return log


def assert_lp_decided(c, A, b, res, call):
    """An optimal LP carries its certificate; a stopped one, a dual whose bound lies above its limit.

    The bound b'y / ||C'y||_1 of y = U_r y_1, y_1 the dual on the LP's
    U_r'C rows, is recomputed in long double from the returned dual.
    """
    if res.status == "stopped":
        C, rhs, U, limit = call
        assert limit is not None
        assert longdouble_dual_bound(C, rhs, U @ res.dual[: U.shape[1]]) > limit
    else:
        assert_certified(c, A, b, res)


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
    for entry in lp_log:
        assert_lp_decided(*entry)


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
    assert max(entry[3].iterations for entry in lp_log) < _MAX_ITER
    for entry in lp_log:
        assert_lp_decided(*entry)


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
        [(_, [U], [s], [V], [coeff], [reached])] = solvers._factors(C[None], b)
        res = min_inf_norm(C, b)
        if not reached:
            assert res.status == INFEASIBLE
            continue
        lower = solvers._peak_lower(C, b, U @ (coeff / s**2))
        u2 = V @ (coeff / s)
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


@pytest.mark.parametrize("scale", [1.0, 0.3], ids=["x0=1", "x0=0.3"])
def test_peak_lp_stop_agrees_with_the_optimum(lp_log, scale):
    # every prefix the LP decides gets the verdict of min_inf_norm solved to
    # its optimum, and a stopping dual's bound is at most that optimum
    decided = stopped = 0
    for sample in (2, 3, 4):
        sys = study_plant(7, sample)
        for key, C, b in prefix_targets(sys, 12, scale * np.ones(sys.n)):
            lp_log.clear()
            by, res = peak_within(C, b, 1.0)
            if by != "lp_solves":
                continue
            [(*_, lp, (_, _, U, limit))] = lp_log
            optimum = min_inf_norm(C, b)
            assert optimum.status == OPTIMAL, key
            assert res.status == (OPTIMAL if optimum.value <= limit else INFEASIBLE), key
            assert res.iterations == lp.iterations <= optimum.iterations, key
            if lp.status == "stopped":
                bound = solvers._peak_lower(C, b, U @ lp.dual[: U.shape[1]])
                assert limit < bound <= optimum.value * (1.0 + 1e-9), key
                stopped += 1
            decided += 1
    # x0 = 1 leaves 5 prefixes to the LP, all on orthogonal_diag; x0 = 0.3
    # leaves 130, on orthogonal_diag and gaussian.  Every LP whose optimum
    # is above the box stops: all 5, and 44 of the 130
    assert decided == (5 if scale == 1.0 else 130)
    assert stopped == (5 if scale == 1.0 else 44)


def test_peak_lp_a_hair_off_its_optimum():
    # the stop never fires while the optimum is within the limit, so a limit
    # a hair above a certified optimum returns that optimum, from the same
    # iterations; a hair below, no input is within the limit
    sys = study_plant(7, 3)
    checked = 0
    for key, C, b in prefix_targets(sys, 12, 0.3 * np.ones(sys.n)):
        if peak_within(C, b, 1.0)[0] != "lp_solves":
            continue
        optimum = min_inf_norm(C, b)
        assert optimum.status == OPTIMAL, key
        for hair in (1e-12, -1e-12):
            by, res = peak_within(C, b, optimum.value * (1.0 + hair) / (1.0 + FEAS_TOL))
            if hair > 0:
                assert res.status == OPTIMAL, key
                if by == "lp_solves":
                    assert (res.value, res.iterations) == (optimum.value, optimum.iterations), key
            else:
                assert res.status == INFEASIBLE, key
        checked += 1
    assert checked == 73


def test_control_time_counts_its_lp_iterations(lp_log):
    # seed 7's orthogonal_diag plant at x0 = 1: the 5 LPs stop within the
    # first two iterations (66 iterations when solved to their optima)
    sys = study_plant(7, 3)
    counters = worst_control_time(sys, 1, 12, np.ones(sys.n)).info["counters"]
    assert (counters["prefixes"], counters["lower_screen"], counters["lp_solves"]) == (137, 127, 5)
    assert counters["iterations"] == sum(entry[3].iterations for entry in lp_log) <= 10
    assert all(entry[3].status == "stopped" for entry in lp_log)


@pytest.mark.parametrize(
    "T, scale, lps", [(10, 1.0, 148), (12, 0.25, 17)], ids=["T=10-x0=1", "T=12-x0=0.25"]
)
def test_exhaustive_control_time_equals_minimal_where_lps_decide(T, scale, lps):
    # on orthogonal_diag the least-norm dual is loose, so the LP decides
    # many prefixes; x0 = 0.25 * 1 parks every signal, by t = 9 at worst
    sys = study_plant(7, 3)
    x0 = scale * np.ones(sys.n)
    fast = worst_control_time(sys, 1, T, x0)
    full = worst_control_time(sys, 1, T, x0, mode="exhaustive")
    assert full.info["counters"]["lp_solves"] == lps > 0
    assert (full.worst_value, full.argmax_signal) == (fast.worst_value, fast.argmax_signal)
    assert "failed_signals" not in full.info
    verdicts = {e.signal.bits: (e.value, e.status) for e in full.per_signal}
    assert all(verdicts[e.signal.bits] == (e.value, e.status) for e in fast.per_signal)
