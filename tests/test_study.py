import math

import numpy as np
import pytest

from dropctrl import (
    GENERATION_METHODS,
    Signal,
    StudyConfig,
    controllability_matrix,
    numerical_rank,
    observability_matrix,
    random_system,
    rpd,
    run_study,
)
from dropctrl import study, worstcase
from dropctrl.solvers import INFEASIBLE, MAX_ITERATIONS, SolveResult
from dropctrl.study import SampleRow, _sample_rng, haar_orthogonal


def test_rpd_examples():
    assert rpd(4.0, 2.0) == pytest.approx(100.0)
    assert rpd(5.0, 5.0) == 0.0
    assert rpd(3.0, 2.0) == pytest.approx(50.0)
    with pytest.raises(ValueError):
        rpd(1.0, 0.0)
    with pytest.raises(ValueError):
        rpd(1.0, -2.0)


def test_haar_orthogonal():
    rng = np.random.default_rng(0)
    V = haar_orthogonal(5, rng)
    assert np.allclose(V @ V.T, np.eye(5), atol=1e-12)


def test_random_system_orthogonal_diag_spectrum():
    rng = np.random.default_rng(1)
    sys = random_system(6, 3, 3, "orthogonal_diag", rng)
    assert np.allclose(sys.A, sys.A.T)  # V' D V with the same V is symmetric
    eigs = np.sort(np.abs(np.linalg.eigvalsh(sys.A)))
    # spectrum is 0.1 * nonzero integers in [-25, 25]
    steps = np.round(eigs / 0.1)
    assert np.all(np.abs(eigs - 0.1 * steps) < 1e-12)
    assert eigs.min() >= 0.1 - 1e-12 and eigs.max() <= 2.5 + 1e-12


def test_random_system_screens_and_determinism():
    for method in GENERATION_METHODS:
        a = random_system(4, 2, 2, method, _sample_rng(9, 0))
        b = random_system(4, 2, 2, method, _sample_rng(9, 0))
        assert np.array_equal(a.A, b.A) and np.array_equal(a.B, b.B) and np.array_equal(a.C, b.C)
        ones = Signal.ones(4)
        assert numerical_rank(controllability_matrix(a, ones)) == 4
        assert numerical_rank(observability_matrix(a, ones)) == 4


def test_random_system_reject_bound(monkeypatch):
    monkeypatch.setattr(study, "_MAX_REJECTS", 5)
    rng = np.random.default_rng(3)
    log = []
    with pytest.raises(RuntimeError):
        # impossible screen: 1 input/output cannot excite 4 states in 1 step
        random_system(4, 1, 1, "gaussian", rng, screen_horizon=1, reject_log=log)
    assert len(log) == 5


def test_random_system_rejects_unobservable(monkeypatch):
    # 4 inputs reach 4 states in 1 step, but 1 output sees only one direction of them
    monkeypatch.setattr(study, "_MAX_REJECTS", 3)
    log = []
    with pytest.raises(RuntimeError, match="last reason: unobservable"):
        random_system(4, 4, 1, "gaussian", np.random.default_rng(3), screen_horizon=1, reject_log=log)
    assert log == ["unobservable"] * 3


def test_random_system_rejects_singular_A(monkeypatch):
    draw = study._draw_state_matrix
    draws = []

    def singular_first(n, method, rng):
        A = draw(n, method, rng)
        draws.append(A)
        if len(draws) == 1:
            A = A.copy()
            A[:, 0] = 0.0
        return A

    monkeypatch.setattr(study, "_draw_state_matrix", singular_first)
    log = []
    sys = random_system(4, 2, 2, "gaussian", np.random.default_rng(5), reject_log=log)
    assert log[0] == "singular_A"
    assert len(draws) == len(log) + 1
    assert np.array_equal(sys.A, draws[-1])


def test_study_problem_I_structural():
    cfg = StudyConfig(problem="I", k=1, n=10, m=7, samples=9, T=12, seed=7)
    res = run_study(cfg)
    assert res.retained == 9
    assert res.avg_rpd == pytest.approx(100.0)  # worst takes twice the steps
    for row in res.rows:
        assert row.nominal == 2.0 and row.worst == 4.0


def test_study_rows_deterministic_and_method_mix():
    cfg = StudyConfig(problem="V", k=1, n=3, m=2, samples=7, T=5, seed=11)
    a = run_study(cfg)
    b = run_study(cfg)
    rows_a = [(r.sample_id, r.method, r.rpd_percent, r.nominal, r.worst, r.argmax_signal, r.status) for r in a.rows]
    rows_b = [(r.sample_id, r.method, r.rpd_percent, r.nominal, r.worst, r.argmax_signal, r.status) for r in b.rows]
    assert rows_a == rows_b
    counts = {m: sum(1 for r in a.rows if r.method == m) for m in GENERATION_METHODS}
    assert max(counts.values()) - min(counts.values()) <= 1
    assert a.generator == "numpy-pcg64/seedseq-spawn-per-sample"


def test_study_rpd_nonnegative_retained():
    for prob in ("II", "III", "V"):
        cfg = StudyConfig(problem=prob, k=1, n=3, m=2, samples=6, T=6, seed=5)
        res = run_study(cfg)
        for row in res.rows:
            if row.status == "ok":
                assert row.rpd_percent >= 0.0


def test_study_exhaustive_mode_vi():
    cfg = StudyConfig(problem="VI", k=1, n=3, m=2, samples=6, T=6, seed=13, mode="exhaustive")
    res = run_study(cfg)
    assert res.retained >= 1
    for row in res.rows:
        if row.status == "ok":
            assert row.rpd_percent >= 0.0


@pytest.mark.parametrize(
    "problem, solver, status, reason",
    [
        pytest.param("III", "_min_fuel_rows", MAX_ITERATIONS, "solver_failure",
                     id="max_iterations-solver_failure"),
        pytest.param("III", "_min_fuel_rows", INFEASIBLE, "nominal_input_design_infeasible",
                     id="infeasible-nominal_input_design_infeasible"),
        pytest.param("II", "_peak_rows", MAX_ITERATIONS, "solver_failure",
                     id="II-max_iterations-solver_failure"),
        pytest.param("II", "_peak_rows", INFEASIBLE, "nominal_transfer_infeasible",
                     id="II-infeasible-nominal_transfer_infeasible"),
    ],
)
def test_study_nominal_fuel_discard_reason(monkeypatch, problem, solver, status, reason):
    # a nominal solve that fails is a solver failure, not an infeasible target
    result = SolveResult(status)
    # both decide a stack of rows at a time; II's decision also names the test that decided
    verdict = ("lp_solves", result) if solver == "_peak_rows" else result
    monkeypatch.setattr(worstcase, solver, lambda Cs, *a, **kw: [verdict] * len(Cs))
    res = run_study(StudyConfig(problem=problem, k=1, n=3, m=2, samples=3, T=6, seed=5))
    for row, rep in zip(res.rows, res.reports):
        assert row.status == f"discarded:{reason}"
        assert (row.nominal, row.worst, row.argmax_signal, rep) == (None, None, None, None)


def test_study_discards_a_raising_sample(monkeypatch):
    cfg = StudyConfig(problem="I", k=1, n=3, m=2, samples=3, T=6, seed=5)
    clean = run_study(cfg)
    draw, calls = study.random_system, []

    def second_draw_raises(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise np.linalg.LinAlgError("no plant")
        return draw(*args, **kwargs)

    monkeypatch.setattr(study, "random_system", second_draw_raises)
    res = run_study(cfg)
    status = "discarded:error:LinAlgError"
    assert res.rows[1] == SampleRow(1, GENERATION_METHODS[1], None, None, None, None, status)
    assert res.reports[1] is None
    # the other samples keep their own streams and rows
    assert [res.rows[0], res.rows[2]] == [clean.rows[0], clean.rows[2]]
    assert (res.retained, res.discarded_samples) == (2, 1)


def test_study_discards_a_nonpositive_nominal(monkeypatch):
    cfg = StudyConfig(problem="I", k=1, n=3, m=2, samples=3, T=6, seed=5)
    clean = run_study(cfg)
    evaluate = study._evaluate_sample

    def zero_nominal(cfg, sys):
        _, worst, argmax, reason, report = evaluate(cfg, sys)
        return 0.0, worst, argmax, reason, report

    monkeypatch.setattr(study, "_evaluate_sample", zero_nominal)
    res = run_study(cfg)
    assert res.avg_rpd is None and res.retained == 0
    for row, kept, report in zip(res.rows, clean.rows, res.reports):
        assert (row.status, row.rpd_percent, row.nominal) == ("discarded:nominal_nonpositive", None, 0.0)
        assert (row.worst, row.argmax_signal) == (kept.worst, kept.argmax_signal)
        assert report is not None


def test_minimal_study_rows_ignore_the_cap():
    # k=1, T=12 admits 377 words; a minimal-mode study never enumerates them
    cfg = dict(problem="I", k=1, n=3, m=2, samples=3, T=12, seed=4)
    capped = run_study(StudyConfig(**cfg, exhaustive_cap=100))
    assert capped.rows == run_study(StudyConfig(**cfg)).rows


def test_study_keeps_full_reports():
    cfg = StudyConfig(problem="V", k=1, n=2, m=1, samples=3, T=5, seed=2)
    res = run_study(cfg)
    assert len(res.reports) == len(res.rows)
    for row, rep in zip(res.rows, res.reports):
        if row.status == "ok":
            assert rep is not None
            assert str(rep.argmax_signal) == row.argmax_signal


def test_study_config_validation():
    with pytest.raises(ValueError):
        StudyConfig(problem="IV")
    with pytest.raises(ValueError):
        StudyConfig(problem="I", samples=0)
    with pytest.raises(ValueError):
        StudyConfig(problem="I", n=0)
    with pytest.raises(ValueError, match="mode"):
        StudyConfig(problem="I", mode="bogus")
    with pytest.raises(ValueError, match="gamma"):
        StudyConfig(problem="III", gamma1=-1, gamma2=1)
    with pytest.raises(ValueError, match="gamma"):
        StudyConfig(problem="III", gamma1=0, gamma2=-1)
    for gamma in (math.nan, math.inf):
        with pytest.raises(ValueError, match="gamma1"):
            StudyConfig(problem="III", gamma1=gamma)
        with pytest.raises(ValueError, match="gamma2"):
            StudyConfig(problem="III", gamma2=gamma)
    # the nominal's one-word language fits no cap below 1: every sample would be discarded
    for cap in (0, -1):
        with pytest.raises(ValueError, match="cap must be >= 1"):
            StudyConfig(problem="I", n=3, m=2, samples=3, T=6, seed=7, exhaustive_cap=cap)
