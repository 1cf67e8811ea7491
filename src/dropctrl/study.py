"""Randomized validation study: degradation statistics over random plants.

For each sample a random system is drawn, the nominal (dropout-free)
performance and the worst-case performance under the dropout constraint
are computed, and the relative performance degradation

    RPD = 100 * (worst - nominal) / nominal

is recorded.  Samples rotate equally through three system-generation
recipes.  Randomness is fully reproducible: each sample gets its own
PCG64 stream spawned as SeedSequence(seed, spawn_key=(sample_index,)),
so results are independent of execution order.  The nominal is the
worst case over the dropout-free channel, whose only word is 1...1.

The analysis is the problem's row of worstcase.PROBLEMS, run from or to
the all-ones state with identity LQR weights; III picks its fuel, energy
or fuel+energy row by which of gamma1 and gamma2 is zero.  The study's
problems are the rows whose every argument it supplies: all but IV,
which needs a polytope.  An infeasible report is discarded with the
row's infeasible task; I and II are valued in steps, t + 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .lqr import LqrWeights
from .automata import Automaton
from .signals import Signal
from .solvers import check_weights
from .systems import (
    SwitchedLinearSystem,
    controllability_matrix,
    numerical_rank,
    observability_matrix,
)
from .worstcase import (
    DEFAULT_EXHAUSTIVE_CAP,
    EXHAUSTIVE,
    MINIMAL,
    PROBLEMS,
    Problem,
    WorstCaseReport,
    check_cap,
)

__all__ = [
    "GENERATION_METHODS",
    "GENERATOR_NAME",
    "NO_DROPOUTS",
    "PROBLEM_LABELS",
    "StudyConfig",
    "SampleRow",
    "StudyResult",
    "haar_orthogonal",
    "random_system",
    "rpd",
    "run_study",
]

GENERATION_METHODS = ("orthogonal_diag", "gaussian", "gaussian_x10")
GENERATOR_NAME = "numpy-pcg64/seedseq-spawn-per-sample"

# the dropout-free channel: every packet arrives, so it admits only 1...1
NO_DROPOUTS = Automaton([0], [(0, 0, "1")], [0])

# the problems whose every argument the study supplies: all but IV, which takes a polytope
PROBLEM_LABELS = tuple(dict.fromkeys(row.label for row in PROBLEMS.values() if "poly" not in row.args))

# the rejected draws random_system allows before it gives up
_MAX_REJECTS = 100


def haar_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed orthogonal matrix: QR of a Gaussian, signs fixed."""
    Z = rng.standard_normal((n, n))
    Q, R = np.linalg.qr(Z)
    d = np.sign(np.diag(R))
    d[d == 0] = 1.0
    return Q * d


def _draw_state_matrix(n: int, method: str, rng: np.random.Generator) -> np.ndarray:
    if method == "orthogonal_diag":
        # nonzero integers in [-25, 25], scaled to a spectrum in [-2.5, 2.5]
        d = np.zeros(n, dtype=int)
        for i in range(n):
            v = 0
            while v == 0:
                v = int(rng.integers(-25, 26))
            d[i] = v
        V = haar_orthogonal(n, rng)
        return V.T @ np.diag(0.1 * d.astype(float)) @ V
    if method == "gaussian":
        return rng.standard_normal((n, n))
    if method == "gaussian_x10":
        return 10.0 * rng.standard_normal((n, n))
    raise ValueError(f"unknown generation method {method!r}")


def random_system(
    n: int,
    m: int,
    p: int,
    method: str,
    rng: np.random.Generator,
    screen_horizon: int | None = None,
    reject_log: list | None = None,
) -> SwitchedLinearSystem:
    """Draw a controllable and observable system with an invertible A.

    B and C are standard normal; A follows the chosen recipe.  Draws failing
    the invertibility or the all-ones-signal rank screens (over screen_horizon
    steps, default n) are logged in reject_log and redrawn; the
    _MAX_REJECTS-th rejection raises RuntimeError.
    """
    horizon = screen_horizon if screen_horizon is not None else n
    ones = Signal.ones(horizon)
    rejects = 0
    while True:
        A = _draw_state_matrix(n, method, rng)
        B = rng.standard_normal((n, m))
        C = rng.standard_normal((p, n))
        try:
            sys = SwitchedLinearSystem(A, B, C)
        except ValueError:  # the shapes are right, so A is singular
            reason = "singular_A"
        else:
            if numerical_rank(controllability_matrix(sys, ones)) < n:
                reason = "uncontrollable"
            elif numerical_rank(observability_matrix(sys, ones)) < n:
                reason = "unobservable"
            else:
                return sys
        rejects += 1
        if reject_log is not None:
            reject_log.append(reason)
        if rejects >= _MAX_REJECTS:
            raise RuntimeError(
                f"gave up after {rejects} rejected draws (last reason: {reason})"
            )


def rpd(worst: float, nominal: float) -> float:
    """Relative performance degradation in percent; nominal must exceed 1e-12."""
    if not math.isfinite(nominal) or nominal <= 1e-12:
        raise ValueError(f"nominal value {nominal} is not usably positive")
    return 100.0 * (worst - nominal) / nominal


@dataclass
class StudyConfig:
    """A study's settings, one `dropctrl study` flag each.

    Every plant has n states, m inputs and m outputs: C is drawn like B.
    """

    problem: str
    k: int = 1
    n: int = 10
    m: int = 7
    samples: int = 50
    T: int = 12
    seed: int = 0
    mode: str = MINIMAL
    gamma1: float = 1.0
    gamma2: float = 0.0
    exhaustive_cap: int = DEFAULT_EXHAUSTIVE_CAP

    def __post_init__(self):
        if self.problem not in PROBLEM_LABELS:
            raise ValueError(f"problem must be one of {PROBLEM_LABELS}")
        if self.mode not in (MINIMAL, EXHAUSTIVE):
            raise ValueError(f"mode must be {MINIMAL!r} or {EXHAUSTIVE!r}, got {self.mode!r}")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        check_weights(self.gamma1, self.gamma2)
        check_cap(self.exhaustive_cap)
        if min(self.n, self.m, self.k, self.T) < 1:
            raise ValueError("dimensions, k and T must be positive")


@dataclass
class SampleRow:
    sample_id: int
    method: str
    rpd_percent: float | None
    nominal: float | None
    worst: float | None
    argmax_signal: str | None
    status: str  # "ok" or "discarded:<reason>"


@dataclass
class StudyResult:
    config: StudyConfig
    generator: str
    rows: list[SampleRow] = field(default_factory=list)
    reject_reasons: list[str] = field(default_factory=list)
    # full worst-case report per sample (None where the sample never got one)
    reports: list = field(default_factory=list)

    @property
    def retained(self) -> int:
        return sum(1 for r in self.rows if r.status == "ok")

    @property
    def discarded_samples(self) -> int:
        return len(self.rows) - self.retained

    @property
    def avg_rpd(self) -> float | None:
        """Mean RPD over the retained rows, None when none is retained."""
        rpds = [r.rpd_percent for r in self.rows if r.status == "ok"]
        return sum(rpds) / len(rpds) if rpds else None


def _sample_rng(seed: int, sample_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(sample_index,))
    return np.random.Generator(np.random.PCG64(ss))


def _problem(cfg: StudyConfig) -> Problem:
    """The study problem's table row; III picks its objective by which weight is zero."""
    if cfg.problem == "III":
        objective = "fuel" if cfg.gamma2 == 0.0 else "energy" if cfg.gamma1 == 0.0 else "fuel-energy"
        return PROBLEMS[objective]
    return next(row for row in PROBLEMS.values() if row.label == cfg.problem)


def _discard_reason(problem: Problem, stage: str, report: WorstCaseReport) -> str | None:
    if report.info.get("failed_signals"):
        return "solver_failure"
    if not report.feasible and problem.infeasible_task is not None:
        return f"{stage}_{problem.infeasible_task}_infeasible"
    return None


def _evaluate_sample(cfg: StudyConfig, sys: SwitchedLinearSystem):
    """Return (nominal, worst, argmax, discard_reason, report).

    The nominal is the same analysis over the dropout-free channel; the
    worst case is skipped when the nominal is discarded.
    """
    problem = _problem(cfg)
    ones = np.ones(sys.n)  # the plant is driven from or to 1, with identity LQR weights
    given = dict(
        T=cfg.T, x0=ones, x_f=ones, input_bound=None, gamma1=cfg.gamma1, gamma2=cfg.gamma2,
        weights=LqrWeights.identity(sys.n, sys.m, cfg.T),
    )
    values = {name: given[name] for name in problem.args}
    nominal_report = problem.run(sys, NO_DROPOUTS, mode=EXHAUSTIVE, cap=cfg.exhaustive_cap, **values)
    reason = _discard_reason(problem, "nominal", nominal_report)
    if reason is not None:
        return None, None, None, reason, None
    # I and II count steps, t + 1; the others read the worst value
    nominal = float(nominal_report.info.get("worst_steps", nominal_report.worst_value))
    report = problem.run(sys, cfg.k, mode=cfg.mode, cap=cfg.exhaustive_cap, **values)
    argmax = str(report.argmax_signal)
    reason = _discard_reason(problem, "worst", report)
    if reason is not None:
        return nominal, None, argmax, reason, report
    return nominal, float(report.info.get("worst_steps", report.worst_value)), argmax, None, report


def run_study(cfg: StudyConfig) -> StudyResult:
    """Run the per-sample pipeline; failures are logged rows, never aborts.

    Each sample gives one row and one report (None where the sample never
    got one): a plant draw or an analysis that raises is discarded as
    error:<exception>, a nominal too small for an RPD as nominal_nonpositive.
    """
    rows: list[SampleRow] = []
    reports: list = []
    reject_reasons: list[str] = []
    for i in range(cfg.samples):
        method = GENERATION_METHODS[i % len(GENERATION_METHODS)]
        nominal = worst = argmax = report = value = None
        try:
            sys = random_system(
                cfg.n, cfg.m, cfg.m, method, _sample_rng(cfg.seed, i),
                screen_horizon=max(cfg.n, cfg.T), reject_log=reject_reasons,
            )
            nominal, worst, argmax, reason, report = _evaluate_sample(cfg, sys)
        except Exception as exc:  # per-sample failures never abort the study
            reason = f"error:{type(exc).__name__}"
        if reason is None:
            try:
                value = rpd(worst, nominal)
            except ValueError:
                reason = "nominal_nonpositive"
        status = "ok" if reason is None else f"discarded:{reason}"
        rows.append(SampleRow(i, method, value, nominal, worst, argmax, status))
        reports.append(report)
    return StudyResult(
        config=cfg, generator=GENERATOR_NAME, rows=rows, reject_reasons=reject_reasons, reports=reports,
    )
