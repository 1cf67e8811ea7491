"""Worst-case analysis over admissible dropout signals.

Every problem evaluates a per-signal measure and takes the maximum over a
candidate set: either the minimal signals (fast mode, justified by the
antitone behaviour of each measure in the support order) or the full
admissible language (exhaustive mode, the ground truth).  Infeasible
per-signal outcomes count as +infinity; signals whose solver failed
(MAX_ITERATIONS) are listed in info["failed_signals"].  Reports are
deterministic: the candidate set is iterated in lexicographic order and
the first attaining signal (the lexicographically smallest) is reported
as the argmax.

Each analysis builds its per-call data once and hands `_scan` a chunk
evaluator; `_scan` resolves the candidates, packs them into an (N, T)
bool array and evaluates 64 rows at a time.  III-energy, IV, V and VI
evaluate a chunk as array code (one controllability stack and one SVD
call, one Riccati recursion, one rollout).  I, II and the LP objectives
of III loop over its rows; I and II read the horizon-t matrices of a
row from the call's blocks C A^i and A^{T-1-i} B.  II decides each
horizon with solvers.peak_within, whose screens on the range test's SVD
(a least-norm witness inside the unit box, a weak-duality bound above
it) leave few horizons to an LP, and keeps the verdicts in a memo keyed
on the prefix bits, made fresh for each call; info["counters"] says how
each distinct prefix was decided.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .automata import (
    Automaton,
    build_k_constraint_automaton,
    enumerate_admissible,
    minimal_admissible,
)
from .lqr import LqrWeights, _quadratic, _riccati, _rollout, lti_gains
from .signals import Signal, SignalSet
from .solvers import (
    FEAS_TOL,
    INFEASIBLE,
    MAX_ITERATIONS,
    OPTIMAL,
    _factor,
    _min_energy,
    _range_test,
    min_fuel,
    min_fuel_energy,
    peak_within,
)
from .systems import (
    SwitchedLinearSystem,
    _ctrb_blocks,
    _ctrb_stack,
    _first_full_rank_time,
    _obsv_blocks,
)

__all__ = [
    "MINIMAL",
    "EXHAUSTIVE",
    "DEFAULT_EXHAUSTIVE_CAP",
    "PerSignal",
    "WorstCaseReport",
    "Polytope",
    "candidate_signals",
    "worst_estimation_time",
    "worst_control_time",
    "worst_fuel",
    "worst_energy",
    "worst_fuel_energy",
    "polytope_reachable",
    "worst_lqr",
    "worst_fixed_input_lqr",
]

MINIMAL = "minimal"
EXHAUSTIVE = "exhaustive"
DEFAULT_EXHAUSTIVE_CAP = 2**20

# candidate rows per evaluator call: at n=10, m=7, T=24 as fast as 256 rows
# or a whole 2,640-signal set, and a chunk's controllability stack and its
# SVD take 1.7 MB (traced peak of one plant's calls 2.9 MB, 8.3 MB at 256)
_CHUNK = 64


@dataclass
class PerSignal:
    signal: Signal
    value: float  # math.inf encodes an infeasible subproblem
    status: str


@dataclass
class WorstCaseReport:
    problem: str
    mode: str
    worst_value: float
    argmax_signal: Signal | None
    per_signal: list[PerSignal]
    wallclock: float
    feasible: bool
    info: dict = field(default_factory=dict)


@dataclass
class Polytope:
    """Convex hull of finitely many vertices, stored as rows."""

    vertices: np.ndarray

    def __post_init__(self):
        V = np.atleast_2d(np.asarray(self.vertices, dtype=float))
        if V.shape[0] < 1:
            raise ValueError("polytope needs at least one vertex")
        self.vertices = V


def candidate_signals(
    constraint: Automaton | int,
    T: int,
    mode: str = MINIMAL,
    cap: int = DEFAULT_EXHAUSTIVE_CAP,
) -> SignalSet:
    """Resolve the signal set to scan: minimal candidates or the full language.

    An integer k stands for build_k_constraint_automaton(k).  Minimal mode
    generates the minimal words directly (minimal_admissible); exhaustive
    mode enumerates the language.  `cap` bounds exhaustive enumeration
    only and raises CapExceeded beyond it.
    """
    if mode not in (MINIMAL, EXHAUSTIVE):
        raise ValueError(f"unknown mode {mode!r}")
    if isinstance(constraint, int):
        constraint = build_k_constraint_automaton(constraint)
    elif not isinstance(constraint, Automaton):
        raise TypeError("constraint must be an Automaton or an integer k")
    if mode == MINIMAL:
        ss = minimal_admissible(constraint, T)
    else:
        ss = enumerate_admissible(constraint, T, cap=cap)
    if len(ss) == 0:
        raise ValueError(f"the constraint admits no signals of length {T}")
    return ss


def _scan(
    problem: str,
    constraint: Automaton | int,
    T: int,
    mode: str,
    cap: int,
    evaluate: Callable[[np.ndarray], list[tuple[float, str]]],
    info: dict | None = None,
) -> WorstCaseReport:
    """Evaluate the candidates chunk by chunk and reduce them to the worst case.

    The candidates are candidate_signals(constraint, T, mode, cap), resolved
    before the wallclock starts.  `evaluate` maps a chunk of rows of the
    packed (N, T) bool candidate array to one (value, status) pair per row.
    """
    signals = candidate_signals(constraint, T, mode, cap)
    start = time.perf_counter()
    mask = signals.to_array()
    results = []
    for lo in range(0, len(mask), _CHUNK):
        results.extend(evaluate(mask[lo : lo + _CHUNK]))
    per_signal = [PerSignal(s, v, st) for s, (v, st) in zip(signals, results)]
    worst = -math.inf
    argmax = None
    for entry in per_signal:  # lexicographic order; first attainer wins ties
        if entry.value > worst:
            worst = entry.value
            argmax = entry.signal
    info = dict(info or {})
    failed = [str(e.signal) for e in per_signal if e.status == MAX_ITERATIONS]
    if failed:
        info["failed_signals"] = failed
    return WorstCaseReport(
        problem=problem,
        mode=mode,
        worst_value=worst,
        argmax_signal=argmax,
        per_signal=per_signal,
        wallclock=time.perf_counter() - start,
        feasible=math.isfinite(worst),
        info=info,
    )


def _with_steps(report: WorstCaseReport) -> WorstCaseReport:
    """Add the worst time index t and its step count t + 1 to a feasible I or II report."""
    if report.feasible:
        report.info["worst_t_index"] = int(report.worst_value)
        report.info["worst_steps"] = int(report.worst_value) + 1
    return report


def worst_estimation_time(
    sys: SwitchedLinearSystem,
    constraint: Automaton | int,
    T: int,
    mode: str = MINIMAL,
    cap: int = DEFAULT_EXHAUSTIVE_CAP,
) -> WorstCaseReport:
    """Problem I: worst first time the masked observability matrix reaches rank n."""
    blocks = _obsv_blocks(sys, T)

    def evaluate_one(bits: list[bool]) -> tuple[float, str]:
        t = _first_full_rank_time(blocks, bits)
        return (math.inf, INFEASIBLE) if t is None else (float(t), OPTIMAL)

    report = _scan("I", constraint, T, mode, cap, lambda c: [evaluate_one(b) for b in c.tolist()])
    return _with_steps(report)


def worst_control_time(
    sys: SwitchedLinearSystem,
    constraint: Automaton | int,
    T: int,
    x0,
    mode: str = MINIMAL,
    cap: int = DEFAULT_EXHAUSTIVE_CAP,
) -> WorstCaseReport:
    """Problem II: worst minimum time to park the state at the origin.

    Candidate horizons are scanned in increasing order; horizon t is
    feasible for a signal when some input of peak at most 1 + FEAS_TOL
    reaches x(t+1) = 0, i.e. C u = -A^{t+1} x0 over the prefix s(0..t).
    peak_within decides each horizon from the range test's one SVD: off
    C's range is infeasible, a least-norm input within the box is a
    witness, and a weak-duality bound above the box (certified against
    rounding) is infeasible; only a horizon neither screen decides reaches
    the min_inf_norm LP.  The verdict depends only on the prefix, so a
    memo made fresh for each call shares it between signals.  An LP that
    is not certified ends the signal's scan as MAX_ITERATIONS with value
    +inf, and the signal is listed in info["failed_signals"].
    info["counters"] counts the distinct prefixes decided, the memo hits
    and the decisions by each test (off_range, upper_screen, lower_screen,
    lp_solves).
    """
    x0 = np.asarray(x0, dtype=float).ravel()
    # targets[t] = -A^{t+1} x0
    targets = []
    v = x0.copy()
    for _ in range(T):
        v = sys.A @ v
        targets.append(-v)
    # the prefix s(0..t) has the blocks A^{t-i} B, the last t + 1 of the horizon's
    blocks = _ctrb_blocks(sys, T)
    counters = dict.fromkeys(
        ("prefixes", "memo_hits", "off_range", "upper_screen", "lower_screen", "lp_solves"), 0
    )
    memo: dict[bytes, str] = {}

    def verdict(row: np.ndarray, t: int) -> str:
        key = row[: t + 1].tobytes()
        if key in memo:
            counters["memo_hits"] += 1
            return memo[key]
        C = _ctrb_stack(blocks[T - 1 - t :], row[None, : t + 1])[0]
        by, res = peak_within(C, targets[t], 1.0)
        counters["prefixes"] += 1
        counters[by] += 1
        memo[key] = res.status
        return res.status

    def evaluate_one(row: np.ndarray) -> tuple[float, str]:
        for t in range(T):
            status = verdict(row, t)
            if status == MAX_ITERATIONS:
                return math.inf, MAX_ITERATIONS
            if status == OPTIMAL:
                return float(t), OPTIMAL
        return math.inf, INFEASIBLE

    report = _scan(
        "II", constraint, T, mode, cap,
        lambda chunk: [evaluate_one(row) for row in chunk], {"counters": counters},
    )
    return _with_steps(report)


def _input_norm(
    sys: SwitchedLinearSystem, T: int, solver: Callable[[np.ndarray], list]
) -> Callable[[np.ndarray], list[tuple[float, str]]]:
    """A III chunk evaluator: `solver` maps an (N, n, m T) controllability stack to N results."""
    blocks = _ctrb_blocks(sys, T)

    def evaluate(chunk: np.ndarray) -> list[tuple[float, str]]:
        return [
            (math.inf, res.status)
            if res.status == INFEASIBLE or res.value is None
            else (float(res.value), res.status)
            for res in solver(_ctrb_stack(blocks, chunk))
        ]

    return evaluate


def worst_fuel(
    sys: SwitchedLinearSystem,
    constraint: Automaton | int,
    T: int,
    x_f,
    mode: str = MINIMAL,
    input_bound: float | None = None,
    cap: int = DEFAULT_EXHAUSTIVE_CAP,
) -> WorstCaseReport:
    """Problem III with a pure 1-norm objective (per-signal LP)."""
    x_f = np.asarray(x_f, dtype=float).ravel()
    evaluate = _input_norm(sys, T, lambda Cs: [min_fuel(C, x_f, input_bound) for C in Cs])
    info = {"objective": "fuel", "input_bound": input_bound}
    return _scan("III", constraint, T, mode, cap, evaluate, info)


def worst_energy(
    sys: SwitchedLinearSystem,
    constraint: Automaton | int,
    T: int,
    x_f,
    mode: str = MINIMAL,
    cap: int = DEFAULT_EXHAUSTIVE_CAP,
) -> WorstCaseReport:
    """Problem III with a pure 2-norm objective (least-norm, one SVD call per chunk)."""
    x_f = np.asarray(x_f, dtype=float).ravel()
    evaluate = _input_norm(sys, T, lambda Cs: _min_energy(Cs, x_f))
    return _scan("III", constraint, T, mode, cap, evaluate, {"objective": "energy"})


def worst_fuel_energy(
    sys: SwitchedLinearSystem,
    constraint: Automaton | int,
    T: int,
    x_f,
    gamma1: float,
    gamma2: float,
    mode: str = MINIMAL,
    cap: int = DEFAULT_EXHAUSTIVE_CAP,
) -> WorstCaseReport:
    """Problem III with the combined weighted 1-norm + 2-norm objective."""
    x_f = np.asarray(x_f, dtype=float).ravel()
    evaluate = _input_norm(sys, T, lambda Cs: [min_fuel_energy(C, x_f, gamma1, gamma2) for C in Cs])
    info = {"objective": "fuel+energy", "gamma1": gamma1, "gamma2": gamma2}
    return _scan("III", constraint, T, mode, cap, evaluate, info)


def polytope_reachable(
    sys: SwitchedLinearSystem,
    constraint: Automaton | int,
    T: int,
    poly: Polytope,
    mode: str = MINIMAL,
    cap: int = DEFAULT_EXHAUSTIVE_CAP,
) -> tuple[bool, WorstCaseReport]:
    """Problem IV: is every vertex inside every unit-energy reachable ellipsoid?

    The per-signal value is the largest least input energy over the
    vertices, v' W^+ v = ||s_r^-1 U_r' v||^2, read from one SVD of the
    controllability matrix C rather than from W = CC', whose condition
    number is cond(C)^2; a vertex off C's range is unreachable and scores
    +infinity.  Containment holds when the worst value is at most 1 + FEAS_TOL.
    """
    V = poly.vertices
    if V.shape[1] != sys.n:
        raise ValueError(f"vertices must have dimension {sys.n}")
    blocks = _ctrb_blocks(sys, T)

    def evaluate_one(U: np.ndarray, sv: np.ndarray) -> tuple[float, str]:
        coeff, reached = _range_test(U, V)
        if not reached.all():
            return math.inf, "unreachable_vertex"
        return float(np.max(np.sum((coeff / sv) ** 2, axis=1))), OPTIMAL

    def evaluate(chunk: np.ndarray) -> list[tuple[float, str]]:
        return [evaluate_one(U, sv) for U, sv, _ in _factor(_ctrb_stack(blocks, chunk))]

    report = _scan("IV", constraint, T, mode, cap, evaluate, {"tolerance": FEAS_TOL})
    reachable = report.worst_value <= 1.0 + FEAS_TOL
    report.info["reachable"] = reachable
    report.feasible = reachable
    return reachable, report


def worst_lqr(
    sys: SwitchedLinearSystem,
    constraint: Automaton | int,
    weights: LqrWeights,
    x0,
    mode: str = MINIMAL,
    cap: int = DEFAULT_EXHAUSTIVE_CAP,
) -> WorstCaseReport:
    """Problem V: worst optimal cost x0' P(0) x0 of the per-signal recursion."""
    x0 = np.asarray(x0, dtype=float).ravel()

    def evaluate(chunk: np.ndarray) -> list[tuple[float, str]]:
        for P in _riccati(sys, chunk, weights):
            pass  # the last step is P(0)
        costs = _quadratic(x0[:, None], P)
        return [(cost, OPTIMAL) for cost in costs.tolist()]

    return _scan("V", constraint, weights.T, mode, cap, evaluate)


def worst_fixed_input_lqr(
    sys: SwitchedLinearSystem,
    constraint: Automaton | int,
    weights: LqrWeights,
    x0,
    mode: str = MINIMAL,
    cap: int = DEFAULT_EXHAUSTIVE_CAP,
) -> WorstCaseReport:
    """Problem VI: worst degraded cost of the ideal-loop gains under dropouts.

    Minimal mode is a heuristic here (the degraded cost is not proven
    antitone in the support order); exhaustive mode is the ground truth,
    so minimal-mode reports carry a warning.
    """
    x0 = np.asarray(x0, dtype=float).ravel()
    gains = lti_gains(sys, weights)

    def evaluate(chunk: np.ndarray) -> list[tuple[float, str]]:
        costs = _rollout(sys, gains, chunk, weights, x0)
        return [(cost, OPTIMAL) for cost in costs.tolist()]

    info = {}
    if mode == MINIMAL:
        info["warning"] = (
            "minimal-signal search for the fixed-gain degraded cost is heuristic; "
            "run exhaustive mode for a certified worst case"
        )
    return _scan("VI", constraint, weights.T, mode, cap, evaluate, info)
