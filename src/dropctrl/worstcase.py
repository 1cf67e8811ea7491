"""Worst-case analysis over admissible dropout signals.

Every problem evaluates a per-signal measure and takes the maximum over a
candidate set: either the minimal signals (fast mode, justified by the
antitone behaviour of each measure in the support order) or the full
admissible language (exhaustive mode, the ground truth).  Infeasible
per-signal outcomes count as +infinity; signals whose solver failed
(MAX_ITERATIONS, as a NaN value counts) are listed in info["failed_signals"].
Reports are deterministic: the candidate set is iterated in lexicographic
order and the first attaining signal (the lexicographically smallest) is
reported as the argmax.

Each analysis resolves its candidates first, so that a bad T, mode or
cap is refused before any work, builds its per-call data once and hands
`_scan` the candidates and an evaluator; `_scan` packs them into an (N, T)
bool array, hands over the whole array and reduces the values with
np.argmax.  Work is shared over the signal trie (lqr._children numbers
a level) wherever a quantity depends on a prefix or a suffix alone: V
walks the suffix trie of rows sorted by suffix, one Riccati step per
distinct suffix, and VI the prefix trie of rows in lexicographic order,
one state per distinct prefix, in blocks sized by _TRIE_ENTRIES; I and
II walk the prefix trie of the rows still undecided, deciding a level's
distinct prefixes once, from the call's blocks C A^i and A^{T-1-i} B.
Every controllability matrix is factored in stacks of at most 64 by the
solvers' one factorization (a QR call over the stack's C', an SVD call
over its n x n triangles) and decided in array code, one group of equal
rank at a time: II's screens (a least-norm witness inside the unit box,
a weak-duality bound above it) leave few prefixes to an LP, III-fuel's
LPs of one rank share a stacked interior-point iteration, and III-energy
and IV, grouping the rows by their count of successful steps, factor C'
without the zero rows of dropped steps and form no Q.  Fuel+energy runs
its splitting iteration per row.  info["counters"] says how much work
was shared: distinct prefixes and memo hits for I and II (and how II
decided each prefix, and its LPs' interior-point iterations), trie
nodes against row-steps for V and VI, chunks factored and matrices of
rank below n for III-energy and IV, and LPs solved, their
interior-point iterations and the stacked solver calls for III-fuel.

PROBLEMS is the one table of analyses: a row per command of the command
line, giving its problem label, entry point, the arguments it takes
beyond the system, constraint, mode and cap, and what an infeasible
report failed at.  The command line builds its subcommands from it and
the study picks its analysis from it, so a new problem is one row and
one evaluator.
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
from .lqr import LqrWeights, _children, _quadratic, _riccati, _rollout, lti_gains
from .signals import Signal, SignalSet
from .solvers import (
    FEAS_TOL,
    INFEASIBLE,
    MAX_ITERATIONS,
    OPTIMAL,
    _factor_stack,
    _least_norm,
    _lp_counters,
    _min_fuel_rows,
    _peak_rows,
    _range_test,
    _ranks,
    min_fuel_energy,
)
from .systems import (
    SwitchedLinearSystem,
    _active_stacks,
    _ctrb_blocks,
    _ctrb_stack,
    _full_rank,
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
    "check_cap",
    "Problem",
    "PROBLEMS",
]

MINIMAL = "minimal"
EXHAUSTIVE = "exhaustive"
DEFAULT_EXHAUSTIVE_CAP = 2**20

# rows per factored stack in III-energy and IV, among rows of one count:
# at n=10, m=7, k=2, T=24, III-energy and IV on three plants take
# 0.46-0.48 s at 64 rows, 0.44-0.50 s at 128 and 0.48-0.51 s at 256
# (medians of twelve interleaved rounds in each of two sessions, one BLAS
# thread), and a chunk's stack and factor take 0.9 MB at 64 rows, 1.8 MB
# at 128 and 3.5 MB at 256 (traced peaks): no size is faster in both
# sessions, and 64 takes the least memory
_CHUNK = 64
# float64 entries per trie level in V and VI: a V node holds P (n x n), a
# VI node x (n), so at n=10 V walks 256 rows a block and VI 2,560
_TRIE_ENTRIES = 25_600


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


def check_cap(cap: int) -> None:
    """Reject an exhaustive cap below 1, which no language fits, not even 1...1."""
    if cap < 1:
        raise ValueError(f"the exhaustive cap must be >= 1, got {cap}")


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
    only and raises CapExceeded beyond it; a cap below 1 is refused in
    either mode.
    """
    if mode not in (MINIMAL, EXHAUSTIVE):
        raise ValueError(f"unknown mode {mode!r}")
    check_cap(cap)
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
    signals: SignalSet,
    mode: str,
    evaluate: Callable[[np.ndarray], tuple[np.ndarray, list[str]]],
    info: dict | None = None,
) -> WorstCaseReport:
    """Evaluate the candidates and reduce them to the worst case.

    `signals` is the entry point's candidate_signals(constraint, T, mode,
    cap), resolved before the wallclock starts.  `evaluate` maps the packed
    (N, T) bool candidate array to an (N,) float array of values and a
    list of N statuses.  A NaN value is no verdict: its row scores +inf
    as MAX_ITERATIONS.
    """
    start = time.perf_counter()
    values, statuses = evaluate(signals.to_array())
    for i in np.flatnonzero(np.isnan(values)).tolist():
        statuses[i] = MAX_ITERATIONS
    values = np.where(np.isnan(values), math.inf, values)
    per_signal = list(map(PerSignal, signals, values.tolist(), statuses))
    # lexicographic order: np.argmax returns the first attainer of a tie
    top = int(np.argmax(values))
    worst = per_signal[top].value
    info = dict(info or {})
    if MAX_ITERATIONS in statuses:
        info["failed_signals"] = [str(e.signal) for e in per_signal if e.status == MAX_ITERATIONS]
    return WorstCaseReport(
        problem=problem,
        mode=mode,
        worst_value=worst,
        argmax_signal=per_signal[top].signal if worst > -math.inf else None,
        per_signal=per_signal,
        wallclock=time.perf_counter() - start,
        feasible=math.isfinite(worst),
        info=info,
    )


def _unzip(pairs: list[tuple[float, str]]) -> tuple[np.ndarray, list[str]]:
    """An evaluator's (value, status) pairs as its value array and status list."""
    return np.array([v for v, _ in pairs], dtype=float), [st for _, st in pairs]


def _with_steps(report: WorstCaseReport) -> WorstCaseReport:
    """Add the worst time index t and its step count t + 1 to a feasible I or II report."""
    if report.feasible:
        report.info["worst_t_index"] = int(report.worst_value)
        report.info["worst_steps"] = int(report.worst_value) + 1
    return report


# the verdicts that end a row's walk, by their code in it; 0 walks on
_FINAL = (INFEASIBLE, OPTIMAL, MAX_ITERATIONS)
_CODE = {OPTIMAL: 1, MAX_ITERATIONS: 2}


def _first_verdicts(
    mask: np.ndarray,
    asks: np.ndarray,
    decide: Callable[[np.ndarray, int], list[str]],
    counters: dict,
) -> tuple[np.ndarray, list[str]]:
    """I and II: each row's first level t whose prefix s(0..t) has a final verdict.

    Walks the prefix trie of the (N, T) bool mask over the rows still
    undecided; at level t, decide(rows, t) gets one row of each distinct
    prefix whose rows ask (asks[row, t], a property of the prefix), all
    at once, and returns their statuses.  OPTIMAL ends a row at value t,
    MAX_ITERATIONS at +inf, and a row never ended is INFEASIBLE.  counters
    counts the prefixes decided and, as memo_hits, the other rows that asked.
    """
    N, T = mask.shape
    level = np.zeros(N)
    code = np.zeros(N, dtype=np.intp)
    live = np.arange(N)
    node = np.zeros(N, dtype=np.intp)
    nodes = 1
    for t in range(T):
        if not live.size:
            break
        parent, _, node = _children(node, mask[live, t], nodes)
        nodes = len(parent)
        asking = asks[live, t]
        # one row of each prefix that asks
        row = np.full(nodes, -1)
        row[node[asking]] = live[asking]
        todo = (row >= 0).nonzero()[0]
        verdict = np.zeros(nodes, dtype=np.intp)
        verdict[todo] = [_CODE.get(status, 0) for status in decide(mask[row[todo]], t)]
        counters["prefixes"] += len(todo)
        counters["memo_hits"] += int(np.count_nonzero(asking)) - len(todo)
        verdict = verdict[node]
        done = verdict > 0
        code[live[done]] = verdict[done]
        level[live[done]] = t
        live, node = live[~done], node[~done]
    return np.where(code == 1, level, math.inf), np.array(_FINAL, dtype=object)[code].tolist()


def worst_estimation_time(
    sys: SwitchedLinearSystem,
    constraint: Automaton | int,
    T: int,
    mode: str = MINIMAL,
    cap: int = DEFAULT_EXHAUSTIVE_CAP,
) -> WorstCaseReport:
    """Problem I: worst first time the masked observability matrix reaches rank n.

    A prefix s(0..t) is tested when s(t) = 1 and its p * successes reach
    n; the rows walk their prefix trie (_first_verdicts), so each distinct
    prefix is tested once per call.  info["counters"] counts the distinct
    prefixes tested and the other rows that asked (memo_hits).
    """
    signals = candidate_signals(constraint, T, mode, cap)
    blocks = _obsv_blocks(sys, T)
    counters = {"prefixes": 0, "memo_hits": 0}

    def evaluate(mask: np.ndarray) -> tuple[np.ndarray, list[str]]:
        # rank cannot reach n before p * successes >= n
        asks = mask & (np.cumsum(mask, axis=1, dtype=np.int32) * sys.p >= sys.n)
        def decide(rows: np.ndarray, t: int) -> list[str]:
            return [OPTIMAL if _full_rank(blocks, row, t) else INFEASIBLE for row in rows]

        return _first_verdicts(mask, asks, decide, counters)

    report = _scan("I", signals, mode, evaluate, {"counters": counters})
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
    The verdict depends only on the prefix, so the rows walk their prefix
    trie (_first_verdicts), and each level's distinct prefixes are decided
    once per call, _CHUNK at a time, by peak_within's stacked case: one
    factor per chunk, whose range test (off C's range is infeasible) and
    screens (a least-norm input within the box is a witness, a
    weak-duality bound above it, certified against rounding, is
    infeasible) run as array code; only a prefix neither screen decides
    reaches the min_inf_norm LP, which stops at the first dual iterate
    whose bound lies above the box.  An LP that is not certified ends the
    signal's scan as MAX_ITERATIONS with value +inf, and the signal is
    listed in info["failed_signals"].  info["counters"] counts the
    distinct prefixes decided, the other rows that asked (memo_hits), the
    decisions by each test (off_range, upper_screen, lower_screen,
    lp_solves) and the interior-point iterations of the LPs (iterations).
    """
    signals = candidate_signals(constraint, T, mode, cap)
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
        (
            "prefixes", "memo_hits", "off_range", "upper_screen", "lower_screen", "lp_solves",
            "iterations",
        ),
        0,
    )

    def decide(rows: np.ndarray, t: int) -> list[str]:
        statuses = []
        for lo in range(0, len(rows), _CHUNK):
            Cs = _ctrb_stack(blocks[T - 1 - t :], rows[lo : lo + _CHUNK, : t + 1])
            for by, res in _peak_rows(Cs, targets[t], 1.0):
                counters[by] += 1
                counters["iterations"] += res.iterations
                statuses.append(res.status)
        return statuses

    def evaluate(mask: np.ndarray) -> tuple[np.ndarray, list[str]]:
        return _first_verdicts(mask, np.ones_like(mask), decide, counters)

    report = _scan("II", signals, mode, evaluate, {"counters": counters})
    return _with_steps(report)


def _score(res) -> tuple[float, str]:
    """A III row's (value, status); an infeasible target scores +inf."""
    if res.status == INFEASIBLE or res.value is None:
        return math.inf, res.status
    return float(res.value), res.status


def _factored(
    sys: SwitchedLinearSystem,
    T: int,
    decide: Callable[[np.ndarray, np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
    unreached: str,
    counters: dict,
) -> Callable[[np.ndarray], tuple[np.ndarray, list[str]]]:
    """A III-energy or IV evaluator over the factors of the rows' controllability matrices.

    The rows are factored _CHUNK at a time among rows of the same count of
    successful steps, from their C' less its zero rows, with the rank cut
    of C's own shape (n, m T); `decide(U, s, rank)` maps a chunk's factor to
    each row's value and whether the row reached its targets, and a row
    that did not scores +inf with status `unreached`.  The results go back
    to row order.  counters counts the chunks and the matrices of rank
    below n.
    """
    blocks = _ctrb_blocks(sys, T)
    shape = (sys.n, T * sys.m)

    def evaluate(mask: np.ndarray) -> tuple[np.ndarray, list[str]]:
        values = np.empty(len(mask))
        reached = np.empty(len(mask), dtype=bool)
        for rows, stack in _active_stacks(blocks, mask, _CHUNK):
            U, s, rank = _factor_stack(stack, shape)
            counters["chunks"] += 1
            counters["rank_deficient"] += int(np.count_nonzero(rank < sys.n))
            values[rows], reached[rows] = decide(U, s, rank)
        return np.where(reached, values, math.inf), np.where(reached, OPTIMAL, unreached).tolist()

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
    """Problem III with a pure 1-norm objective: a certified LP per signal, solved in stacks.

    The rows' controllability matrices are built and factored _CHUNK at a
    time (solvers._min_fuel_rows): each rank group takes its range test
    and, with input_bound, peak_within's tests as array code, and its fuel
    LPs share a stacked interior-point solve, so min_fuel on a row's
    matrix is the same row.  info["counters"] counts the LPs solved, their
    interior-point iterations and the stacked solver calls.
    """
    signals = candidate_signals(constraint, T, mode, cap)
    x_f = np.asarray(x_f, dtype=float).ravel()
    blocks = _ctrb_blocks(sys, T)
    counters = _lp_counters()

    def evaluate(mask: np.ndarray) -> tuple[np.ndarray, list[str]]:
        return _unzip([
            _score(res)
            for lo in range(0, len(mask), _CHUNK)
            for res in _min_fuel_rows(
                _ctrb_stack(blocks, mask[lo : lo + _CHUNK]), x_f, input_bound, counters
            )
        ])

    info = {"objective": "fuel", "input_bound": input_bound, "counters": counters}
    return _scan("III", signals, mode, evaluate, info)


def worst_energy(
    sys: SwitchedLinearSystem,
    constraint: Automaton | int,
    T: int,
    x_f,
    mode: str = MINIMAL,
    cap: int = DEFAULT_EXHAUSTIVE_CAP,
) -> WorstCaseReport:
    """Problem III with a pure 2-norm objective: least input norms, one factor per chunk.

    info["counters"] counts the chunks factored and the matrices of rank
    below n among them.
    """
    signals = candidate_signals(constraint, T, mode, cap)
    x_f = np.asarray(x_f, dtype=float).ravel()
    counters = {"chunks": 0, "rank_deficient": 0}
    evaluate = _factored(
        sys, T, lambda U, s, rank: _least_norm(U, s, rank, x_f), INFEASIBLE, counters
    )
    return _scan("III", signals, mode, evaluate, {"objective": "energy", "counters": counters})


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
    """Problem III with the combined weighted 1-norm + 2-norm objective, one solve per row."""
    signals = candidate_signals(constraint, T, mode, cap)
    x_f = np.asarray(x_f, dtype=float).ravel()
    blocks = _ctrb_blocks(sys, T)

    def evaluate(mask: np.ndarray) -> tuple[np.ndarray, list[str]]:
        Cs = (_ctrb_stack(blocks, row[None])[0] for row in mask)
        return _unzip([_score(min_fuel_energy(C, x_f, gamma1, gamma2)) for C in Cs])

    info = {"objective": "fuel+energy", "gamma1": gamma1, "gamma2": gamma2}
    return _scan("III", signals, mode, evaluate, info)


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
    vertices, v' W^+ v = ||s_r^-1 U_r' v||^2, read from the factor of the
    controllability matrix C rather than from W = CC', whose condition
    number is cond(C)^2; a vertex off C's range is unreachable and scores
    +infinity.  Containment holds when the worst value is at most 1 + FEAS_TOL.
    info["counters"] counts the chunks factored and the matrices of rank
    below n among them.
    """
    V = poly.vertices
    if V.shape[1] != sys.n:
        raise ValueError(f"vertices must have dimension {sys.n}")
    signals = candidate_signals(constraint, T, mode, cap)
    counters = {"chunks": 0, "rank_deficient": 0}

    def decide(U: np.ndarray, sv: np.ndarray, rank: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        values = np.empty(len(U))
        all_reached = np.empty(len(U), dtype=bool)
        for r, idx in _ranks(rank):
            coeff, reached = _range_test(U[idx, :, :r], V)
            values[idx] = np.max(np.sum((coeff / sv[idx, None, :r]) ** 2, axis=2), axis=1)
            all_reached[idx] = reached.all(axis=1)
        return values, all_reached

    evaluate = _factored(sys, T, decide, "unreachable_vertex", counters)
    info = {"tolerance": FEAS_TOL, "counters": counters}
    report = _scan("IV", signals, mode, evaluate, info)
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
    """Problem V: worst optimal cost x0' P(0) x0 of the per-signal recursion.

    P(0) depends on the whole signal but P(t) only on its suffix, so the
    rows are sorted by suffix and walked over their suffix trie in blocks
    of _TRIE_ENTRIES // n^2 rows (at least one); info["counters"] counts
    the trie nodes stepped against the row-steps of a per-signal recursion.
    """
    signals = candidate_signals(constraint, weights.T, mode, cap)
    x0 = np.asarray(x0, dtype=float).ravel()
    counters = {"nodes": 0, "row_steps": 0}

    def evaluate(mask: np.ndarray) -> tuple[np.ndarray, list[str]]:
        order = np.lexsort(mask.T)  # last column first: rows sharing a suffix sit together
        costs = np.empty(len(mask))
        block = max(1, _TRIE_ENTRIES // sys.n**2)
        for lo in range(0, len(mask), block):
            rows = order[lo : lo + block]
            walk = _riccati(sys, mask[rows], weights)
            next(walk)  # the root, P(T) = Qf
            for P, node in walk:
                counters["nodes"] += len(P)
            costs[rows] = _quadratic(x0[:, None], P)[node]
        counters["row_steps"] += mask.size
        return costs, [OPTIMAL] * len(mask)

    return _scan("V", signals, mode, evaluate, {"counters": counters})


def worst_fixed_input_lqr(
    sys: SwitchedLinearSystem,
    constraint: Automaton | int,
    weights: LqrWeights,
    x0,
    mode: str = MINIMAL,
    cap: int = DEFAULT_EXHAUSTIVE_CAP,
) -> WorstCaseReport:
    """Problem VI: worst degraded cost of the ideal-loop gains under dropouts.

    The rolled state depends only on the signal's prefix, so blocks of
    _TRIE_ENTRIES // n rows (at least one), in the candidates'
    lexicographic order, are rolled over their prefix trie;
    info["counters"] counts the trie nodes stepped against the row-steps
    of a per-signal rollout.

    Minimal mode is a heuristic here (the degraded cost is not proven
    antitone in the support order); exhaustive mode is the ground truth,
    so minimal-mode reports carry a warning.
    """
    signals = candidate_signals(constraint, weights.T, mode, cap)
    x0 = np.asarray(x0, dtype=float).ravel()
    gains = lti_gains(sys, weights)

    counters = {"nodes": 0, "row_steps": 0}

    def evaluate(mask: np.ndarray) -> tuple[np.ndarray, list[str]]:
        # the candidates come in lexicographic order, so blocks share prefixes
        costs = np.empty(len(mask))
        block = max(1, _TRIE_ENTRIES // sys.n)
        for lo in range(0, len(mask), block):
            costs[lo : lo + block], nodes = _rollout(sys, gains, mask[lo : lo + block], weights, x0)
            counters["nodes"] += nodes
        counters["row_steps"] += mask.size
        return costs, [OPTIMAL] * len(mask)

    info: dict = {"counters": counters}
    if mode == MINIMAL:
        info["warning"] = (
            "minimal-signal search for the fixed-gain degraded cost is heuristic; "
            "run exhaustive mode for a certified worst case"
        )
    return _scan("VI", signals, mode, evaluate, info)


@dataclass(frozen=True)
class Problem:
    """One analysis of the table: problem label, entry point, arguments.

    `run(sys, constraint, mode=mode, cap=cap, **values)` returns the
    report, where `values` holds one entry for each name in `args`, the
    entry point's own parameter names.  `infeasible_task` names what an
    infeasible report failed at; None where no outcome is infeasible.
    """

    label: str
    run: Callable[..., WorstCaseReport]
    args: tuple[str, ...]
    infeasible_task: str | None
    summary: str


# one row per command-line analysis, in the order the subcommands are listed
PROBLEMS = {
    "estimate-time": Problem(
        "I", worst_estimation_time, ("T",), "estimation",
        "worst time to recover the state from outputs",
    ),
    "control-time": Problem(
        "II", worst_control_time, ("T", "x0"), "transfer",
        "worst time to park the state at the origin",
    ),
    "fuel": Problem(
        "III", worst_fuel, ("T", "x_f", "input_bound"), "input_design",
        "worst minimum-fuel input design",
    ),
    "energy": Problem(
        "III", worst_energy, ("T", "x_f"), "input_design", "worst minimum-energy input design"
    ),
    "fuel-energy": Problem(
        "III", worst_fuel_energy, ("T", "x_f", "gamma1", "gamma2"), "input_design",
        "worst combined 1-norm + 2-norm input design",
    ),
    "reach": Problem(  # the report half of (reachable, report)
        "IV", lambda *args, **kw: polytope_reachable(*args, **kw)[1], ("T", "poly"), None,
        "check a polytope against all unit-energy reachable sets",
    ),
    "lqr-maxmin": Problem(
        "V", worst_lqr, ("weights", "x0"), None, "worst re-optimized quadratic cost"
    ),
    "lqr-fixed": Problem(
        "VI", worst_fixed_input_lqr, ("weights", "x0"), None, "worst fixed-gain quadratic cost"
    ),
}
