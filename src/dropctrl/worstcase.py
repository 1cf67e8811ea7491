"""Worst-case analysis over admissible dropout signals.

Every problem evaluates a per-signal measure and takes the maximum over a
candidate set: the minimal signals (fast mode, justified by the antitone
behaviour of each measure in the support order) or the full admissible
language (exhaustive mode, the ground truth).  An infeasible outcome
counts as +infinity; signals whose solver failed (MAX_ITERATIONS, as a
NaN value and an overflowed cost count) are listed in
info["failed_signals"].  Reports are deterministic: the candidates are
scanned in lexicographic order, and the first attaining signal is the argmax.

Each analysis refuses a bad T, mode, cap or state (x0 or x_f must be n
finite numbers) before any work, builds its per-call data once and hands
`_scan` the candidates and an evaluator of their packed (N, T) bool
array.  Work is shared over the signal trie (lqr._children numbers a
level) wherever a quantity depends on a prefix or a suffix alone: V
steps one Riccati matrix per distinct suffix, VI one state per distinct
prefix, and I and II decide each level's distinct prefixes once.  Every
controllability matrix is factored in stacks of at most _CHUNK by the
solvers' one factorization and decided in array code, one rank group at
a time: II's screens leave few prefixes to an LP, III-fuel's LPs of one
rank share a stacked interior-point iteration, fuel+energy solves each
row from its factor, and III-energy and IV factor C' without its zero
rows and take the SVD only of triangles not certified full rank.
info["counters"] says how much work each analysis did or shared; each
entry point's docstring names its counters.

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
from collections.abc import Sequence
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
    _FE_COUNTERS,
    _least_norm_groups,
    _lp_counters,
    _min_fuel_energy_rows,
    _min_fuel_rows,
    _norms,
    _peak_rows,
    check_weights,
)
from .systems import (
    SwitchedLinearSystem,
    _active_stacks,
    _ctrb_blocks,
    _ctrb_stack,
    _finite,
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

# rows per factored stack: at n=10, m=7, k=2, T=24, III-energy and IV take
# the same time at 64, 128 and 256 rows, and 64 the least memory (ROADMAP)
_CHUNK = 64
# float64 entries per trie level in V and VI: a V node holds P (n x n), a
# VI node x (n), so at n=10 V walks 256 rows a block and VI 2,560
_TRIE_ENTRIES = 25_600


@dataclass(frozen=True)
class PerSignal:
    signal: Signal
    value: float  # math.inf encodes an infeasible subproblem
    status: str


@dataclass
class WorstCaseReport:
    """One analysis's worst case over its candidates, and each candidate's entry.

    A scan's per_signal is a read-only sequence that builds its PerSignal
    list on first read and then keeps it, so its entries are the same
    objects on every read; len() builds nothing.  A caller may put any
    sequence of PerSignal there instead.
    """

    problem: str
    mode: str
    worst_value: float
    argmax_signal: Signal | None
    per_signal: Sequence[PerSignal]
    wallclock: float
    feasible: bool
    info: dict = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class Polytope:
    """Convex hull of finitely many vertices, stored as rows."""

    vertices: np.ndarray

    def __post_init__(self):
        V = np.atleast_2d(_finite(self.vertices, "vertices"))
        if V.shape[0] < 1:
            raise ValueError("polytope needs at least one vertex")
        object.__setattr__(self, "vertices", V)


class _Entries(Sequence):
    """A scan's per-signal entries, kept as its columns until one is read.

    The columns are the candidates (a SignalSet), their read-only value
    array and their status list.  The first read of an entry builds the
    PerSignal list, which every later read returns.
    """

    __slots__ = ("signals", "values", "statuses", "_built")

    def __init__(self, signals: SignalSet, values: np.ndarray, statuses: list[str]):
        values.flags.writeable = False
        self.signals, self.values, self.statuses = signals, values, statuses
        self._built: list[PerSignal] | None = None

    def __reduce__(self):
        # rebuilt from the columns, so a restored value array is read-only again
        return _Entries, (self.signals, self.values, self.statuses)

    def _list(self) -> list[PerSignal]:
        if self._built is None:
            self._built = list(map(PerSignal, self.signals, self.values.tolist(), self.statuses))
        return self._built

    def __len__(self) -> int:
        return len(self.statuses)

    def __getitem__(self, i):
        return self._list()[i]

    def __iter__(self):
        return iter(self._list())

    def __eq__(self, other) -> bool:
        return self._list() == other  # as the list compares

    def __repr__(self) -> str:
        return repr(self._list())


def _columns(entries: Sequence[PerSignal]) -> tuple[Sequence[str], list[float], list[str]]:
    """A report's per_signal as (words, values, statuses) columns.

    A scan's entries give the scan's own columns, since a PerSignal cannot
    be edited; any other sequence a caller put there is read as given.
    """
    if isinstance(entries, _Entries):
        return entries.signals.to_strings(), entries.values.tolist(), entries.statuses
    return [str(e.signal) for e in entries], [e.value for e in entries], [e.status for e in entries]


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
    list of N statuses.  A NaN value, and an infinite one said OPTIMAL
    (a cost that overflowed), is no verdict: its row scores +inf as
    MAX_ITERATIONS.  The report keeps the candidates, the values and the
    statuses as its columns; worst_value, argmax_signal and
    info["failed_signals"] are read from them, and no PerSignal is built
    until per_signal is read.
    """
    start = time.perf_counter()
    bits = signals.to_array()
    values, statuses = evaluate(bits)
    for i in np.flatnonzero(~np.isfinite(values)).tolist():
        if math.isnan(values[i]) or statuses[i] == OPTIMAL:
            statuses[i] = MAX_ITERATIONS
    values = np.where(np.isnan(values), math.inf, values)
    # lexicographic order: np.argmax returns the first attainer of a tie
    top = int(np.argmax(values))
    worst = float(values[top])
    info = dict(info or {})
    if MAX_ITERATIONS in statuses:
        failed = [i for i, status in enumerate(statuses) if status == MAX_ITERATIONS]
        # rows taken in order stay in lexicographic order
        info["failed_signals"] = list(SignalSet._from_array(bits[failed]).to_strings())
    return WorstCaseReport(
        problem=problem,
        mode=mode,
        worst_value=worst,
        argmax_signal=next(iter(SignalSet._from_array(bits[[top]]))) if worst > -math.inf else None,
        per_signal=_Entries(signals, values, statuses),
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
    x0 = _finite(x0, "x0", size=sys.n)
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


def _factored(
    sys: SwitchedLinearSystem,
    T: int,
    targets: np.ndarray,
    reduce: Callable[[np.ndarray], np.ndarray],
    unreached: str,
    counters: dict,
) -> Callable[[np.ndarray], tuple[np.ndarray, list[str]]]:
    """A III-energy or IV evaluator over the least-norm coordinates of the rows' targets.

    The rows are factored _CHUNK at a time among rows of the same count of
    successful steps: one QR call over their C' less its zero rows, then
    solvers._least_norm_groups with the rank cut of C's own shape (n, m T),
    which inverts the triangles in one call and sends only those its
    screen does not certify full rank to one SVD call.  `reduce(Y)` maps a
    group's coordinates Y (rows, targets, w) to each row's value; a row
    that did not reach every target scores +inf with status `unreached`.
    The results go back to row order.  counters counts the chunks, the
    matrices of rank below n and the matrices that took the SVD.
    """
    blocks = _ctrb_blocks(sys, T)
    shape = (sys.n, T * sys.m)

    def evaluate(mask: np.ndarray) -> tuple[np.ndarray, list[str]]:
        values = np.empty(len(mask))
        reached = np.empty(len(mask), dtype=bool)
        for rows, stack in _active_stacks(blocks, mask, _CHUNK):
            counters["chunks"] += 1
            R = np.linalg.qr(stack, mode="r")
            for idx, Y, ok, Wt in _least_norm_groups(R, shape, targets):
                counters["svd_rows"] += 0 if Wt is None else len(idx)
                counters["rank_deficient"] += len(idx) if Y.shape[2] < sys.n else 0
                values[rows[idx]], reached[rows[idx]] = reduce(Y), ok.all(axis=1)
        return np.where(reached, values, math.inf), np.where(reached, OPTIMAL, unreached).tolist()

    return evaluate


def _stacked(blocks: np.ndarray, solve: Callable[[np.ndarray], list]) -> Callable:
    """A III evaluator: solve the rows' controllability matrices _CHUNK at a time; no value is +inf."""

    def evaluate(mask: np.ndarray) -> tuple[np.ndarray, list[str]]:
        chunks = (_ctrb_stack(blocks, mask[lo : lo + _CHUNK]) for lo in range(0, len(mask), _CHUNK))
        results = [res for Cs in chunks for res in solve(Cs)]
        values = [math.inf if res.value is None else res.value for res in results]
        return np.array(values, dtype=float), [res.status for res in results]

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
    x_f = _finite(x_f, "x_f", size=sys.n)
    counters = _lp_counters()
    evaluate = _stacked(
        _ctrb_blocks(sys, T), lambda Cs: _min_fuel_rows(Cs, x_f, input_bound, counters)
    )
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

    info["counters"] counts the chunks factored, and the matrices of rank
    below n and those that took the SVD among them (_factored).
    """
    signals = candidate_signals(constraint, T, mode, cap)
    x_f = _finite(x_f, "x_f", size=sys.n)
    counters = {"chunks": 0, "rank_deficient": 0, "svd_rows": 0}
    evaluate = _factored(sys, T, x_f[None], lambda Y: _norms(Y[:, 0]), INFEASIBLE, counters)
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
    """Problem III with the combined weighted 1-norm + 2-norm objective: a certified solve per signal.

    The rows are factored _CHUNK at a time and each solved from its factor
    (solvers._min_fuel_energy_rows); info["counters"] counts the rows solved,
    their Newton steps and polish attempts.  A zero weight gives worst_fuel's
    or worst_energy's report, its values times the other weight.
    """
    check_weights(gamma1, gamma2)
    info = {"objective": "fuel+energy", "gamma1": gamma1, "gamma2": gamma2}
    if gamma1 == 0.0 or gamma2 == 0.0:
        pure = worst_energy if gamma1 == 0.0 else worst_fuel
        report = pure(sys, constraint, T, x_f, mode=mode, cap=cap)
        entries = report.per_signal  # unread: its columns
        report.per_signal = _Entries(
            entries.signals, entries.values * (gamma1 + gamma2), entries.statuses
        )
        report.worst_value *= gamma1 + gamma2
        report.info.update(info)
        return report
    signals = candidate_signals(constraint, T, mode, cap)
    x_f = _finite(x_f, "x_f", size=sys.n)
    info["counters"] = counters = dict.fromkeys(_FE_COUNTERS, 0)
    evaluate = _stacked(
        _ctrb_blocks(sys, T), lambda Cs: _min_fuel_energy_rows(Cs, x_f, gamma1, gamma2, counters)
    )
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
    vertices, v' W^+ v = ||s_r^-1 U_r' v||^2, or ||R'^-1 v||^2 when the
    triangle R of C_+' = Q R is certified full rank, read from the factor
    of the controllability matrix C rather than from W = CC', whose
    condition number is cond(C)^2; a vertex off C's range is unreachable
    and scores +infinity.  Containment holds when the worst value is at most 1 + FEAS_TOL.
    info["counters"] counts the chunks factored, and the matrices of rank
    below n and those that took the SVD among them (_factored).
    """
    V = poly.vertices
    if V.shape[1] != sys.n:
        raise ValueError(f"vertices must have dimension {sys.n}")
    signals = candidate_signals(constraint, T, mode, cap)
    counters = {"chunks": 0, "rank_deficient": 0, "svd_rows": 0}

    def reduce(Y: np.ndarray) -> np.ndarray:
        return np.max(np.sum(Y**2, axis=2), axis=1)

    evaluate = _factored(sys, T, V, reduce, "unreachable_vertex", counters)
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
    x0 = _finite(x0, "x0", size=sys.n)
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
    x0 = _finite(x0, "x0", size=sys.n)
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
