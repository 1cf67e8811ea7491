"""Independent references for the benchmark's answers, run outside the timed region.

None of dropctrl's solvers is used here.  Linear programs go to HiGHS
through ``scipy.optimize.linprog``; ranks and least-norm designs are read
from ``numpy.linalg.svd``; the Riccati recursion, the closed-loop rollouts
and the candidate sets are re-derived from their definitions.  Each
per-signal verdict compared is one attempted operation; a disagreement is
a failed one and the run goes on.  A check is counted as unresolved, with
its reason, when the reference gives no verified answer or when the
verdict depends on where a threshold falls: a singular value or residual
within ``CONDITION_MARGIN`` of a cut that the program or the reference
uses, or a value the program cannot compute to ``MAX_RTOL`` at its
conditioning.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

import dropctrl as dc
from dropctrl.automata import build_k_constraint_automaton

from workloads import FILTER_K, FULL_T, WIDE_K, WIDE_T, cross_polytope

FEAS_TOL = 1e-9  # the worst_* default the benchmark calls with
VALUE_RTOL = 1e-6  # agreement of optimal values between two solvers
EXACT_RTOL = 1e-8  # agreement of values both sides compute in closed form
LP_BAND = 1e-6  # a parking LP value within this of 1 supports either verdict
HIGHS_RESIDUAL = 1e-7  # largest relative residual of a HiGHS solution we trust
SUBSET = 24  # seeded per-call sample of signals, plus the argmax
CONDITION_MARGIN = 100.0  # a quantity within this factor of a cut is unresolved
MAX_RTOL = 1e-2  # a value the program cannot hold to this is unresolved
EPS = float(np.finfo(float).eps)


class Checker:
    """Tally of verdicts compared against the references."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.unresolved: list[tuple[str, str]] = []  # (check, why) no reference decided
        self.logged: list[str] = []  # heuristic discrepancies, not counted

    def verdict(self, ok: bool | None, context: str, why: str = "no verified reference answer") -> None:
        if ok is None:
            self.unresolved.append((context, why))
            return
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(context)


def _close(a: float, b: float, rtol: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rtol * max(1.0, abs(b))


def _rel_close(a: float, b: float, rtol: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rtol * abs(b)


def _near(x: float, cuts: list[float]) -> bool:
    """x lies within CONDITION_MARGIN of the band the cuts span."""
    return min(cuts) / CONDITION_MARGIN < x <= max(cuts) * CONDITION_MARGIN


def resolved_rank(sv: np.ndarray, cuts: list[float]) -> int | None:
    """Count of singular values above every cut, or None when one is near a cut.

    ``cuts`` are the absolute thresholds the program and the reference
    apply; a singular value near the band they span makes the rank depend
    on the convention.
    """
    if any(_near(s, cuts) for s in sv):
        return None
    return int(np.count_nonzero(sv > max(cuts)))


# --- matrices rebuilt from their definitions ----------------------------

def ctrb(sys, bits) -> np.ndarray:
    """Columns s(i) A^{T-1-i} B, i = 0..T-1."""
    T = len(bits)
    blocks = []
    for i, b in enumerate(bits):
        blocks.append(b * np.linalg.matrix_power(sys.A, T - 1 - i) @ sys.B)
    return np.hstack(blocks)


def observed_rank(sys, bits) -> int | None:
    """Rank of the rows C A^i with s(i) = 1, at first_full_rank_time's cut."""
    rows = [sys.C @ np.linalg.matrix_power(sys.A, i) for i, b in enumerate(bits) if b]
    if not rows:
        return 0
    M = np.vstack(rows)
    sv = np.linalg.svd(M, compute_uv=False)
    return resolved_rank(sv, [max(M.shape) * EPS * sv[0]])


# --- least-norm designs from the SVD of the controllability matrix ------

def program_cuts(problem: str, shape, target_norm: float, s_max: float):
    """dropctrl's thresholds as absolute cuts: on C's singular values, and on
    the norm of a target's component off C's range."""
    q = max(shape)
    if problem == "III-energy":
        # min_energy: pinv(rcond=1e-13), numerical_rank of C and of [C, v]
        return [1e-13 * s_max, q * EPS * s_max], [(q + 1) * EPS * max(s_max, target_norm)]
    # polytope_reachable: eigenvalues of W = CC' above max(lam_max, 1) n eps
    return [math.sqrt(max(s_max**2, 1.0) * shape[0] * EPS)], []


def least_norm(problem: str, C: np.ndarray, targets) -> tuple[float, float] | str:
    """Largest v' (CC')^+ v over the targets, +inf when one is off C's range.

    v' (CC')^+ v is the least squared input energy that reaches v; it is
    read from C's SVD, never from W = CC'.  Returns the form and the
    relative tolerance the program's value can be held to, or why the
    verdict depends on where a threshold falls.
    """
    U, S, _ = np.linalg.svd(C)
    norms = [float(np.linalg.norm(v)) for v in targets]
    rank_cuts, range_cuts = program_cuts(problem, C.shape, max(norms), S[0])
    r = resolved_rank(S, rank_cuts + [max(C.shape) * EPS * S[0]])
    if r is None:
        return "a singular value near a rank cut"
    worst = 0.0
    for v, nv in zip(targets, norms):
        coeff = U.T @ v
        off = float(np.linalg.norm(coeff[r:]))
        cuts = range_cuts + [FEAS_TOL * nv]
        if _near(off, cuts):
            return "the target's off-range part near a cut"
        if off > max(cuts):
            return math.inf, 0.0
        form = float(np.sum((coeff[:r] / S[:r]) ** 2))
        # min_energy also tests the residual of its solution against FEAS_TOL
        if problem == "III-energy" and CONDITION_MARGIN * EPS * S[0] * math.sqrt(form) > FEAS_TOL * nv:
            return "the program's residual test at rounding level"
        worst = max(worst, form)
    kappa = S[0] / S[r - 1] if r else 1.0
    # the program's relative error: pinv of C, or eigh of CC' (condition squared)
    rtol = VALUE_RTOL + CONDITION_MARGIN * EPS * (kappa if problem == "III-energy" else kappa**2)
    if rtol > MAX_RTOL:
        return "the program's value conditioned beyond MAX_RTOL"
    return worst, rtol


# --- linear programs through HiGHS --------------------------------------

def _highs(c, A_eq, b_eq, A_ub=None, b_ub=None, bounds=None):
    from scipy.optimize import linprog

    return linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds, method="highs")


def _certified_infeasible(C: np.ndarray, b: np.ndarray) -> bool:
    """Appending b raises the numerical rank, so C u = b has no solution."""
    return np.linalg.matrix_rank(np.column_stack([C, b])) > np.linalg.matrix_rank(C)


def _lp_answer(res, C, b, u):
    """('optimal', value), ('infeasible', None), or None when unverified."""
    if res.status == 2:
        return ("infeasible", None) if _certified_infeasible(C, b) else None
    if res.status != 0 or np.linalg.norm(C @ u - b) > HIGHS_RESIDUAL * np.linalg.norm(b):
        return None
    return ("optimal", float(res.fun))


def min_inf_norm(C: np.ndarray, b: np.ndarray):
    """min ||u||_inf subject to C u = b, as (status, value) or None."""
    nb = float(np.linalg.norm(b))
    if nb == 0.0:
        return ("optimal", 0.0)
    n, q = C.shape
    bs = b / nb
    eye, col = np.eye(q), np.ones((q, 1))
    c = np.zeros(q + 1)
    c[-1] = 1.0
    res = _highs(
        c,
        np.hstack([C, np.zeros((n, 1))]),
        bs,
        A_ub=np.block([[eye, -col], [-eye, -col]]),
        b_ub=np.zeros(2 * q),
        bounds=[(None, None)] * q + [(0, None)],
    )
    ans = _lp_answer(res, C, bs, None if res.x is None else res.x[:q])
    return ans if ans is None or ans[1] is None else (ans[0], nb * ans[1])


def min_fuel(C: np.ndarray, b: np.ndarray):
    """min ||u||_1 subject to C u = b, as (status, value) or None."""
    nb = float(np.linalg.norm(b))
    if nb == 0.0:
        return ("optimal", 0.0)
    q = C.shape[1]
    bs = b / nb
    res = _highs(np.ones(2 * q), np.hstack([C, -C]), bs, bounds=[(0, None)] * (2 * q))
    u = None if res.x is None else res.x[:q] - res.x[q:]
    ans = _lp_answer(res, C, bs, u)
    return ans if ans is None or ans[1] is None else (ans[0], nb * ans[1])


# --- per-problem verdict checks -----------------------------------------

def check_control_time(checker, sys, report, T, x0, where) -> None:
    """Problem II: the verdict t is the first horizon whose parking LP is <= 1.

    Feasibility is monotone in t (a parked state stays parked with u = 0),
    so checking horizon t and t - 1 decides the verdict.
    """
    targets = []
    v = np.asarray(x0, dtype=float)
    for _ in range(T):
        v = sys.A @ v
        targets.append(-v)
    memo: dict = {}

    def parks(bits, t):  # "yes" | "no" | "either" | None (unresolved)
        key = bits[: t + 1]
        if key not in memo:
            ans = min_inf_norm(ctrb(sys, key), targets[t])
            if ans is None:
                memo[key] = None
            elif ans[0] == "infeasible" or ans[1] >= 1.0 + LP_BAND:
                memo[key] = "no"
            else:
                memo[key] = "yes" if ans[1] <= 1.0 - LP_BAND else "either"
        return memo[key]

    for e in report.per_signal:
        bits = e.signal.bits
        if math.isfinite(e.value):
            t = int(e.value)
            now = parks(bits, t)
            before = "no" if t == 0 else parks(bits, t - 1)
            ok = None if None in (now, before) else (now != "no" and before != "yes")
        else:
            last = parks(bits, T - 1)
            ok = None if last is None else last != "yes"
        checker.verdict(ok, f"{where} II {e.signal}: t={e.value}")


def _check_input_norm(checker, e, ans, where, label) -> None:
    if ans is None:
        ok = None
    elif ans[0] == "infeasible":
        ok = e.status == dc.INFEASIBLE
    else:
        ok = e.status == dc.OPTIMAL and _close(e.value, ans[1], VALUE_RTOL)
    ref = None if ans is None else ans[1]
    checker.verdict(ok, f"{where} {label} {e.signal}: {e.status} {e.value} vs {ref}")


def check_fuel(checker, sys, report, x_f, where) -> None:
    for e in report.per_signal:
        ans = min_fuel(ctrb(sys, e.signal.bits), x_f)
        _check_input_norm(checker, e, ans, where, "III-fuel")


def check_energy(checker, sys, entries, x_f, where) -> None:
    for e in entries:
        ans = least_norm("III-energy", ctrb(sys, e.signal.bits), [x_f])
        context = f"{where} III-energy {e.signal}: {e.status} {e.value}"
        if isinstance(ans, str):
            checker.verdict(None, context, ans)
            continue
        form, rtol = ans
        if math.isinf(form):
            ok = e.status == dc.INFEASIBLE
        else:
            ok = e.status == dc.OPTIMAL and _rel_close(e.value, math.sqrt(form), rtol)
        checker.verdict(ok, f"{context} vs {math.sqrt(form)}")


def check_estimation_time(checker, sys, entries, where) -> None:
    """Problem I: the verdict t is the first prefix whose rows reach rank n."""
    for e in entries:
        bits = e.signal.bits

        def full(t):  # True | False | None (rank near the cut)
            r = observed_rank(sys, bits[: t + 1])
            return None if r is None else r == sys.n

        if math.isfinite(e.value):
            t = int(e.value)
            now, before = full(t), False if t == 0 else full(t - 1)
            ok = None if None in (now, before) else now and not before
        else:
            last = full(len(bits) - 1)
            ok = None if last is None else not last
        checker.verdict(ok, f"{where} I {e.signal}: t={e.value}")


def check_polytope(checker, sys, entries, vertices, where) -> None:
    """Problem IV: max over vertices of v' W^+ v, +inf off the Gramian's range."""
    for e in entries:
        ans = least_norm("IV", ctrb(sys, e.signal.bits), vertices)
        context = f"{where} IV {e.signal}: {e.value}"
        if isinstance(ans, str):
            checker.verdict(None, context, ans)
            continue
        worst, rtol = ans
        checker.verdict(_rel_close(e.value, worst, rtol), f"{context} vs {worst}")


def riccati_cost_to_go(sys, bits, Q, R, Qf) -> list[np.ndarray]:
    A, B = sys.A, sys.B
    P = [None] * (len(bits) + 1)
    P[-1] = Qf
    for t in reversed(range(len(bits))):
        Pn = P[t + 1]
        nxt = Q + A.T @ Pn @ A
        if bits[t]:
            nxt = nxt - A.T @ Pn @ B @ np.linalg.solve(R + B.T @ Pn @ B, B.T @ Pn @ A)
        P[t] = (nxt + nxt.T) / 2.0
    return P


def check_lqr(checker, sys, entries, x0, where) -> None:
    Q, R = np.eye(sys.n), np.eye(sys.m)
    for e in entries:
        P = riccati_cost_to_go(sys, e.signal.bits, Q, R, Q)
        ref = float(x0 @ P[0] @ x0)
        checker.verdict(_close(e.value, ref, EXACT_RTOL), f"{where} V {e.signal}: {e.value} vs {ref}")


def check_fixed_gain(checker, sys, entries, T, x0, where) -> None:
    Q, R = np.eye(sys.n), np.eye(sys.m)
    A, B = sys.A, sys.B
    P = riccati_cost_to_go(sys, (1,) * T, Q, R, Q)
    K = [-np.linalg.solve(R + B.T @ P[t + 1] @ B, B.T @ P[t + 1] @ A) for t in range(T)]
    for e in entries:
        x = np.asarray(x0, dtype=float)
        cost = 0.0
        for t, b in enumerate(e.signal.bits):
            u = K[t] @ x
            cost += float(x @ x + u @ u)
            x = A @ x + (B @ u if b else 0.0)
        cost += float(x @ x)
        checker.verdict(_close(e.value, cost, EXACT_RTOL), f"{where} VI {e.signal}: {e.value} vs {cost}")


# --- candidate sets and the max-reduction -------------------------------

def minimal_words(k: int, T: int) -> frozenset[str]:
    """Words with no k+1 consecutive zeros whose every 1 has at least k
    zeros around it (p just before plus q just after, inside the word)."""
    out = []

    def grow(word, run, p_last):  # run: trailing zeros; p_last: zeros before the last 1
        if len(word) == T:
            if p_last is None or p_last + run >= k:
                out.append(word)
            return
        if run < k:
            grow(word + "0", run + 1, p_last)
        if p_last is None or p_last + run >= k:
            grow(word + "1", 0, run)

    grow("", 0, None)
    return frozenset(out)


def admissible_words(k: int, T: int) -> frozenset[str]:
    """Words with no k+1 consecutive zeros."""
    words = [""]
    for _ in range(T):
        words = [w + "1" for w in words] + [
            w + "0" for w in words if not w.endswith("0" * k)
        ]
    return frozenset(words)


def check_candidates(checker, strings, expected: frozenset, where) -> None:
    got = set(strings)
    checker.verdict(
        got == expected and len(strings) == len(expected),
        f"{where} candidates: {len(got - expected)} extra, {len(expected - got)} missing",
    )


def check_reduction(checker, report, where) -> None:
    """worst_value is the max, argmax the lexicographically first attainer."""
    entries = report.per_signal
    ordered = all(a.signal < b.signal for a, b in zip(entries, entries[1:]))
    worst = max(e.value for e in entries)
    first = next(e.signal for e in entries if e.value == worst)
    ok = ordered and report.worst_value == worst and report.argmax_signal == first
    checker.verdict(ok, f"{where} reduction: {report.worst_value} at {report.argmax_signal}")


def subset(report, rng) -> list:
    """A seeded sample of the per-signal entries that includes the argmax."""
    entries = report.per_signal
    picked = set(rng.choice(len(entries), size=min(SUBSET, len(entries)), replace=False).tolist())
    picked |= {i for i, e in enumerate(entries) if e.signal == report.argmax_signal}
    return [entries[i] for i in sorted(picked)]


# --- dispatch over the workloads' calls ---------------------------------

@functools.cache
def reference_words(kind: str, k: int, T: int) -> frozenset[str]:
    """The minimal or the admissible words for at most k consecutive dropouts."""
    return (minimal_words if kind == "minimal" else admissible_words)(k, T)


def check_call(checker, problem, sys, result, rng, where) -> None:
    """Check one timed call's result against the references."""
    if problem.startswith("bfs-"):
        k, T = (int(part[1:]) for part in problem.split("-")[1:])
        check_candidates(checker, result.to_strings(), reference_words("minimal", k, T), where)
        return
    report = result
    strings = [str(e.signal) for e in report.per_signal]
    check_reduction(checker, report, where)
    ones = np.ones(sys.n)
    if problem == "II":
        check_candidates(checker, strings, reference_words("minimal", 1, 12), where)
        check_control_time(checker, sys, report, 12, ones, where)
    elif problem == "III-fuel":
        check_candidates(checker, strings, reference_words("minimal", 1, 12), where)
        check_fuel(checker, sys, report, ones, where)
    elif problem == "I":
        check_candidates(checker, strings, reference_words("minimal", WIDE_K, WIDE_T), where)
        check_estimation_time(checker, sys, subset(report, rng), where)
    elif problem == "III-energy":
        check_energy(checker, sys, subset(report, rng), ones, where)
    elif problem == "IV":
        check_polytope(checker, sys, subset(report, rng), cross_polytope(sys.n).vertices, where)
    elif problem == "V":
        check_lqr(checker, sys, subset(report, rng), ones, where)
    elif problem == "VI":
        check_fixed_gain(checker, sys, subset(report, rng), WIDE_T, ones, where)
    elif problem == "VI-exhaustive":
        check_candidates(checker, strings, reference_words("admissible", 1, FULL_T), where)
        check_fixed_gain(checker, sys, subset(report, rng), FULL_T, ones, where)
    elif problem == "I-automaton":
        check_candidates(checker, strings, reference_words("minimal", FILTER_K, FULL_T), where)
        check_estimation_time(checker, sys, subset(report, rng), where)
    elif problem == "V-automaton":
        check_lqr(checker, sys, subset(report, rng), ones, where)
    else:
        raise ValueError(f"no reference for {problem!r}")


# --- minimal mode equals exhaustive mode at a small shape ---------------

def check_modes(checker, workload_name, plants) -> None:
    """Minimal equals exhaustive for I, II, III and V; VI is only logged."""
    for plant in plants:
        sys = plant.sys
        ones = np.ones(sys.n)
        where = f"small {plant.method}"
        if workload_name == "study-lp":
            k, T = 1, 8
            calls = {
                "II": lambda mode: dc.worst_control_time(sys, k, T, ones, mode=mode),
                "III-fuel": lambda mode: dc.worst_fuel(sys, k, T, ones, mode=mode),
            }
        elif workload_name == "wide-horizon":
            k, T = WIDE_K, 8
            w = dc.LqrWeights.identity(sys.n, sys.m, T)
            calls = {
                "I": lambda mode: dc.worst_estimation_time(sys, k, T, mode=mode),
                "III-energy": lambda mode: dc.worst_energy(sys, k, T, ones, mode=mode),
                "V": lambda mode: dc.worst_lqr(sys, k, w, ones, mode=mode),
            }
        else:
            a, T = build_k_constraint_automaton(FILTER_K), 8
            w = dc.LqrWeights.identity(sys.n, sys.m, T)
            calls = {
                "I-automaton": lambda mode: dc.worst_estimation_time(sys, a, T, mode=mode),
                "V-automaton": lambda mode: dc.worst_lqr(sys, a, w, ones, mode=mode),
            }
            lo = dc.worst_fixed_input_lqr(sys, 1, w, ones, mode=dc.MINIMAL).worst_value
            hi = dc.worst_fixed_input_lqr(sys, 1, w, ones, mode=dc.EXHAUSTIVE).worst_value
            if not _close(lo, hi, EXACT_RTOL):
                checker.logged.append(f"{where} VI minimal {lo} < exhaustive {hi}")
        for problem, run in calls.items():
            lo, hi = run(dc.MINIMAL), run(dc.EXHAUSTIVE)
            context = f"{where} {problem}: minimal {lo.worst_value} vs exhaustive {hi.worst_value}"
            if problem == "III-energy":
                # an argmax whose verdict sits at a threshold decides nothing
                doubts = [least_norm(problem, ctrb(sys, r.argmax_signal.bits), [ones]) for r in (lo, hi)]
                why = next((d for d in doubts if isinstance(d, str)), None)
                if why:
                    checker.verdict(None, context, why)
                    continue
            checker.verdict(_close(lo.worst_value, hi.worst_value, EXACT_RTOL), context)


# --- the checker must catch planted wrong verdicts ----------------------

def self_check() -> list[str]:
    """Feed the checks verdicts known to be wrong; return what they missed.

    Each case runs a check on a true report, which must pass, and on a
    copy with one per-signal verdict corrupted, which must fail.  The
    first case is a min-fuel record of ``optimal`` at value 0 for a
    nonzero target.
    """
    sys = dc.SwitchedLinearSystem([[0.9, 0.3], [0.0, 1.1]], np.eye(2), np.eye(2))
    T, x0, x_f = 4, np.full(2, 0.5), np.ones(2)
    weights = dc.LqrWeights.identity(2, 2, T)

    def corrupt(report, pick, value):
        entries = list(report.per_signal)
        i = next(i for i, e in enumerate(entries) if pick(e))
        entries[i] = dataclasses.replace(entries[i], value=value, status=dc.OPTIMAL)
        return dataclasses.replace(report, per_signal=entries)

    positive = lambda e: math.isfinite(e.value) and e.value > 0  # noqa: E731
    fuel = dc.worst_fuel(sys, 1, T, x_f)
    ctime = dc.worst_control_time(sys, 1, T, x0)
    etime = dc.worst_estimation_time(sys, 1, T)
    energy = dc.worst_energy(sys, 1, T, x_f)
    poly = dc.polytope_reachable(sys, 1, T, cross_polytope(2))[1]
    lqr = dc.worst_lqr(sys, 1, weights, x0)
    fixed = dc.worst_fixed_input_lqr(sys, 1, weights, x0)
    cases = [
        ("fuel optimal at 0", lambda c, r: check_fuel(c, sys, r, x_f, "self"),
         fuel, corrupt(fuel, positive, 0.0)),
        ("control time too early", lambda c, r: check_control_time(c, sys, r, T, x0, "self"),
         ctime, corrupt(ctime, positive, 0.0)),
        ("estimation time too early", lambda c, r: check_estimation_time(c, sys, r.per_signal, "self"),
         etime, corrupt(etime, positive, 0.0)),
        ("energy halved", lambda c, r: check_energy(c, sys, r.per_signal, x_f, "self"),
         energy, corrupt(energy, positive, energy.per_signal[0].value / 2)),
        ("polytope form halved", lambda c, r: check_polytope(c, sys, r.per_signal, cross_polytope(2).vertices, "self"),
         poly, corrupt(poly, positive, poly.per_signal[0].value / 2)),
        ("lqr cost raised", lambda c, r: check_lqr(c, sys, r.per_signal, x0, "self"),
         lqr, corrupt(lqr, positive, lqr.per_signal[0].value * 1.01)),
        ("rollout cost raised", lambda c, r: check_fixed_gain(c, sys, r.per_signal, T, x0, "self"),
         fixed, corrupt(fixed, positive, fixed.per_signal[0].value * 1.01)),
        ("candidate missing", lambda c, r: check_candidates(
            c, [str(e.signal) for e in r.per_signal], minimal_words(1, T), "self"),
         fuel, dataclasses.replace(fuel, per_signal=fuel.per_signal[1:])),
        ("reduction wrong", lambda c, r: check_reduction(c, r, "self"),
         lqr, dataclasses.replace(lqr, worst_value=lqr.worst_value / 2)),
    ]
    missed = []
    for name, check, good, bad in cases:
        clean, planted = Checker(), Checker()
        check(clean, good)
        check(planted, bad)
        if clean.failed or clean.unresolved or not clean.attempted:
            missed.append(f"{name}: true verdicts not accepted ({clean.failures})")
        if planted.failed == 0:
            missed.append(f"{name}: planted wrong verdict not flagged")
    return missed
