"""Acceptance suite: one test per acceptance criterion.

Each test prints one ACCEPTANCE <id> PASS/FAIL line (run with -s to see
them).  Criterion 1 checks the CLI listings for k=1, T=4 against
references built from the defining property: the admissible language is
every length-4 word with no two consecutive dropouts (no "00"), which is
the Fibonacci number F(6) = 8 words, and its minimal words are
{0101, 0110, 1010}.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from dropctrl import (
    LqrWeights,
    Signal,
    SignalSet,
    StudyConfig,
    SwitchedLinearSystem,
    build_k_constraint_automaton,
    controllability_matrix,
    enumerate_admissible,
    first_full_rank_time,
    min_energy,
    min_fuel,
    min_fuel_energy,
    min_inf_norm,
    minimal_admissible,
    minimal_signals_bfs,
    riccati_backward,
    run_study,
    worst_control_time,
    worst_estimation_time,
    worst_fixed_input_lqr,
    worst_fuel,
    worst_lqr,
)
from dropctrl.cli import main as cli_main
from dropctrl.solvers import OPTIMAL
from oracles import dominates, is_minimal_k, minimal_filter, reachability_gramian


def announce(cid, ok, detail):
    print(f"ACCEPTANCE {cid} {'PASS' if ok else 'FAIL'}: {detail}")


def random_invertible(rng, n):
    while True:
        A = rng.standard_normal((n, n))
        if abs(np.linalg.det(A)) > 1e-3:
            return A


def comparable_pair(rng, T):
    upper = rng.integers(0, 2, size=T)
    lower = upper * rng.integers(0, 2, size=T)
    return Signal(lower.tolist()), Signal(upper.tolist())


def control_steps(sys, s, x0, feas_tol=1e-9):
    v = np.asarray(x0, dtype=float)
    for t in range(len(s)):
        v = sys.A @ v
        res = min_inf_norm(controllability_matrix(sys, Signal(s.bits[: t + 1])), -v)
        if res.status == OPTIMAL and res.value <= 1.0 + feas_tol:
            return t
    return math.inf


# -- criterion 1: worked-example reproduction through the CLI ---------------


def test_criterion_1_minimal_listing(capsys):
    start = time.perf_counter()
    code = cli_main(["minimal", "--k", "1", "--T", "4", "--out", "json"])
    out = json.loads(capsys.readouterr().out)
    elapsed = time.perf_counter() - start
    ok = code == 0 and set(out["signals"]) == {"1010", "0101", "0110"} and elapsed < 1.0
    with capsys.disabled():
        announce("1-minimal", ok, f"minimal k=1 T=4 -> {sorted(out['signals'])} in {elapsed:.3f}s")
    assert ok


def test_criterion_1_admissible_listing(capsys):
    # defining property: the words of length 4 without two consecutive dropouts
    reference = {
        w for w in map("".join, itertools.product("01", repeat=4)) if "00" not in w
    }
    assert len(reference) == 8  # F(6)
    assert reference == {"0101", "0110", "0111", "1010", "1011", "1101", "1110", "1111"}
    start = time.perf_counter()
    code = cli_main(["admissible", "--k", "1", "--T", "4", "--out", "json"])
    out = json.loads(capsys.readouterr().out)
    elapsed = time.perf_counter() - start
    got = set(out["signals"])
    ok = code == 0 and got == reference and elapsed < 1.0
    with capsys.disabled():
        announce(
            "1-admissible",
            ok,
            f"admissible k=1 T=4 -> {len(got)} words in {elapsed:.3f}s; the words "
            "without '00' number F(6) = 8",
        )
    assert ok, (
        "admissible k=1 T=4 must be the F(6) = 8 length-4 words without two "
        f"consecutive dropouts {sorted(reference)} within 1.0 s; got exit code "
        f"{code}, {sorted(got)} in {elapsed:.3f}s"
    )


# -- criterion 2: minimal-generator oracle equivalence ----------------------


def test_criterion_2_oracle_equivalence(capsys):
    start = time.perf_counter()
    for k in (1, 2, 3):
        for T in range(1, 15):
            bfs = minimal_signals_bfs(k, T)
            filt = minimal_filter(enumerate_admissible(build_k_constraint_automaton(k), T))
            assert bfs == filt, (k, T)
            assert minimal_admissible(build_k_constraint_automaton(k), T) == bfs, (k, T)
            chars = SignalSet(
                Signal(bits)
                for bits in itertools.product((0, 1), repeat=T)
                if is_minimal_k(Signal(bits), k)
            )
            assert chars == bfs, (k, T)
    elapsed = time.perf_counter() - start
    ok = elapsed < 60.0
    with capsys.disabled():
        announce("2", ok, f"bfs = filter = pair construction = surround-characterization for k in 1..3, T in 1..14 ({elapsed:.2f}s)")
    assert ok


# -- criterion 3: monotonicity in the support order -------------------------


def test_criterion_3_monotonicity_suite(capsys):
    rng = np.random.default_rng(2024)
    checked = {"estimation": 0, "control": 0, "fuel": 0, "combined": 0, "gramian": 0, "riccati": 0}
    for i in range(200):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 3))
        p = int(rng.integers(1, 3))
        T = int(rng.integers(2, 7))
        sys = SwitchedLinearSystem(
            random_invertible(rng, n), rng.standard_normal((n, m)), rng.standard_normal((p, n))
        )
        s1, s2 = comparable_pair(rng, T)
        assert dominates(s1, s2)

        t1 = first_full_rank_time(sys, s1)
        t2 = first_full_rank_time(sys, s2)
        t1 = math.inf if t1 is None else t1
        t2 = math.inf if t2 is None else t2
        assert t1 >= t2
        checked["estimation"] += 1

        x0 = 0.3 * rng.standard_normal(n)
        assert control_steps(sys, s1, x0) >= control_steps(sys, s2, x0)
        checked["control"] += 1

        xf = rng.standard_normal(n)
        f1 = min_fuel(controllability_matrix(sys, s1), xf)
        f2 = min_fuel(controllability_matrix(sys, s2), xf)
        v1 = math.inf if f1.value is None else f1.value
        v2 = math.inf if f2.value is None else f2.value
        if math.isinf(v2):
            assert math.isinf(v1)
        else:
            assert v1 >= v2 - 1e-6 * max(1.0, abs(v2))
        checked["fuel"] += 1

        g1 = min_fuel_energy(controllability_matrix(sys, s1), xf, 1.0, 1.0)
        g2 = min_fuel_energy(controllability_matrix(sys, s2), xf, 1.0, 1.0)
        w1 = math.inf if g1.value is None else g1.value
        w2 = math.inf if g2.value is None else g2.value
        if math.isinf(w2):
            assert math.isinf(w1)
        else:
            assert w1 >= w2 - 1e-6 * max(1.0, abs(w2))
        checked["combined"] += 1

        D = reachability_gramian(sys, s2) - reachability_gramian(sys, s1)
        assert np.linalg.eigvalsh(D)[0] >= -1e-9 * max(1.0, np.abs(D).max())
        checked["gramian"] += 1

        M = rng.standard_normal((n, n))
        Mr = rng.standard_normal((m, m))
        weights = LqrWeights(M.T @ M, Mr.T @ Mr + 0.5 * np.eye(m), M.T @ M + 0.5 * np.eye(n), T)
        DP = riccati_backward(sys, s1, weights)[0] - riccati_backward(sys, s2, weights)[0]
        assert np.linalg.eigvalsh(DP)[0] >= -1e-9 * max(1.0, np.abs(DP).max())
        checked["riccati"] += 1
    with capsys.disabled():
        announce("3", True, f"antitone/PSD monotonicity over 200 instances {checked}")


# -- criterion 4: minimal vs exhaustive mode agreement -----------------------


def test_criterion_4_mode_equivalence(capsys):
    rng = np.random.default_rng(777)
    vi_discrepancies = []
    for i in range(100):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 3))
        p = int(rng.integers(1, 3))
        k = int(rng.integers(1, 3))
        T = int(rng.integers(2, 9))
        sys = SwitchedLinearSystem(
            random_invertible(rng, n), rng.standard_normal((n, m)), rng.standard_normal((p, n))
        )
        x0 = 0.3 * rng.standard_normal(n)
        xf = rng.standard_normal(n)
        weights = LqrWeights.identity(n, m, T)

        a = worst_estimation_time(sys, k, T, mode="minimal").worst_value
        b = worst_estimation_time(sys, k, T, mode="exhaustive").worst_value
        assert a == b, ("I", i)

        a = worst_control_time(sys, k, T, x0, mode="minimal").worst_value
        b = worst_control_time(sys, k, T, x0, mode="exhaustive").worst_value
        assert a == b, ("II", i)

        a = worst_fuel(sys, k, T, xf, mode="minimal").worst_value
        b = worst_fuel(sys, k, T, xf, mode="exhaustive").worst_value
        if math.isinf(a) or math.isinf(b):
            assert math.isinf(a) and math.isinf(b), ("III", i)
        else:
            assert a == pytest.approx(b, rel=1e-6), ("III", i)

        a = worst_lqr(sys, k, weights, x0, mode="minimal").worst_value
        b = worst_lqr(sys, k, weights, x0, mode="exhaustive").worst_value
        assert a == pytest.approx(b, rel=1e-6), ("V", i)

        a = worst_fixed_input_lqr(sys, k, weights, x0, mode="minimal").worst_value
        b = worst_fixed_input_lqr(sys, k, weights, x0, mode="exhaustive").worst_value
        if not (a == pytest.approx(b, rel=1e-6)):
            vi_discrepancies.append((i, a, b))
    with capsys.disabled():
        announce(
            "4",
            True,
            "minimal == exhaustive for I, II, III, V on 100 instances; "
            f"problem VI heuristic disagreed on {len(vi_discrepancies)} "
            f"instance(s) (logged, not failures): {vi_discrepancies[:5]}",
        )


# -- criterion 5: convex-solver correctness ----------------------------------


def test_criterion_5_solver_correctness(capsys):
    rng = np.random.default_rng(55)
    worst_gap = 0.0
    worst_resid = 0.0
    worst_ext = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 5))
        q = int(rng.integers(n, 11))
        C = rng.standard_normal((n, q))
        xf = C @ rng.standard_normal(q)
        fuel = min_fuel(C, xf)
        assert fuel.status == OPTIMAL
        assert fuel.duality_gap <= 1e-8
        worst_gap = max(worst_gap, fuel.duality_gap)

        energy = min_energy(C, xf)
        assert energy.status == OPTIMAL
        assert energy.residual <= 1e-9 * np.linalg.norm(xf)
        worst_resid = max(worst_resid, energy.residual / np.linalg.norm(xf))

        ext_fuel = min_fuel_energy(C, xf, 1.0, 0.0)
        ext_energy = min_fuel_energy(C, xf, 0.0, 1.0)
        assert ext_fuel.value == pytest.approx(fuel.value, rel=1e-5, abs=1e-7)
        assert ext_energy.value == pytest.approx(energy.value, rel=1e-5, abs=1e-7)
        if fuel.value > 1e-9:
            worst_ext = max(worst_ext, abs(ext_fuel.value - fuel.value) / fuel.value)
        if energy.value > 1e-9:
            worst_ext = max(worst_ext, abs(ext_energy.value - energy.value) / energy.value)
    with capsys.disabled():
        announce(
            "5",
            True,
            f"100 LPs: max duality gap {worst_gap:.2e} (<=1e-8); max least-norm residual "
            f"{worst_resid:.2e} (<=1e-9 rel); max extreme-gamma mismatch {worst_ext:.2e} (<=1e-5)",
        )


# -- criterion 6: scalar hand checks -----------------------------------------


def test_criterion_6_scalar_hand_checks(capsys):
    sys = SwitchedLinearSystem([[2.0]], [[1.0]], [[1.0]])
    w = LqrWeights([[1.0]], [[1.0]], [[1.0]], 1)
    p1 = riccati_backward(sys, Signal("1"), w)[0, 0, 0]
    p0 = riccati_backward(sys, Signal("0"), w)[0, 0, 0]
    from dropctrl import degraded_cost, lti_gains

    d0 = degraded_cost(sys, lti_gains(sys, w), Signal("0"), w, [1.0])
    fuel = min_fuel([[2.0, 1.0]], [1.0]).value
    energy = min_energy([[2.0, 1.0]], [1.0]).value
    checks = {
        "P0(sigma=1)=3": abs(p1 - 3.0) <= 1e-9,
        "P0(sigma=0)=5": abs(p0 - 5.0) <= 1e-9,
        "degraded(s=0)=6": abs(d0 - 6.0) <= 1e-9,
        "fuel=0.5": abs(fuel - 0.5) <= 1e-9,
        "energy=1/sqrt(5)": abs(energy - 1.0 / math.sqrt(5.0)) <= 1e-9,
    }
    ok = all(checks.values())
    with capsys.disabled():
        announce("6", ok, f"scalar hand checks at 1e-9: {checks}")
    assert ok


# -- criterion 7: randomized-study structural reproduction -------------------


def test_criterion_7_study_structural(capsys):
    start = time.perf_counter()
    code = cli_main(
        ["study", "--problem", "I", "--k", "1", "--states", "10", "--inputs", "7",
         "--samples", "50", "--seed", "7", "--out", "json"]
    )
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["retained_samples"] == 50
    avg_exact = doc["avg_rpd_percent"] == 100.0
    assert avg_exact

    nonneg = True
    retained_counts = {}
    for problem, cfg in (
        ("II", StudyConfig(problem="II", k=1, n=10, m=7, samples=6, T=12, seed=3)),
        ("III", StudyConfig(problem="III", k=1, n=10, m=7, samples=9, T=12, seed=3)),
        ("V", StudyConfig(problem="V", k=1, n=10, m=7, samples=9, T=12, seed=3)),
        ("VI", StudyConfig(problem="VI", k=1, n=3, m=2, samples=9, T=6, seed=3, mode="exhaustive")),
    ):
        res = run_study(cfg)
        retained_counts[problem] = res.retained
        assert res.retained >= 1, problem
        for row in res.rows:
            if row.status == "ok" and row.rpd_percent < 0.0:
                nonneg = False
    elapsed = time.perf_counter() - start
    ok = avg_exact and nonneg and elapsed < 300.0
    with capsys.disabled():
        announce(
            "7",
            ok,
            f"study I (k=1, n=10, m=7, 50 samples): avg RPD exactly 100%; II/III/V/VI retained "
            f"{retained_counts} all RPD >= 0; {elapsed:.1f}s (< 300s)",
        )
    assert ok


# -- criterion 8: generator timing direction ---------------------------------


def test_criterion_8_timing_direction(capsys):
    k, T = 3, 14
    best_fast = math.inf
    best_filter = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        minimal_signals_bfs(k, T)
        best_fast = min(best_fast, time.perf_counter() - t0)
        t0 = time.perf_counter()
        minimal_filter(enumerate_admissible(build_k_constraint_automaton(k), T))
        best_filter = min(best_filter, time.perf_counter() - t0)
    ok = best_fast < best_filter
    with capsys.disabled():
        announce(
            "8", ok,
            f"minimal-automaton bfs {best_fast*1e3:.3f}ms vs dominance filter "
            f"{best_filter*1e3:.1f}ms at k=3, T=14 (direction only)",
        )
    assert ok
