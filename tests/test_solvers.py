import itertools
import math

import numpy as np
import pytest

import dropctrl.solvers as solvers
from dropctrl import (
    EXHAUSTIVE,
    INFEASIBLE,
    MAX_ITERATIONS,
    MINIMAL,
    OPTIMAL,
    Polytope,
    SolveResult,
    SwitchedLinearSystem,
    min_energy,
    min_fuel,
    min_fuel_energy,
    min_inf_norm,
    peak_within,
    polytope_reachable,
    worst_fuel_energy,
)
from dropctrl.worstcase import _CHUNK
from oracles import fuel_energy_row


def brute_force_min_fuel(C, xf, tol=1e-9):
    """Minimum 1-norm over all basic solutions of [C, -C] z = xf, z >= 0."""
    C = np.atleast_2d(C)
    n, q = C.shape
    A = np.hstack([C, -C])
    r = np.linalg.matrix_rank(C)
    best = math.inf
    for cols in itertools.combinations(range(2 * q), r):
        sub = A[:, cols]
        if np.linalg.matrix_rank(sub) < r:
            continue
        z, *_ = np.linalg.lstsq(sub, xf, rcond=None)
        if np.linalg.norm(sub @ z - xf) > tol * max(1.0, np.linalg.norm(xf)):
            continue
        if z.min() < -tol:
            continue
        best = min(best, float(np.abs(z).sum()))
    return best


def test_min_energy_examples():
    res = min_energy([[2.0, 1.0]], [1.0])
    assert res.status == OPTIMAL
    assert np.allclose(res.u, [0.4, 0.2])
    assert res.value == pytest.approx(1.0 / math.sqrt(5.0))
    res = min_energy(np.eye(3), [1.0, -2.0, 0.5])
    assert np.allclose(res.u, [1.0, -2.0, 0.5])
    res = min_energy(np.zeros((2, 2)), [1.0, 0.0])
    assert res.status == INFEASIBLE


def test_min_energy_residual_bound():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        q = int(rng.integers(n, 10))
        C = rng.standard_normal((n, q))
        xf = C @ rng.standard_normal(q)
        res = min_energy(C, xf)
        assert res.status == OPTIMAL
        assert res.residual <= 1e-9 * np.linalg.norm(xf)


def test_min_fuel_examples():
    res = min_fuel([[2.0, 1.0]], [1.0])
    assert res.status == OPTIMAL
    assert res.value == pytest.approx(0.5)
    assert np.allclose(res.u, [0.5, 0.0])
    res = min_fuel([[1.0, 1.0]], [1.0])
    assert res.value == pytest.approx(1.0)
    res = min_fuel([[2.0, 1.0]], [1.0], input_bound=0.1)
    assert res.status == INFEASIBLE
    res = min_fuel(np.zeros((1, 2)), [1.0])
    assert res.status == INFEASIBLE
    res = min_fuel([[2.0, 1.0]], [0.0])
    assert res.status == OPTIMAL and res.value == 0.0


def test_min_fuel_input_bound_respected():
    res = min_fuel([[2.0, 1.0]], [1.0], input_bound=0.4)
    assert res.status == OPTIMAL
    assert np.abs(res.u).max() <= 0.4 + 1e-9
    # bound forces fuel above the unconstrained 0.5
    assert res.value >= 0.5 - 1e-12


def test_min_fuel_bound_decided_by_least_peak(monkeypatch):
    C, xf = [[2.0, 1.0]], [3.0]  # least peak input 1.0, reached by u = (1, 1)
    res = min_fuel(C, xf, input_bound=1.0)  # the box leaves that one point
    assert res.status == OPTIMAL
    assert np.allclose(res.u, [1.0, 1.0]) and res.value == pytest.approx(2.0)
    assert min_fuel(C, xf, input_bound=1.0 - 1e-6).status == INFEASIBLE
    assert min_fuel(C, [0.0], input_bound=1.0).value == 0.0
    # a peak that is not certified is the answer, not a verdict on the bound;
    # at a bound of 1.1 neither screen decides (least-norm peak 1.2, dual
    # bound 1.0), so the peak LP runs
    failed = SolveResult(MAX_ITERATIONS, iterations=7)
    monkeypatch.setattr(solvers, "_min_inf_norm", lambda *a: failed)
    assert min_fuel(C, xf, input_bound=1.1) is failed


def test_min_fuel_bound_screens_skip_the_peak_lp(monkeypatch):
    C, xf = [[2.0, 1.0]], [3.0]  # least-norm input (1.2, 0.6), least peak 1.0
    assert [peak_within(C, xf, bound)[0] for bound in (5.0, 1.1, 0.9)] == [
        "upper_screen", "lp_solves", "lower_screen",
    ]
    assert peak_within(np.zeros((2, 3)), [1.0, 0.0], 1.0)[0] == "off_range"
    monkeypatch.setattr(solvers, "_min_inf_norm", lambda *a: pytest.fail("the peak LP ran"))
    # a least-norm input inside the box: the box is the bound itself
    res = min_fuel(C, xf, input_bound=5.0)
    assert res.status == OPTIMAL and res.value == pytest.approx(1.5)
    assert np.abs(res.u).max() <= 5.0
    # a dual bound above the box
    res = min_fuel(C, xf, input_bound=0.9)
    assert res.status == INFEASIBLE and res.iterations == 0


def test_nan_bound_is_refused_and_an_infinite_one_is_no_bound():
    # value > nan is False, so a NaN bound would pass every LP as within it
    with pytest.raises(ValueError):
        peak_within(np.eye(2), [1.0, 0.0], float("nan"))
    with pytest.raises(ValueError):
        min_fuel(np.eye(2), [1.0, 0.0], input_bound=float("nan"))
    by, res = peak_within(np.eye(2), [1.0, 0.0], math.inf)
    assert (by, res.status, res.value) == ("upper_screen", OPTIMAL, 1.0)
    C, xf = [[2.0, 1.0]], [3.0]
    unbounded, res = min_fuel(C, xf), min_fuel(C, xf, input_bound=math.inf)
    assert (res.status, res.value) == (unbounded.status, unbounded.value) == (OPTIMAL, 1.5)
    assert np.array_equal(res.u, unbounded.u)


NAN, INF = math.nan, math.inf
ONE_MATRIX = {
    "min_energy": (min_energy, "x_f"),
    "min_fuel": (min_fuel, "x_f"),
    "min_inf_norm": (min_inf_norm, "b"),
    "peak_within": (lambda C, b: peak_within(C, b, 1.0), "b"),
    "min_fuel_energy": (lambda C, x_f: min_fuel_energy(C, x_f, 1.0, 1.0), "x_f"),
}


@pytest.mark.parametrize("solver", list(ONE_MATRIX))
def test_one_matrix_solvers_refuse_non_finite_or_mis_sized_inputs(solver):
    # refused by name before any solve: no optimal NaN, no infeasible, no LinAlgError
    solve, target = ONE_MATRIX[solver]
    for C, b, name in [
        ([[1.0, 2.0]], [NAN], target),
        ([[1.0, 2.0]], [INF], target),
        ([[1.0, 2.0]], [1.0, 2.0], target),
        ([[1.0, 2.0]], [], target),
        ([[NAN, 2.0]], [1.0], "Cmat"),
        ([[1.0, -INF]], [1.0], "Cmat"),
    ]:
        with pytest.raises(ValueError, match=rf"^{name} "):
            solve(C, b)


@pytest.mark.parametrize("gamma1, gamma2", [(NAN, 1.0), (1.0, NAN), (INF, 1.0), (1.0, INF), (-INF, 1.0)])
def test_fuel_energy_weights_must_be_finite(gamma1, gamma2):
    with pytest.raises(ValueError, match="gamma"):
        solvers.check_weights(gamma1, gamma2)
    with pytest.raises(ValueError, match="gamma"):
        min_fuel_energy([[1.0, 2.0]], [1.0], gamma1, gamma2)
    plant = SwitchedLinearSystem([[2.0]], [[1.0]], [[1.0]])
    with pytest.raises(ValueError, match="gamma"):
        worst_fuel_energy(plant, 1, 4, [1.0], gamma1, gamma2)


def test_lp_result_off_target_is_not_optimal(monkeypatch):
    # a certified LP whose u misses C u = x_f by more than FEAS_TOL ||x_f||
    # (here, by 1e-6) is no optimal design
    original = solvers._solve_stack

    def off_target(c, A, b):
        lps = original(c, A, b)
        for lp in lps:
            lp.x = lp.x * (1.0 + 1e-6)
        return lps

    monkeypatch.setattr(solvers, "_solve_stack", off_target)
    res = min_fuel([[2.0, 1.0]], [1.0])
    assert res.status == MAX_ITERATIONS and res.u is None


def test_min_fuel_duality_gap_random():
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        q = int(rng.integers(n, 11))
        C = rng.standard_normal((n, q))
        xf = C @ rng.standard_normal(q)
        res = min_fuel(C, xf)
        assert res.status == OPTIMAL
        assert res.duality_gap <= 1e-8
        assert res.residual <= 1e-9 * max(1.0, np.linalg.norm(xf))
        assert res.value == pytest.approx(np.abs(res.u).sum(), rel=1e-9, abs=1e-12)


def test_min_fuel_scaling_law():
    rng = np.random.default_rng(29)
    C = rng.standard_normal((2, 6))
    xf = C @ rng.standard_normal(6)
    base = min_fuel(C, xf).value
    for alpha in (0.5, 2.0, 7.5):
        scaled = min_fuel(C, alpha * xf).value
        assert scaled == pytest.approx(alpha * base, rel=1e-8)


def test_min_fuel_matches_basic_solution_enumeration():
    rng = np.random.default_rng(31)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        q = int(rng.integers(n, 8))  # 2q <= 14 columns
        C = rng.standard_normal((n, q))
        xf = C @ rng.standard_normal(q)
        expected = brute_force_min_fuel(C, xf)
        got = min_fuel(C, xf).value
        assert got == pytest.approx(expected, rel=1e-7, abs=1e-9)


def test_min_fuel_monotone_under_column_zeroing():
    # zeroing column blocks (coarser signal) never decreases the optimum
    rng = np.random.default_rng(37)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        q = int(rng.integers(n + 1, 9))
        C = rng.standard_normal((n, q))
        xf = C @ rng.standard_normal(q)
        rich = min_fuel(C, xf)
        mask = rng.integers(0, 2, size=q).astype(bool)
        Cz = C.copy()
        Cz[:, mask] = 0.0
        poor = min_fuel(Cz, xf)
        if poor.status == OPTIMAL:
            assert poor.value >= rich.value - 1e-6 * max(1.0, rich.value)


def test_min_inf_norm_examples():
    res = min_inf_norm([[2.0, 1.0]], [3.0])
    assert res.status == OPTIMAL
    assert res.value == pytest.approx(1.0)
    assert np.allclose(res.u, [1.0, 1.0])
    res = min_inf_norm(np.eye(3), [1.0, -2.0, 0.5])
    assert res.value == pytest.approx(2.0)
    res = min_inf_norm(np.zeros((2, 3)), [1.0, 0.0])
    assert res.status == INFEASIBLE
    res = min_inf_norm(np.eye(2), [0.0, 0.0])
    assert res.status == OPTIMAL and res.value == 0.0


def test_min_inf_norm_duality_gap_random():
    rng = np.random.default_rng(41)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        q = int(rng.integers(n, 9))
        C = rng.standard_normal((n, q))
        b = C @ rng.standard_normal(q)
        res = min_inf_norm(C, b)
        assert res.status == OPTIMAL
        assert res.duality_gap <= 1e-8


def test_min_fuel_energy_gamma_extremes():
    res = min_fuel_energy([[2.0, 1.0]], [1.0], 0.0, 1.0)
    assert res.status == OPTIMAL
    assert res.value == pytest.approx(1.0 / math.sqrt(5.0), rel=1e-5)
    res = min_fuel_energy([[2.0, 1.0]], [1.0], 1.0, 0.0)
    assert res.value == pytest.approx(0.5, rel=1e-5)


def test_min_fuel_energy_forced_solution():
    res = min_fuel_energy(np.eye(2), [1.0, 0.0], 1.0, 1.0)
    assert res.status == OPTIMAL
    assert res.value == pytest.approx(2.0, rel=1e-7)
    assert np.allclose(res.u, [1.0, 0.0], atol=1e-7)


def test_min_fuel_energy_agrees_with_pure_solvers_random():
    rng = np.random.default_rng(43)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        q = int(rng.integers(n, 8))
        C = rng.standard_normal((n, q))
        xf = C @ rng.standard_normal(q)
        fuel = min_fuel(C, xf).value
        energy = min_energy(C, xf).value
        got_fuel = min_fuel_energy(C, xf, 1.0, 0.0)
        got_energy = min_fuel_energy(C, xf, 0.0, 1.0)
        assert got_fuel.status == OPTIMAL
        assert got_energy.status == OPTIMAL
        assert got_fuel.value == pytest.approx(fuel, rel=1e-5, abs=1e-7)
        assert got_energy.value == pytest.approx(energy, rel=1e-5, abs=1e-7)


def test_min_fuel_energy_matches_the_one_row_oracle():
    # a 1 x q row's optimum is |x_f| y*, y* bisected on the dual constraint
    rng = np.random.default_rng(71)
    for _ in range(60):
        c = rng.standard_normal(int(rng.integers(1, 10)))
        xf = float(rng.standard_normal())
        g1, g2 = rng.uniform(0.1, 3.0, size=2)
        res = min_fuel_energy(c[None], [xf], g1, g2)
        assert res.status == OPTIMAL
        assert res.value == pytest.approx(fuel_energy_row(c, xf, g1, g2), rel=1e-9, abs=0.0)


def test_lp_solvers_match_external_reference():
    # independent route: the same programs through scipy's interior-point/
    # HiGHS solver must land on the same optimal values
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(53)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        q = int(rng.integers(n, 10))
        C = rng.standard_normal((n, q))
        xf = C @ rng.standard_normal(q)

        ours = min_fuel(C, xf)
        ref = linprog(
            np.ones(2 * q), A_eq=np.hstack([C, -C]), b_eq=xf, bounds=(0, None)
        )
        assert ref.status == 0
        assert ours.value == pytest.approx(ref.fun, rel=1e-7, abs=1e-9)

        ours = min_inf_norm(C, xf)
        # variables (u, t): minimize t with -t <= u_i <= t
        c = np.zeros(q + 1)
        c[q] = 1.0
        A_ub = np.block(
            [[np.eye(q), -np.ones((q, 1))], [-np.eye(q), -np.ones((q, 1))]]
        )
        ref = linprog(
            c,
            A_ub=A_ub,
            b_ub=np.zeros(2 * q),
            A_eq=np.hstack([C, np.zeros((n, 1))]),
            b_eq=xf,
            bounds=(None, None),
        )
        assert ref.status == 0
        assert ours.value == pytest.approx(ref.fun, rel=1e-7, abs=1e-9)


def test_min_fuel_energy_bracketed_by_pure_solutions():
    # lower bound: per-term minima; upper bound: combined objective at the
    # pure solvers' feasible points
    rng = np.random.default_rng(59)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        q = int(rng.integers(n, 9))
        C = rng.standard_normal((n, q))
        xf = C @ rng.standard_normal(q)
        g1, g2 = float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.1, 3.0))
        fuel = min_fuel(C, xf)
        energy = min_energy(C, xf)
        combined = min_fuel_energy(C, xf, g1, g2)
        assert combined.status == OPTIMAL
        lower = g1 * fuel.value + g2 * energy.value
        upper = min(
            g1 * np.abs(u).sum() + g2 * np.linalg.norm(u)
            for u in (fuel.u, energy.u)
        )
        assert combined.value >= lower - 1e-6 * max(1.0, lower)
        assert combined.value <= upper + 1e-6 * max(1.0, upper)


def test_min_fuel_energy_feasibility_and_residual():
    rng = np.random.default_rng(47)
    C = rng.standard_normal((3, 8))
    xf = C @ rng.standard_normal(8)
    res = min_fuel_energy(C, xf, 1.0, 2.5)
    assert res.status == OPTIMAL
    assert res.residual <= 1e-9 * np.linalg.norm(xf)
    # combined objective bounded below by the pure problems
    assert res.value >= min_fuel(C, xf).value - 1e-6
    assert res.value >= 2.5 * min_energy(C, xf).value - 1e-6
    res = min_fuel_energy(np.zeros((2, 3)), [1.0, 0.0], 1.0, 1.0)
    assert res.status == INFEASIBLE
    with pytest.raises(ValueError):
        min_fuel_energy(C, xf, 0.0, 0.0)
    with pytest.raises(ValueError):
        min_fuel_energy(C, xf, -1.0, 1.0)


def test_min_fuel_energy_iteration_cap(monkeypatch):
    # a row stops at the cap on its Newton steps, uncertified
    monkeypatch.setattr(solvers, "_NEWTON_STEPS", 3)
    rng = np.random.default_rng(47)
    C = rng.standard_normal((3, 8))
    xf = C @ rng.standard_normal(8)
    res = min_fuel_energy(C, xf, 1.0, 1.0)
    assert (res.status, res.iterations, res.u) == (MAX_ITERATIONS, 3, None)
    # no step at all: the polish of the start, u = 0, has no support
    monkeypatch.setattr(solvers, "_NEWTON_STEPS", 0)
    sys = SwitchedLinearSystem([[2.0]], [[1.0]], [[1.0]])
    report = worst_fuel_energy(sys, 1, 4, [1.0], 1.0, 1.0, EXHAUSTIVE)
    assert [e.status for e in report.per_signal] == [MAX_ITERATIONS] * 8
    assert report.info["failed_signals"] == [str(e.signal) for e in report.per_signal]
    assert report.info["counters"] == {"rows": 8, "newton_steps": 0, "polishes": 8}


def test_min_fuel_energy_survives_a_singular_newton_system():
    # at gamma2 / gamma1 = 1e-12 the barrier's Newton system is singular in
    # floating point; the row ends like any stall instead of raising
    res = min_fuel_energy([[1.0]], [1.0], 1.0, 1e-12)
    assert res.status == MAX_ITERATIONS or res.value == pytest.approx(1.0, rel=1e-9)


def count_decompositions(monkeypatch):
    counts = dict.fromkeys(("svd", "pinv", "eigh", "eigvalsh"), 0)
    for name in counts:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


@pytest.mark.parametrize(
    "solve",
    [
        min_energy,
        min_fuel,
        min_inf_norm,
        lambda C, xf: min_fuel_energy(C, xf, 1.0, 1.0),
    ],
    ids=["energy", "fuel", "inf_norm", "fuel_energy"],
)
@pytest.mark.parametrize("reachable", [True, False])
def test_one_svd_per_solve(monkeypatch, solve, reachable):
    rng = np.random.default_rng(61)
    C = rng.standard_normal((3, 6))
    if not reachable:
        C[2] = 0.0
    xf = np.array([1.0, -0.5, 2.0])
    counts = count_decompositions(monkeypatch)
    res = solve(C, xf)
    assert res.status == (OPTIMAL if reachable else INFEASIBLE)
    # min_energy's screen certifies the full-rank C from its triangle's inverse
    svd = 0 if solve is min_energy and reachable else 1
    assert counts == {"svd": svd, "pinv": 0, "eigh": 0, "eigvalsh": 0}


@pytest.mark.parametrize("bound, by", [(1.05, "lp_solves"), (5.0, "upper_screen")])
def test_bounded_min_fuel_takes_one_svd(monkeypatch, bound, by):
    # the range test, the screens, the peak LP and the fuel LP share one factor
    C, xf = [[2.0, 1.0]], [3.0]  # least-norm input (1.2, 0.6), least peak 1.0
    assert peak_within(C, xf, bound)[0] == by
    counts = count_decompositions(monkeypatch)
    res = min_fuel(C, xf, input_bound=bound)
    assert res.status == OPTIMAL
    assert counts == {"svd": 1, "pinv": 0, "eigh": 0, "eigvalsh": 0}


# the scan factors _CHUNK rows at a time among the rows of one count of
# successes: the 5 minimal signals at T=6 have 3 or 4 (two chunks), the
# 89 admissible ones at T=9 have 4 to 9 (six chunks).  A chunk takes one
# SVD call for the matrices its screen does not certify full rank: none of
# the controllable plant's, and all of the plant whose third state no
# input reaches (a zero on each triangle's diagonal)
@pytest.mark.parametrize("mode, T, chunks", [(MINIMAL, 6, 2), (EXHAUSTIVE, 9, 6)])
def test_polytope_one_svd_per_chunk(monkeypatch, mode, T, chunks):
    for deficient in (False, True):
        rng = np.random.default_rng(67)
        A, B = rng.standard_normal((3, 3)), rng.standard_normal((3, 1))
        if deficient:
            A[2, :2] = B[2] = 0.0
        sys = SwitchedLinearSystem(A, B, np.eye(3))
        poly = Polytope(rng.standard_normal((4, 3)))
        counts = count_decompositions(monkeypatch)
        _, rep = polytope_reachable(sys, 1, T, poly, mode=mode)
        sizes = np.bincount([e.signal.count_ones() for e in rep.per_signal])
        counters = rep.info["counters"]
        assert chunks == sum(-(-size // _CHUNK) for size in sizes) == counters["chunks"]
        svd_rows = len(rep.per_signal) if deficient else 0
        assert counters["svd_rows"] == counters["rank_deficient"] == svd_rows
        assert counts == {"svd": chunks if svd_rows else 0, "pinv": 0, "eigh": 0, "eigvalsh": 0}
