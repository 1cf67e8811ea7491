import numpy as np
import pytest

from dropctrl.simplex import _MAX_ITER, _solve_stack, solve_standard_lp


def test_simple_lp():
    # min x0 + x1 s.t. x0 + x1 = 1 -> value 1
    res = solve_standard_lp([1.0, 1.0], [[1.0, 1.0]], [1.0])
    assert res.status == "optimal"
    assert res.value == pytest.approx(1.0)


def test_prefers_cheap_column():
    # min x0 + 3 x1 s.t. x0 + x1 = 2
    res = solve_standard_lp([1.0, 3.0], [[1.0, 1.0]], [2.0])
    assert res.status == "optimal"
    assert np.allclose(res.x, [2.0, 0.0])


def test_infeasible():
    # x0 = -1 with x0 >= 0: out of contract (the package never builds an
    # infeasible program), so the only promise is no "optimal" verdict
    res = solve_standard_lp([1.0], [[1.0]], [-1.0])
    assert res.status != "optimal"


def test_unbounded():
    # min -x0 s.t. x0 - x1 = 0: both can grow; out of contract like the above
    res = solve_standard_lp([-1.0, 0.0], [[1.0, -1.0]], [0.0])
    assert res.status != "optimal"


def test_negative_rhs_handled():
    # min x1 s.t. -x0 = -2  ->  x0 = 2
    res = solve_standard_lp([0.0, 1.0], [[-1.0, 0.0]], [-2.0])
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(2.0)


def test_redundant_rows():
    A = [[1.0, 1.0], [2.0, 2.0]]
    res = solve_standard_lp([1.0, 2.0], A, [1.0, 2.0])
    assert res.status == "optimal"
    assert res.value == pytest.approx(1.0)
    # dual certificate still prices the primal exactly
    assert res.value == pytest.approx(float(np.dot([1.0, 2.0], res.dual)))


def test_degenerate_vertices_terminate():
    # many ties in the ratio test; Bland's rule must not cycle
    A = np.array(
        [
            [1.0, 1.0, 1.0, 0.0],
            [1.0, 0.0, 0.0, 1.0],
        ]
    )
    res = solve_standard_lp([1.0, 1.0, 1.0, 1.0], A, [0.0, 0.0])
    assert res.status == "optimal"
    assert res.value == pytest.approx(0.0)


def test_duality_on_random_feasible_instances():
    rng = np.random.default_rng(7)
    for _ in range(60):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(m, 9))
        A = rng.standard_normal((m, n))
        x0 = np.abs(rng.standard_normal(n))
        b = A @ x0
        c = np.abs(rng.standard_normal(n))
        res = solve_standard_lp(c, A, b)
        assert res.status == "optimal"
        # strong duality at the reported basis
        assert res.value == pytest.approx(float(b @ res.dual), rel=1e-8, abs=1e-8)
        # dual feasibility A'y <= c
        slack = c - A.T @ res.dual
        assert slack.min() >= -1e-7
        # primal feasibility
        assert np.linalg.norm(A @ res.x - b) <= 1e-7 * max(1.0, np.linalg.norm(b))
        assert res.x.min() >= -1e-9


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_standard_lp([1.0], [[1.0, 2.0]], [1.0])


def assert_certified(c, A, b, res):
    """The three relative tests an "optimal" result promises, in the caller's units."""
    c, A, b = (np.asarray(v, dtype=float) for v in (c, A, b))
    assert res.status == "optimal"
    assert res.x.min() >= 0.0
    assert res.value == float(c @ res.x)
    assert np.linalg.norm(A @ res.x - b) <= 1e-9 * (np.linalg.norm(b) or 1.0)
    assert np.linalg.norm(np.maximum(A.T @ res.dual - c, 0.0)) <= 1e-9 * np.linalg.norm(c)
    assert abs(res.value - float(b @ res.dual)) <= 1e-9 * abs(res.value)


def random_program(rng, kind, shape=None):
    """A feasible, bounded program (c >= 0) of the given kind, with a feasible x0.

    `shape` fixes (m, n) of a generic-shaped kind; by default both are drawn.
    """
    if shape is None:
        m = int(rng.integers(1, 7))
        n = m if kind == "square" else int(rng.integers(m + 1, 16))
    else:
        m, n = shape
    A = rng.standard_normal((m, n))
    x0 = np.abs(rng.standard_normal(n))
    c = np.abs(rng.standard_normal(n))
    if kind == "degenerate":
        x0[rng.random(n) < 0.6] = 0.0
    if kind == "redundant":
        A = np.vstack([A, rng.standard_normal((2, m)) @ A])
    if kind in ("scaled", "scaled_columns"):
        # column norms from 1 to 1e15; "scaled" substitutes x -> x / scale, so
        # the program is the generic one in other units
        scale = 10.0 ** rng.uniform(0.0, 15.0, n)
        A = A * scale
        if kind == "scaled":
            c, x0 = c * scale, x0 / scale
        else:
            x0[rng.random(n) < 0.5] = 0.0
    return c, A, A @ x0


@pytest.mark.parametrize(
    "kind", ["generic", "square", "degenerate", "redundant", "scaled", "scaled_columns"]
)
def test_optimal_results_carry_their_certificate(kind):
    rng = np.random.default_rng(101)
    certified = 0
    for _ in range(100):
        c, A, b = random_program(rng, kind)
        res = solve_standard_lp(c, A, b)
        assert res.status in ("optimal", "iteration_limit")
        if res.status == "optimal":
            assert_certified(c, A, b, res)
            certified += 1
    # a badly scaled program may stay uncertified; every other kind certifies
    assert certified >= (50 if kind == "scaled_columns" else 100)


def test_tiny_optimum_is_certified_relative_to_itself():
    # a gap test against 1 + |value| would accept any value below 1e-9 here
    rng = np.random.default_rng(103)
    for _ in range(20):
        c, A, b = random_program(rng, "generic")
        base = solve_standard_lp(c, A, b)
        tiny = solve_standard_lp(1e-12 * c, A, b)
        assert_certified(1e-12 * c, A, b, tiny)
        assert tiny.value == pytest.approx(1e-12 * base.value, rel=3e-9)


def test_zero_optimum_is_certified():
    # c vanishes on a feasible point's support: the optimum is exactly 0, which
    # only an exact finish on the support can certify relative to itself
    rng = np.random.default_rng(107)
    for _ in range(50):
        _, A, _ = random_program(rng, "generic")
        n = A.shape[1]
        x0 = np.abs(rng.standard_normal(n))
        x0[rng.random(n) < 0.5] = 0.0
        c = np.where(x0 > 0, 0.0, np.abs(rng.standard_normal(n)))
        res = solve_standard_lp(c, A, A @ x0)
        assert_certified(c, A, A @ x0, res)
        assert res.value == 0.0


def assert_same_result(got, want):
    assert (got.status, got.value, got.iterations) == (want.status, want.value, want.iterations)
    for u, v in ((got.x, want.x), (got.dual, want.dual)):
        assert (u is None and v is None) or np.array_equal(u, v)


def solve_as_stack(programs, stop=None):
    return _solve_stack(*(np.stack(part) for part in zip(*programs)), stop)


def test_stacked_programs_end_as_if_solved_alone():
    # members leave the stack at different iterations, some uncertified;
    # each keeps the arithmetic of its one-program stack, bit for bit
    rng = np.random.default_rng(109)
    kinds = ["generic", "degenerate", "scaled", "scaled_columns"] * 5
    programs = [random_program(rng, kind, shape=(4, 10)) for kind in kinds]
    alone = [solve_standard_lp(*p) for p in programs]
    assert len({res.iterations for res in alone}) > 3
    assert {res.status for res in alone} == {"optimal", "iteration_limit"}
    for got, want in zip(solve_as_stack(programs), alone):
        assert_same_result(got, want)


def test_stack_with_a_singular_normal_matrix_and_a_stall():
    rng = np.random.default_rng(113)
    programs = [random_program(rng, "generic", shape=(4, 10)) for _ in range(3)]
    # a repeated row: every normal matrix A D A' of this program is singular,
    # so the stack's solve falls back to solving its programs one at a time
    c, A, _ = random_program(rng, "generic", shape=(4, 10))
    A[3] = A[0]
    redundant = (c, A, A @ np.abs(rng.standard_normal(10)))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(A @ A.T, redundant[2])
    # a badly scaled program that stops uncertified well before the cap
    while True:
        stall = random_program(rng, "scaled_columns", shape=(4, 10))
        if solve_standard_lp(*stall).status != "optimal":
            break
    programs[1:1] = [redundant, stall]
    alone = [solve_standard_lp(*p) for p in programs]
    assert alone[2].status == "iteration_limit" and alone[2].iterations < _MAX_ITER
    for i in (0, 1, 3, 4):
        assert_certified(*programs[i], alone[i])
    for got, want in zip(solve_as_stack(programs), alone):
        assert_same_result(got, want)


def test_stopped_programs_end_as_if_solved_alone():
    # the caller's test, one function of the dual iterate, stops a program
    # once its dual's peak entry passes 100: the even programs, whose costs
    # (and so duals) are scaled by 1e3, stop early and the odd ones never;
    # stopped or not, each program ends as it does alone, and one the test
    # does not stop as it does without a test
    rng = np.random.default_rng(127)
    programs = [random_program(rng, kind, shape=(4, 10)) for kind in ["generic", "degenerate"] * 4]
    programs = [(c * (1e3 if i % 2 == 0 else 1.0), A, b) for i, (c, A, b) in enumerate(programs)]
    plain = [solve_standard_lp(*p) for p in programs]
    assert all(res.status == "optimal" and res.value > 0 for res in plain)

    def stop(y):
        return float(np.abs(y).max()) > 100.0

    alone = [solve_standard_lp(*p, stop=stop) for p in programs]
    for i, (res, base) in enumerate(zip(alone, plain)):
        if i % 2:
            assert_same_result(res, base)
        else:
            assert res.status == "stopped" and res.x is None and res.value is None
            assert stop(res.dual) and res.iterations < base.iterations
    for got, want in zip(solve_as_stack(programs, stop), alone):
        assert_same_result(got, want)
