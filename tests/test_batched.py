"""Batched evaluators against per-signal oracles.

III-energy, IV, V, VI and III-fuel evaluate a chunk of rows of the
packed (N, T) candidate array at a time, III-fuel solving its LPs in
stacks; I and II share the call's blocks C A^i or A^{T-1-i} B across
signals and walk their prefix trie, deciding each distinct prefix once.
The oracles below are per-signal
loops in plain numpy or over the public solvers, the arithmetic the scan
did one signal at a time.  Plants are drawn as `run_study` draws them, one
per recipe, the ill-conditioned `gaussian_x10` included; the candidate
counts sit on both sides of the chunk boundaries.  III-energy and IV
factor the triangle of C' = Q R, read a triangle certified full rank
through its inverse and the others through its SVD, and their oracles do
the same one matrix at a time; C's own SVD is a second oracle, which
their values match to within 100 eps cond(C).
"""

import math
import warnings

import numpy as np
import pytest

from dropctrl import (
    EXHAUSTIVE,
    Automaton,
    INFEASIBLE,
    MAX_ITERATIONS,
    OPTIMAL,
    LqrWeights,
    Polytope,
    Signal,
    SignalSet,
    SwitchedLinearSystem,
    candidate_signals,
    controllability_matrix,
    degraded_cost,
    first_full_rank_time,
    lti_gains,
    min_energy,
    min_fuel,
    min_inf_norm,
    numerical_rank,
    polytope_reachable,
    riccati_backward,
    worst_control_time,
    worst_energy,
    worst_estimation_time,
    worst_fixed_input_lqr,
    worst_fuel,
    worst_lqr,
)
from dropctrl import solvers, systems, worstcase
from dropctrl.solvers import (
    FEAS_TOL,
    _full_rank_screen,
    _least_norm_groups,
    _triangle_svd,
    _triangular_inverse,
)
from dropctrl.study import GENERATION_METHODS, _sample_rng, random_system
from dropctrl.systems import _active_stacks, _ctrb_blocks, _ctrb_stack, _full_rank
from oracles import lqr_cost

N_STATES, N_INPUTS, K, T = 6, 3, 2, 14
SEED = 7
COUNTS = [1, 63, 64, 65, 130]
# the LP problems solve a program per signal (II one per horizon), so they
# run at a shorter horizon and at the counts around one chunk boundary
T_LP = 8
LP_COUNTS = [1, 64, 65]
EPS = float(np.finfo(float).eps)


def study_plant(sample):
    method = GENERATION_METHODS[sample % len(GENERATION_METHODS)]
    rng = _sample_rng(SEED, sample)
    return random_system(N_STATES, N_INPUTS, N_INPUTS, method, rng, screen_horizon=T)


def some_signals(count, T=T):
    """`count` distinct words of length T, the all-dropout word among them when count > 1."""
    rng = np.random.default_rng(count)
    if count == 1:
        codes = [2**T - 1]
    else:
        codes = [0, *rng.choice(np.arange(1, 2**T), count - 1, replace=False)]
    return SignalSet(Signal(format(int(c), f"0{T}b")) for c in codes)


# --- per-signal oracles ----------------------------------------------------

def ctrb_oracle(sys, s):
    blocks = [None] * len(s)
    P = sys.B
    for i in range(len(s) - 1, -1, -1):
        blocks[i] = s[i] * P
        if i > 0:
            P = sys.A @ P
    return np.hstack(blocks)


def rank_cut(C, sv):
    # sv is empty for the triangle of a C with no nonzero column
    return int(np.count_nonzero(sv > max(C.shape) * np.finfo(float).eps * sv[:1]))


def triangular_inverse_oracle(R):
    """R^-1 of one upper triangle by back substitution, a row of R^-1 at a time from the last."""
    n = len(R)
    X = np.zeros_like(R)
    for i in reversed(range(n)):
        X[i, i:] = (np.eye(n)[i, i:] - R[i, i + 1 :] @ X[i + 1 :, i:]) / R[i, i]
    return X


def screen_oracle(C, R):
    """R^-1 when the triangle R of C_+' certifies C full rank, else None.

    The certificate is 1 / ||R^-1||_F > 2 max(C.shape) eps ||R||_F: it
    needs a square R with no zero on its diagonal, and an inverse that
    overflows certifies nothing.
    """
    if R.shape[0] < C.shape[0] or not np.diag(R).all():
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        inv = triangular_inverse_oracle(R)
        full = 1.0 / np.linalg.norm(inv) > 2.0 * max(C.shape) * EPS * np.linalg.norm(R)
    return inv if full else None


def factor_oracle(C, targets):
    """Least-norm coordinates Y of the rows of targets, and which of them C reaches.

    C_+ = R'Q' (C_+ being C's nonzero columns) has C's U and s; the rank
    cut is that of C's own shape.  A triangle the screen certifies gives
    Y = targets R^-1 and reaches every target; any other gives U_r'v / s_r
    from the SVD of R'.
    """
    R = np.linalg.qr(C[:, C.any(axis=0)].T, mode="r")
    inv = screen_oracle(C, R)
    if inv is not None:
        return targets @ inv, np.ones(len(targets), dtype=bool)
    U, sv, _ = np.linalg.svd(R.T, full_matrices=False)
    r = rank_cut(C, sv)
    c, ok = reached(U[:, :r], targets)
    return c / sv[:r], ok


def svd_oracle(C):
    """U_r, s_r and V_r of C's own thin SVD, against which the triangle's values are bounded."""
    U, sv, Vt = np.linalg.svd(C, full_matrices=False)
    r = rank_cut(C, sv)
    return U[:, :r], sv[:r], Vt[:r].T


def reached(U, v):
    c = v @ U
    return c, np.linalg.norm(v - c @ U.T, axis=-1) <= FEAS_TOL * np.linalg.norm(v, axis=-1)


def energy_oracle(sys, s, xf):
    # the least-norm input has the norm of its coordinates
    Y, ok = factor_oracle(ctrb_oracle(sys, s), xf[None])
    if not ok[0]:
        return math.inf, INFEASIBLE
    return float(np.linalg.norm(Y[0])), OPTIMAL


def polytope_oracle(sys, s, vertices):
    Y, ok = factor_oracle(ctrb_oracle(sys, s), vertices)
    if not ok.all():
        return math.inf, "unreachable_vertex"
    return float(np.max(np.sum(Y**2, axis=1))), OPTIMAL


def cross_vertices(n):
    return 0.01 * np.vstack([np.eye(n), -np.eye(n)])


def estimation_oracle(sys, s):
    rows = []
    M = sys.C
    for t in range(T):
        if s[t]:
            rows.append(M)
            if len(rows) * sys.p >= sys.n and numerical_rank(np.vstack(rows)) == sys.n:
                return float(t), OPTIMAL
        M = M @ sys.A
    return math.inf, INFEASIBLE


def lqr_oracle(sys, s, w, x0):
    A, B = sys.A, sys.B
    P = w.Qf
    for t in range(T - 1, -1, -1):
        step = w.Q + A.T @ P @ A
        if s[t]:
            BtP = B.T @ P
            step = step - (A.T @ P @ B) @ np.linalg.solve(w.R + BtP @ B, BtP @ A)
        P = (step + step.T) / 2.0
    return float(x0 @ P @ x0), OPTIMAL


def rollout_oracle(sys, gains, s, w, x0):
    x = x0.copy()
    cost = 0.0
    for t in range(len(s)):
        K_t = gains[t]
        cost += float(x @ (w.Q + K_t.T @ w.R @ K_t) @ x)
        x = (sys.A + sys.B @ K_t) @ x if s[t] else sys.A @ x
    return cost + float(x @ w.Qf @ x), OPTIMAL


def control_time_oracle(sys, s, x0, memo=None):
    """The unscreened scan: the min_inf_norm LP on each prefix until one parks.

    `memo` (prefix bits -> LP result) shares the LPs between signals.
    """
    memo = {} if memo is None else memo
    v = x0
    for t in range(len(s)):
        v = sys.A @ v
        key = s.bits[: t + 1]
        if key not in memo:
            memo[key] = min_inf_norm(controllability_matrix(sys, Signal(key)), -v)
        res = memo[key]
        if res.status == MAX_ITERATIONS:
            return math.inf, MAX_ITERATIONS
        if res.status == OPTIMAL and res.value <= 1.0 + FEAS_TOL:
            return float(t), OPTIMAL
    return math.inf, INFEASIBLE


def longdouble_peak_bound(C, b):
    """Weak LP duality, b'y / ||C'y||_1 <= ||u||_inf for C u = b, evaluated in long double.

    y solves C'y = u2, the least-norm input, by least squares; any y gives
    a valid bound, and long double leaves its rounding near 1e-19.
    """
    u2 = np.linalg.lstsq(C, b, rcond=None)[0]
    return longdouble_dual_bound(C, b, np.linalg.lstsq(C.T, u2, rcond=None)[0])


def longdouble_dual_bound(C, b, y):
    """b'y / ||C'y||_1, a lower bound on ||u||_inf for every u with C u = b, in long double."""
    C, b, y = (np.asarray(a, dtype=np.longdouble) for a in (C, b, y))
    return float((b @ y) / np.abs(y @ C).sum())


def fuel_oracle(sys, s, xf, input_bound=None):
    res = min_fuel(controllability_matrix(sys, s), xf, input_bound)
    if res.status == INFEASIBLE or res.value is None:
        return math.inf, res.status
    return float(res.value), res.status


def first_argmax(values, signals):
    worst, argmax = -math.inf, None
    for v, s in zip(values, signals):
        if v > worst:
            worst, argmax = v, s
    return argmax


# --- the scans against the oracles ------------------------------------------

@pytest.fixture(params=range(len(GENERATION_METHODS)), ids=GENERATION_METHODS)
def plant(request):
    return study_plant(request.param)


@pytest.fixture(params=COUNTS, ids=[f"N{n}" for n in COUNTS])
def signals(request, monkeypatch):
    ss = some_signals(request.param)
    assert len(ss) == request.param
    monkeypatch.setattr(worstcase, "candidate_signals", lambda *args, **kwargs: ss)
    return ss


def run_all(sys):
    """Every batched problem on `sys`: name -> (report, per-signal oracle, exact)."""
    ones = np.ones(sys.n)
    w = LqrWeights.identity(sys.n, sys.m, T)
    gains = lti_gains(sys, w)
    vertices = cross_vertices(sys.n)
    # twice the all-ones signal's least peak: the bound rules out the inputs
    # of many sparser signals and leaves the others to the fuel LP
    bound = 2.0 * min_inf_norm(controllability_matrix(sys, Signal.ones(T)), ones).value
    return {
        "I": (worst_estimation_time(sys, K, T), lambda s: estimation_oracle(sys, s), True),
        "III-fuel": (worst_fuel(sys, K, T, ones), lambda s: fuel_oracle(sys, s, ones), True),
        "III-fuel-bounded": (
            worst_fuel(sys, K, T, ones, input_bound=bound),
            lambda s: fuel_oracle(sys, s, ones, bound),
            True,
        ),
        "III-energy": (
            worst_energy(sys, K, T, ones), lambda s: energy_oracle(sys, s, ones), True,
        ),
        "IV": (
            polytope_reachable(sys, K, T, Polytope(vertices))[1],
            lambda s: polytope_oracle(sys, s, vertices),
            True,
        ),
        "V": (worst_lqr(sys, K, w, ones), lambda s: lqr_oracle(sys, s, w, ones), False),
        "VI": (
            worst_fixed_input_lqr(sys, K, w, ones),
            lambda s: rollout_oracle(sys, gains, s, w, ones),
            False,
        ),
    }


def test_batched_scans_match_per_signal_oracles(plant, signals):
    reports = run_all(plant)
    for name, (report, oracle, exact) in reports.items():
        assert [e.signal for e in report.per_signal] == list(signals), name
        expected = [oracle(s) for s in signals]
        assert [e.status for e in report.per_signal] == [st for _, st in expected], name
        got = [e.value for e in report.per_signal]
        want = [v for v, _ in expected]
        if exact:
            assert got == want, name
        else:
            assert got == pytest.approx(want, rel=1e-9, abs=0.0), name
        assert report.argmax_signal == first_argmax(want, signals), name
    free, boxed = (reports[name][0] for name in ("III-fuel", "III-fuel-bounded"))
    # each chunk's reachable rows solve their LPs by rank, in stacks of at
    # most _LP_STACK_ENTRIES entries of the r x 2q constraint matrices
    ranks = [
        numerical_rank(controllability_matrix(plant, e.signal)) if e.status != INFEASIBLE else None
        for e in free.per_signal
    ]
    stacks = 0
    for lo in range(0, len(ranks), worstcase._CHUNK):
        chunk = [r for r in ranks[lo : lo + worstcase._CHUNK] if r is not None]
        for r in set(chunk):
            size = solvers._LP_STACK_ENTRIES // (r * 2 * T * plant.m)
            stacks += -(-chunk.count(r) // size)
    counters = free.info["counters"]
    assert counters["lp_solves"] == sum(r is not None for r in ranks)
    ones = np.ones(plant.n)
    assert counters["iterations"] == sum(
        min_fuel(controllability_matrix(plant, s), ones).iterations for s in signals
    )
    assert counters["stacks"] == stacks
    if len(signals) > 1:
        # the bound decides some reachable rows infeasible and sends others to the LP
        pairs = [(f.status, b.status) for f, b in zip(free.per_signal, boxed.per_signal)]
        assert (OPTIMAL, INFEASIBLE) in pairs and (OPTIMAL, OPTIMAL) in pairs


def test_public_functions_are_the_batch_row(plant, signals):
    ones = np.ones(plant.n)
    w = LqrWeights.identity(plant.n, plant.m, T)
    gains = lti_gains(plant, w)
    energy = worst_energy(plant, K, T, ones).per_signal
    lqr = worst_lqr(plant, K, w, ones).per_signal
    fixed = worst_fixed_input_lqr(plant, K, w, ones).per_signal
    estimation = worst_estimation_time(plant, K, T).per_signal
    for s, e, v, vi, est in zip(signals, energy, lqr, fixed, estimation):
        C = controllability_matrix(plant, s)
        assert np.array_equal(C, ctrb_oracle(plant, s))
        res = min_energy(C, ones)
        assert (res.status, math.inf if res.value is None else res.value) == (e.status, e.value)
        assert lqr_cost(riccati_backward(plant, s, w), ones) == v.value
        assert degraded_cost(plant, gains, s, w, ones) == vi.value
        t = first_full_rank_time(plant, s)
        assert (math.inf if t is None else float(t)) == est.value


def test_minimal_candidates_of_the_channel(plant):
    # the unpatched path: the k=2 minimal candidates, more than one chunk
    signals = candidate_signals(K, T)
    assert len(signals) > worstcase._CHUNK
    for name, (report, oracle, exact) in run_all(plant).items():
        got = [e.value for e in report.per_signal]
        want = [oracle(s)[0] for s in signals]
        if exact:
            assert got == want, name
        else:
            assert got == pytest.approx(want, rel=1e-9, abs=0.0), name


# --- III-energy's and IV's factor against C's own SVD -----------------------


def direct_oracles(C, xf, vertices):
    """(rank, III-energy pair, IV pair) of C from np.linalg.svd(C), and cond(C) over its rank."""
    U, sv, V = svd_oracle(C)
    c, ok = reached(U, xf)
    energy = (float(np.linalg.norm(V @ (c / sv))), OPTIMAL) if ok else (math.inf, INFEASIBLE)
    c, ok = reached(U, vertices)
    if ok.all():
        poly = (float(np.max(np.sum((c / sv) ** 2, axis=1))), OPTIMAL)
    else:
        poly = (math.inf, "unreachable_vertex")
    kappa = sv[0] / sv[-1] if len(sv) else 1.0
    return len(sv), energy, poly, kappa


def assert_within_backward_error(got, want, kappa, label):
    # both factors are backward stable: values agree to about eps * cond(C)
    if math.isinf(want):
        assert got == want, label
    else:
        assert abs(got - want) <= 100 * EPS * kappa * abs(want), label


def factor_ranks(sys, T, rows):
    """Each row's rank from its triangle's SVD, and whether the screen certifies the triangle.

    The triangles are the scan's: of C' less its zero rows, stacked by count.
    """
    rank, certified = np.full(len(rows), -1), np.zeros(len(rows), dtype=bool)
    shape = (sys.n, T * sys.m)
    for idx, stack in _active_stacks(_ctrb_blocks(sys, T), rows, worstcase._CHUNK):
        R = np.linalg.qr(stack, mode="r")
        rank[idx] = _triangle_svd(R, shape)[3]
        certified[idx] = _full_rank_screen(R, shape)[0]
    return rank, certified


def chunks_by_count(rows):
    """Chunks of at most _CHUNK rows among the rows of each count of successful steps."""
    return int(sum(-(-size // worstcase._CHUNK) for size in np.bincount(rows.sum(axis=1))))


@pytest.mark.parametrize("sample", [2, 3, 4], ids=[GENERATION_METHODS[i % 3] for i in (2, 3, 4)])
def test_factor_matches_the_direct_svd_at_the_wide_horizon(sample):
    # the study's samples at n=10, m=7, k=2, T=24: 2,640 minimal signals,
    # cond(C) up to about 1e13, and matrices of rank below 10 on sample 4
    method = GENERATION_METHODS[sample % len(GENERATION_METHODS)]
    sys = random_system(10, 7, 7, method, _sample_rng(SEED, sample), screen_horizon=24)
    k, T_wide = 2, 24
    signals = candidate_signals(k, T_wide)
    ones, vertices = np.ones(sys.n), cross_vertices(sys.n)
    energy = worst_energy(sys, k, T_wide, ones)
    poly = polytope_reachable(sys, k, T_wide, Polytope(vertices))[1]
    blocks, rows = _ctrb_blocks(sys, T_wide), signals.to_array()
    rank, certified = factor_ranks(sys, T_wide, rows)
    want_energy, want_poly, deficient = [], [], 0
    for i, s in enumerate(signals):
        # C's own SVD, zero columns and all
        r, e, p, kappa = direct_oracles(_ctrb_stack(blocks, rows[i : i + 1])[0], ones, vertices)
        label = (method, str(s))
        assert rank[i] == r, label
        # the screen certifies no matrix that C's own SVD finds rank deficient
        assert r == sys.n or not certified[i], label
        deficient += r < sys.n
        for report, want, name in ((energy, e, "III-energy"), (poly, p, "IV")):
            entry = report.per_signal[i]
            assert entry.status == want[1], (name, *label)
            assert_within_backward_error(entry.value, want[0], kappa, (name, *label))
        want_energy.append(e[0])
        want_poly.append(p[0])
    assert energy.argmax_signal == first_argmax(want_energy, signals)
    assert poly.argmax_signal == first_argmax(want_poly, signals)
    assert poly.info["reachable"] == (max(want_poly) <= 1.0 + FEAS_TOL)
    # 8 to 12 successes of 24: five counts, 43 chunks where 2,640 rows in order make 42
    assert chunks_by_count(rows) == 43
    counters = {
        "chunks": chunks_by_count(rows),
        "rank_deficient": deficient,
        "svd_rows": int(np.count_nonzero(~certified)),
    }
    assert energy.info["counters"] == poly.info["counters"] == counters
    assert (deficient > 0) == (sample == 4)
    # every rank-deficient matrix takes the SVD, and the screen spares most full-rank ones
    assert deficient <= counters["svd_rows"] < len(rows) - deficient


def triangle_svd_route(R, shape, targets):
    """Each triangle's least-norm coordinates and range verdicts from its SVD alone, with its rank."""
    U, sv, _, rank = _triangle_svd(R, shape)
    out = []
    for i, r in enumerate(rank.tolist()):
        c, ok = reached(U[i, :, :r], targets)
        out.append((c / sv[i, :r], ok, sv[i, :r]))
    return rank, out


def assert_groups_match_the_svd(R, shape, targets, C=None):
    """_least_norm_groups against the triangles' SVD route, and against C's own SVD where C is given.

    Rank decisions and range verdicts are equal on every triangle; least
    norms are within 100 eps cond of the SVD's.  Returns the certified rows.
    """
    rank, want = triangle_svd_route(R, shape, targets)
    certified = np.zeros(len(R), dtype=bool)
    seen = []
    for idx, Y, ok, Wt in _least_norm_groups(R, shape, targets):
        certified[idx] = Wt is None
        seen.extend(idx.tolist())
        for j, i in enumerate(idx.tolist()):
            # a certified triangle has full rank by its own SVD
            assert Wt is not None or rank[i] == shape[0], i
            assert Y.shape[2] == (shape[0] if Wt is None else rank[i]), i
            want_Y, want_ok, sv = want[i]
            assert ok[j].tolist() == want_ok.tolist(), i
            kappa = sv[0] / sv[-1] if len(sv) else 1.0
            for y, w in zip(Y[j][ok[j]], want_Y[ok[j]]):
                assert_within_backward_error(np.linalg.norm(y), np.linalg.norm(w), kappa, i)
            if C is not None:
                r, want_C = len(svd_oracle(C[i])[1]), direct_oracles(C[i], targets[0], targets)
                if r == rank[i]:  # C's own SVD draws the same rank: the same verdicts and values
                    assert bool(ok[j, 0]) == (want_C[1][1] == OPTIMAL), i
                    if ok[j, 0]:
                        assert_within_backward_error(
                            float(np.linalg.norm(Y[j, 0])), want_C[1][0], want_C[3], i
                        )
    assert sorted(seen) == list(range(len(R)))
    return certified


CUT_FACTORS = [0.5, 1.0, 1.5, 2.0, 3.0, 10.0]


@pytest.mark.parametrize("factor", CUT_FACTORS)
def test_screen_agrees_with_the_triangle_svd_near_the_cut(factor):
    # 64 matrices C = U diag(s) V_i' of shape 6 x 40 with s from 1 down to
    # s_min = factor * the rank cut 40 eps s_max: below the cut rank 5, and
    # the screen certifies none below twice the cut
    n, q = 6, 40
    rng = np.random.default_rng(int(10 * factor))
    U = np.linalg.qr(rng.standard_normal((n, n)))[0]
    sv = np.geomspace(1.0, factor * q * EPS, n)
    C = np.array([(U * sv) @ np.linalg.qr(rng.standard_normal((q, n)))[0].T for _ in range(64)])
    R = np.linalg.qr(C.swapaxes(1, 2), mode="r")
    # a target on the span of the first five left singular vectors, the
    # last of them, and a generic one
    targets = np.vstack([U[:, :5] @ rng.standard_normal(5), U[:, 5], np.ones(n)])
    certified = assert_groups_match_the_svd(R, (n, q), targets, C)
    assert np.array_equal(certified, _full_rank_screen(R, (n, q))[0])
    if factor <= 1.5:
        assert not certified.any()
    if factor >= 3.0:
        assert certified.all()


@pytest.mark.parametrize("sample", [0, 1, 2], ids=GENERATION_METHODS)
def test_screen_agrees_with_the_triangle_svd_on_the_study_recipes(sample):
    plant = study_plant(sample)
    rows = some_signals(130).to_array()
    shape = (plant.n, T * plant.m)
    targets = np.vstack([np.ones(plant.n), cross_vertices(plant.n)])
    blocks = _ctrb_blocks(plant, T)
    certified = 0
    for idx, stack in _active_stacks(blocks, rows, worstcase._CHUNK):
        R = np.linalg.qr(stack, mode="r")
        C = _ctrb_stack(blocks, rows[idx])
        certified += int(assert_groups_match_the_svd(R, shape, targets, C).sum())
    assert 0 < certified < len(rows)


@pytest.mark.parametrize("sample", [2, 3, 4], ids=[GENERATION_METHODS[i % 3] for i in (2, 3, 4)])
def test_triangular_inverse_matches_lu_on_the_study_recipes(sample, monkeypatch):
    # the wide-horizon triangles (n=10, k=2, T=24), cond(R) up to about
    # 1e14: the back substitution solves R X = I to within 2 n eps |R| |X|
    # (Higham, Theorem 8.5, with the check's own product), it and numpy's LU
    # inverse agree to within 2 n eps cond(R), each erring by at most about
    # n eps cond(R), and the screen certifies the same triangles with either
    method = GENERATION_METHODS[sample % len(GENERATION_METHODS)]
    sys = random_system(10, 7, 7, method, _sample_rng(SEED, sample), screen_horizon=24)
    rows, shape = candidate_signals(2, 24).to_array(), (10, 24 * 7)
    chunks = _active_stacks(_ctrb_blocks(sys, 24), rows, worstcase._CHUNK)
    stacks = [np.linalg.qr(stack, mode="r") for _, stack in chunks]
    for R in stacks:
        Ri = R[np.diagonal(R, axis1=1, axis2=2).all(axis=1)]
        X, want = _triangular_inverse(Ri), np.linalg.inv(Ri)
        assert np.array_equal(X, np.triu(X))
        assert (abs(Ri @ X - np.eye(10)) <= 2 * 10 * EPS * (abs(Ri) @ abs(X))).all()
        err = np.linalg.norm(X - want, axis=(1, 2)) / np.linalg.norm(want, axis=(1, 2))
        assert (err <= 2 * 10 * EPS * np.linalg.cond(Ri)).all()
    certified = [_full_rank_screen(R, shape)[0] for R in stacks]
    monkeypatch.setattr(solvers, "_triangular_inverse", np.linalg.inv)
    assert all(np.array_equal(c, _full_rank_screen(R, shape)[0]) for c, R in zip(certified, stacks))
    assert sum(c.sum() for c in certified) > 0


def test_screen_sends_edge_triangles_to_the_svd_quietly():
    # no LinAlgError and no RuntimeWarning on a zero diagonal, an inverse
    # that overflows, a wide stack or an all-dropout row; only the plain
    # triangle is certified
    n, shape = 4, (4, 12)
    rng = np.random.default_rng(5)
    plain = np.triu(rng.standard_normal((n, n))) + 3.0 * np.eye(n)
    zero = plain.copy()
    zero[2, 2] = 0.0
    # 1e-200 on the diagonal and ones above it: R^-1 holds 1e600 -> inf
    overflow = np.triu(np.ones((n, n)), 1) + 1e-200 * np.eye(n)
    targets = np.vstack([np.ones(n), np.eye(n)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        R = np.stack([plain, zero, overflow])
        assert _full_rank_screen(R, shape)[0].tolist() == [True, False, False]
        assert assert_groups_match_the_svd(R, shape, targets).tolist() == [True, False, False]
        for stack in (R[:, :2], np.zeros((1, 0, n))):
            assert not _full_rank_screen(stack, shape)[0].any()
            assert not assert_groups_match_the_svd(stack, shape, targets).any()
        for C in (plain.T, zero.T, overflow.T, np.zeros((n, 3))):
            res = min_energy(C, np.ones(n))
            want = direct_oracles(C, np.ones(n), targets)[1]
            assert res.status == want[1]


def test_short_horizon_factor_is_short_and_wide(monkeypatch):
    # m T < n: a row of c successes stacks a c x 6 C' and a c x 6 triangle
    # R, and every C has rank at most 4
    sys = random_system(6, 1, 1, "gaussian", _sample_rng(SEED, 0), screen_horizon=8)
    T_short = 4
    signals = candidate_signals(2, T_short, EXHAUSTIVE)
    monkeypatch.setattr(worstcase, "candidate_signals", lambda *args, **kwargs: signals)
    rows = signals.to_array()
    for idx, stack in _active_stacks(_ctrb_blocks(sys, T_short), rows, worstcase._CHUNK):
        c = int(rows[idx[0]].sum())
        assert (rows[idx].sum(axis=1) == c).all()
        assert stack.shape == (len(idx), c, 6)
        R = np.linalg.qr(stack, mode="r")
        assert R.shape == (len(idx), c, 6)
        U, sv, _, _ = _triangle_svd(R, (6, T_short))
        assert U.shape == (len(idx), 6, c) and sv.shape == (len(idx), c)
    rank, certified = factor_ranks(sys, T_short, rows)
    # a wide triangle certifies nothing: every row takes the SVD
    assert not certified.any()
    # targets on the range of the all-ones matrix, which no other signal spans
    full = controllability_matrix(sys, Signal.ones(T_short))
    xf = full @ np.array([1.0, -1.0, 2.0, 0.5])
    vertices = 0.01 * np.vstack([full.T, -full.T])
    energy = worst_energy(sys, 2, T_short, xf).per_signal
    poly = polytope_reachable(sys, 2, T_short, Polytope(vertices))[1].per_signal
    for i, s in enumerate(signals):
        C = controllability_matrix(sys, s)
        assert (energy[i].value, energy[i].status) == energy_oracle(sys, s, xf)
        assert (poly[i].value, poly[i].status) == polytope_oracle(sys, s, vertices)
        r, e, p, kappa = direct_oracles(C, xf, vertices)
        assert rank[i] == r <= s.count_ones()
        assert energy[i].status == e[1] and poly[i].status == p[1]
        assert_within_backward_error(energy[i].value, e[0], kappa, str(s))
        assert_within_backward_error(poly[i].value, p[0], kappa, str(s))
        res = min_energy(C, xf)
        assert (res.status, math.inf if res.value is None else res.value) == (
            energy[i].status, energy[i].value,
        )
        if res.status == OPTIMAL:
            assert np.linalg.norm(C @ res.u - xf) <= FEAS_TOL * np.linalg.norm(xf)
            assert np.linalg.norm(res.u) == pytest.approx(res.value, rel=1e-12)
    assert [str(s) for s, e in zip(signals, energy) if e.status == OPTIMAL] == ["1111"]


def test_all_dropout_row_has_rank_zero(monkeypatch):
    plant = study_plant(1)
    signals = SignalSet([Signal.zeros(T), Signal.ones(T)])
    monkeypatch.setattr(worstcase, "candidate_signals", lambda *args, **kwargs: signals)
    zero = controllability_matrix(plant, Signal.zeros(T))
    assert not zero.any()
    rows = signals.to_array()
    # the all-dropout row stacks a C' with no row: its own chunk, rank 0
    stacks = _active_stacks(_ctrb_blocks(plant, T), rows, worstcase._CHUNK)
    assert [(idx.tolist(), stack.shape) for idx, stack in stacks] == [
        ([0], (1, 0, plant.n)), ([1], (1, T * plant.m, plant.n)),
    ]
    rank, certified = factor_ranks(plant, T, rows)
    assert rank.tolist() == [0, plant.n]
    assert certified.tolist() == [False, True]
    ones = np.ones(plant.n)
    energy = worst_energy(plant, K, T, ones)
    poly = polytope_reachable(plant, K, T, Polytope(cross_vertices(plant.n)))[1]
    assert (energy.per_signal[0].value, energy.per_signal[0].status) == (math.inf, INFEASIBLE)
    assert (poly.per_signal[0].value, poly.per_signal[0].status) == (
        math.inf, "unreachable_vertex",
    )
    assert energy.argmax_signal == poly.argmax_signal == Signal.zeros(T)
    counters = {"chunks": 2, "rank_deficient": 1, "svd_rows": 1}
    assert energy.info["counters"] == poly.info["counters"] == counters
    res = min_energy(zero, ones)
    assert res.status == INFEASIBLE and res.value is None
    assert res.residual == np.linalg.norm(ones)
    # the zero target is on the range of every matrix, the zero one included
    res = min_energy(zero, np.zeros(plant.n))
    assert (res.status, res.value, res.residual) == (OPTIMAL, 0.0, 0.0)
    assert np.array_equal(res.u, np.zeros(zero.shape[1]))


def mixed_count_signals(with_zeros):
    """Words of T=14 with 1, 3, 8 and 11 successes, 70 of them with 8, in lexicographic order.

    With one input and n = 6 a word of fewer than 6 successes reaches no
    target; the first of them in row order has 3 successes, where a scan
    taken in the order of the counts would meet one with 1 first.
    """
    rng = np.random.default_rng(14)
    words = {"01000000000000", "10000000000000", "00000000000111", "00100100100000"}
    for c, size in ((8, 70), (11, 5)):
        while sum(w.count("1") == c for w in words) < size:
            words.add("".join(np.where(rng.permutation(T) < c, "1", "0")))
    if with_zeros:
        words.add("0" * T)
    return SignalSet(Signal(w) for w in words)


@pytest.mark.parametrize("with_zeros", [False, True], ids=["mixed", "mixed_and_all_dropout"])
def test_count_groups_come_back_in_row_order(monkeypatch, with_zeros):
    sys = random_system(6, 1, 1, "gaussian", _sample_rng(SEED, 0), screen_horizon=T)
    signals = mixed_count_signals(with_zeros)
    monkeypatch.setattr(worstcase, "candidate_signals", lambda *args, **kwargs: signals)
    rows = signals.to_array()
    counts = rows.sum(axis=1)
    certified = factor_ranks(sys, T, rows)[1]
    assert not certified[counts < sys.n].any()
    # the groups in increasing count, each in row order and cut at _CHUNK rows:
    # the 70 rows of 8 successes take two chunks, and c m < n below 6 successes
    chunks = [
        (int(counts[idx[0]]), idx.tolist(), stack.shape)
        for idx, stack in _active_stacks(_ctrb_blocks(sys, T), rows, worstcase._CHUNK)
    ]
    groups = [(0, 1)] * with_zeros + [(1, 2), (3, 2), (8, 64), (8, 6), (11, 5)]
    assert [(c, len(idx)) for c, idx, _ in chunks] == groups
    for c, idx, shape in chunks:
        assert shape == (len(idx), c, sys.n)
        assert idx == sorted(idx) and (counts[idx] == c).all()
    assert sorted(i for _, idx, _ in chunks for i in idx) == list(range(len(rows)))
    ones = np.ones(sys.n)
    vertices = cross_vertices(sys.n)
    energy = worst_energy(sys, K, T, ones)
    poly = polytope_reachable(sys, K, T, Polytope(vertices))[1]
    for report, oracle in (
        (energy, lambda s: energy_oracle(sys, s, ones)),
        (poly, lambda s: polytope_oracle(sys, s, vertices)),
    ):
        assert [e.signal for e in report.per_signal] == list(signals)
        assert [(e.value, e.status) for e in report.per_signal] == [oracle(s) for s in signals]
        assert report.info["counters"] == {
            "chunks": len(groups),
            "rank_deficient": int(np.count_nonzero(counts < sys.n)),
            "svd_rows": int(np.count_nonzero(~certified)),
        }
        # ties at +inf go to the first attainer in row order
        first = Signal("0" * T) if with_zeros else Signal("00000000000111")
        assert report.argmax_signal == first
        assert report.argmax_signal == first_argmax([e.value for e in report.per_signal], signals)


def test_dead_input_is_dropped_by_the_scan_and_min_energy(monkeypatch):
    # an input whose column of B is zero has a zero column in every block:
    # the scan stacks the other inputs only, and min_energy factors C's
    # nonzero columns, so the two still agree bit for bit
    base = study_plant(1)
    B = base.B.copy()
    B[:, 1] = 0.0
    sys = SwitchedLinearSystem(base.A, B, base.C)
    signals = some_signals(65)
    monkeypatch.setattr(worstcase, "candidate_signals", lambda *args, **kwargs: signals)
    rows = signals.to_array()
    for idx, stack in _active_stacks(_ctrb_blocks(sys, T), rows, worstcase._CHUNK):
        assert stack.shape == (len(idx), 2 * int(rows[idx[0]].sum()), sys.n)
    ones = np.ones(sys.n)
    vertices = cross_vertices(sys.n)
    energy = worst_energy(sys, K, T, ones).per_signal
    poly = polytope_reachable(sys, K, T, Polytope(vertices))[1].per_signal
    assert energy[0].signal == Signal.zeros(T)
    reached = 0
    for e, p, s, row in zip(energy, poly, signals, rows):
        C = controllability_matrix(sys, s)
        assert (e.value, e.status) == energy_oracle(sys, s, ones), str(s)
        assert (p.value, p.status) == polytope_oracle(sys, s, vertices), str(s)
        r, want_e, want_p, kappa = direct_oracles(C, ones, vertices)
        assert r <= 2 * s.count_ones()
        assert (e.status, p.status) == (want_e[1], want_p[1]), str(s)
        assert_within_backward_error(e.value, want_e[0], kappa, str(s))
        assert_within_backward_error(p.value, want_p[0], kappa, str(s))
        res = min_energy(C, ones)
        assert (res.status, math.inf if res.value is None else res.value) == (e.status, e.value)
        if res.status == OPTIMAL:
            reached += 1
            u = res.u.reshape(T, sys.m)
            assert not u[:, 1].any() and not u[~row].any()
            assert np.linalg.norm(C @ res.u - ones) <= FEAS_TOL * np.linalg.norm(ones)
    assert 0 < reached < len(signals)


# II verdicts the LP path leaves uncertified and the lower screen decides:
# (recipe, count) -> signals.  On gaussian_x10, 10000001 at horizon 7 has
# cond(C) about 2e9, and its least peak is above 1.8e9.
SCREENED = {("gaussian_x10", 65): ["10000001"]}


def assert_screened_infeasible(sys, s, x0):
    """From the first horizon whose LP is not certified on, no horizon of s parks."""
    v, uncertified = x0, False
    for t in range(len(s)):
        v = sys.A @ v
        C = controllability_matrix(sys, Signal(s.bits[: t + 1]))
        res = min_inf_norm(C, -v)
        uncertified = uncertified or res.status == MAX_ITERATIONS
        if uncertified:
            assert longdouble_peak_bound(C, -v) > 1.0 + FEAS_TOL, (str(s), t)
        else:
            assert res.status == INFEASIBLE or res.value > 1.0 + FEAS_TOL, (str(s), t)
    assert uncertified


@pytest.mark.parametrize("count", LP_COUNTS, ids=[f"N{n}" for n in LP_COUNTS])
def test_lp_scans_match_per_signal_oracles(plant, count, monkeypatch, request):
    signals = some_signals(count, T_LP)
    monkeypatch.setattr(worstcase, "candidate_signals", lambda *args, **kwargs: signals)
    # a small x0 parks at some horizons on two recipes; gaussian_x10 has uncertified LPs
    x0 = 0.1 * np.ones(plant.n)
    ones = np.ones(plant.n)
    screened = SCREENED.get((GENERATION_METHODS[request.node.callspec.params["plant"]], count), [])
    for name, report, oracle in (
        ("II", worst_control_time(plant, K, T_LP, x0), lambda s: control_time_oracle(plant, s, x0)),
        ("III-fuel", worst_fuel(plant, K, T_LP, ones), lambda s: fuel_oracle(plant, s, ones)),
    ):
        assert [e.signal for e in report.per_signal] == list(signals), name
        expected = [oracle(s) for s in signals]
        changed = []
        for e, want in zip(report.per_signal, expected):
            if name == "II" and str(e.signal) in screened:
                assert (want, (e.value, e.status)) == ((math.inf, MAX_ITERATIONS), (math.inf, INFEASIBLE))
                assert_screened_infeasible(plant, e.signal, x0)
                changed.append(str(e.signal))
            else:
                assert (e.value, e.status) == want, (name, str(e.signal))
        assert changed == (screened if name == "II" else []), name
        assert report.argmax_signal == first_argmax([v for v, _ in expected], signals), name


# --- the trie walkers: V, VI, I and II share work between signals ---------

TRIE_COUNTS = [255, 256, 257]


def suffixes(signals):
    return {s.bits[t:] for s in signals for t in range(len(s))}


def prefixes(signals):
    return {s.bits[: t + 1] for s in signals for t in range(len(s))}


@pytest.mark.parametrize("count", TRIE_COUNTS, ids=[f"N{n}" for n in TRIE_COUNTS])
def test_trie_walkers_match_per_signal_oracles(plant, count, monkeypatch):
    # a budget of 256 V rows a block (6 x 6 entries a node) and 1,536 VI
    # rows (6 entries a node): N257 walks V in two blocks, in suffix order
    monkeypatch.setattr(worstcase, "_TRIE_ENTRIES", 256 * N_STATES**2)
    signals = some_signals(count)
    rows = signals.to_array()
    order = np.lexsort(rows.T)
    assert not np.array_equal(order, np.arange(count))
    listed = list(signals)
    assert [listed[i] for i in order] == sorted(listed, key=lambda s: s.bits[::-1])
    monkeypatch.setattr(worstcase, "candidate_signals", lambda *args, **kwargs: signals)
    ones = np.ones(plant.n)
    w = LqrWeights.identity(plant.n, plant.m, T)
    gains = lti_gains(plant, w)
    for name, report, oracle, one_signal, block, distinct in (
        ("V", worst_lqr(plant, K, w, ones), lambda s: lqr_oracle(plant, s, w, ones),
         lambda s: lqr_cost(riccati_backward(plant, s, w), ones), 256, suffixes(signals)),
        ("VI", worst_fixed_input_lqr(plant, K, w, ones),
         lambda s: rollout_oracle(plant, gains, s, w, ones),
         lambda s: degraded_cost(plant, gains, s, w, ones), 256 * N_STATES, prefixes(signals)),
    ):
        assert [e.signal for e in report.per_signal] == list(signals), name
        got = [e.value for e in report.per_signal]
        assert got == pytest.approx([oracle(s)[0] for s in signals], rel=1e-9, abs=0.0), name
        # the one-signal functions are the walk of a one-row trie, step for step
        assert got == [one_signal(s) for s in signals], name
        counters = report.info["counters"]
        assert counters["row_steps"] == count * T, name
        # one block holds every row, so each distinct suffix or prefix is one node
        if count <= block:
            assert counters["nodes"] == len(distinct), name
        else:
            assert len(distinct) < counters["nodes"] < count * T, name


def test_trie_budget_moves_only_the_node_count(plant, monkeypatch):
    # one row a block walks each row alone; a budget past every row walks
    # the set as one trie: the values are the same, bit for bit
    signals = some_signals(130)
    monkeypatch.setattr(worstcase, "candidate_signals", lambda *args, **kwargs: signals)
    ones = np.ones(plant.n)
    w = LqrWeights.identity(plant.n, plant.m, T)
    runs = {}
    for entries in (1, 10**9):
        monkeypatch.setattr(worstcase, "_TRIE_ENTRIES", entries)
        runs[entries] = (worst_lqr(plant, K, w, ones), worst_fixed_input_lqr(plant, K, w, ones))
    for alone, whole, distinct in zip(runs[1], runs[10**9], (suffixes(signals), prefixes(signals))):
        assert [(e.signal, e.value, e.status) for e in alone.per_signal] == [
            (e.signal, e.value, e.status) for e in whole.per_signal
        ]
        assert (alone.worst_value, alone.argmax_signal) == (whole.worst_value, whole.argmax_signal)
        assert alone.info["counters"] == {"nodes": 130 * T, "row_steps": 130 * T}
        assert whole.info["counters"] == {"nodes": len(distinct), "row_steps": 130 * T}


def test_exhaustive_fixed_gain_rollout_over_the_language():
    # k=1, T=16 admits 2,584 words: one block of the prefix trie at n=6
    # (4,266 rows of 6 entries), two at n=10 (2,560 rows)
    plant = study_plant(0)
    T_full = 16
    w = LqrWeights.identity(plant.n, plant.m, T_full)
    gains = lti_gains(plant, w)
    ones = np.ones(plant.n)
    report = worst_fixed_input_lqr(plant, 1, w, ones, mode=EXHAUSTIVE)
    assert len(report.per_signal) == 2584
    got = [e.value for e in report.per_signal]
    assert got == [degraded_cost(plant, gains, e.signal, w, ones) for e in report.per_signal]
    want = [rollout_oracle(plant, gains, e.signal, w, ones)[0] for e in report.per_signal]
    assert got == pytest.approx(want, rel=1e-9, abs=0.0)
    assert report.argmax_signal == first_argmax(want, [e.signal for e in report.per_signal])
    counters = report.info["counters"]
    assert counters["row_steps"] == 2584 * T_full
    assert counters["nodes"] == len(prefixes(e.signal for e in report.per_signal))


def recorded(monkeypatch, module, name):
    """Patch module.name to record each call's (t, prefix bits) before it runs."""
    calls, fn = [], getattr(module, name)

    def record(blocks, row, t):
        calls.append((t, row[: t + 1].tobytes()))
        return fn(blocks, row, t)

    monkeypatch.setattr(module, name, record)
    return calls


def test_estimation_memo_matches_the_unmemoized_scan(plant, monkeypatch):
    signals = candidate_signals(K, T)
    walked = recorded(monkeypatch, worstcase, "_full_rank")
    report = worst_estimation_time(plant, K, T)
    # the walk tests each distinct prefix once
    assert len(walked) == len(set(walked)) == report.info["counters"]["prefixes"]
    tested = recorded(monkeypatch, systems, "_full_rank")
    want = []
    for s in signals:
        t = first_full_rank_time(plant, s)
        want.append((math.inf, INFEASIBLE) if t is None else (float(t), OPTIMAL))
    assert [(e.value, e.status) for e in report.per_signal] == want
    assert set(walked) == set(tested)
    assert report.info["counters"] == {
        "prefixes": len(set(tested)), "memo_hits": len(tested) - len(set(tested)),
    }
    assert report.info["counters"]["memo_hits"] > 0


def control_time_walk_oracle(sys, signals, x0):
    """II one signal at a time, peak_within on each horizon; counters as if per distinct prefix."""
    counters = dict.fromkeys(
        ("prefixes", "memo_hits", "off_range", "upper_screen", "lower_screen", "lp_solves",
         "iterations"),
        0,
    )
    targets, v = [], x0
    for _ in range(len(signals[0])):
        v = sys.A @ v
        targets.append(-v)
    seen, results = set(), []
    for s in signals:
        result = (math.inf, INFEASIBLE)
        for t, target in enumerate(targets):
            prefix = s.bits[: t + 1]
            by, res = solvers.peak_within(controllability_matrix(sys, Signal(prefix)), target, 1.0)
            if prefix in seen:
                counters["memo_hits"] += 1
            else:
                seen.add(prefix)
                counters["prefixes"] += 1
                counters[by] += 1
                counters["iterations"] += res.iterations
            if res.status in (OPTIMAL, MAX_ITERATIONS):
                result = (float(t) if res.status == OPTIMAL else math.inf, res.status)
                break
        results.append(result)
    return results, counters


# at most two dropouts in a row, and two successes after a pair of them
THREE_STATE = Automaton(
    [1, 2, 3], [(1, 1, "1"), (1, 2, "0"), (2, 1, "1"), (2, 3, "0"), (3, 1, "11")], [1]
)
WALKS = {
    "minimal": (K, "minimal"),
    "exhaustive": (1, EXHAUSTIVE),
    "automaton_minimal": (THREE_STATE, "minimal"),
    "automaton_exhaustive": (THREE_STATE, EXHAUSTIVE),
}


@pytest.mark.parametrize("walk", list(WALKS))
def test_prefix_walks_equal_their_one_signal_oracles(plant, walk, monkeypatch):
    constraint, mode = WALKS[walk]
    # I: first_full_rank_time per signal, its rank tests counted per distinct prefix
    signals = list(candidate_signals(constraint, T, mode))
    report = worst_estimation_time(plant, constraint, T, mode=mode)
    tested = recorded(monkeypatch, systems, "_full_rank")
    times = [first_full_rank_time(plant, s) for s in signals]
    assert [e.signal for e in report.per_signal] == signals
    assert [(e.value, e.status) for e in report.per_signal] == [
        (math.inf, INFEASIBLE) if t is None else (float(t), OPTIMAL) for t in times
    ]
    assert report.info["counters"] == {
        "prefixes": len(set(tested)), "memo_hits": len(tested) - len(set(tested)),
    }
    # II: peak_within on each horizon until a final verdict; x0 = 0.1 parks at some horizons
    x0 = 0.1 * np.ones(plant.n)
    signals = list(candidate_signals(constraint, T_LP, mode))
    report = worst_control_time(plant, constraint, T_LP, x0, mode=mode)
    want, counters = control_time_walk_oracle(plant, signals, x0)
    assert [e.signal for e in report.per_signal] == signals
    assert [(e.value, e.status) for e in report.per_signal] == want
    assert report.info["counters"] == counters
    assert report.argmax_signal == first_argmax([v for v, _ in want], signals)
    assert counters["memo_hits"] > 0


# every word: the walk's deepest levels hold up to 2^T_LP prefixes
ANY_WORD = Automaton([1], [(1, 1, "0"), (1, 1, "1")], [1])


def test_control_time_walk_across_chunks_equals_its_oracle(plant, monkeypatch):
    # a level with more than _CHUNK prefixes to decide is decided in chunks
    stacks, peak_rows = [], worstcase._peak_rows

    def record(Cs, *args):
        stacks.append(Cs.shape)
        return peak_rows(Cs, *args)

    monkeypatch.setattr(worstcase, "_peak_rows", record)
    x0 = 0.1 * np.ones(plant.n)
    signals = list(candidate_signals(ANY_WORD, T_LP, EXHAUSTIVE))
    report = worst_control_time(plant, ANY_WORD, T_LP, x0, mode=EXHAUSTIVE)
    want, counters = control_time_walk_oracle(plant, signals, x0)
    assert [(e.value, e.status) for e in report.per_signal] == want
    assert report.info["counters"] == counters
    assert report.argmax_signal == first_argmax([v for v, _ in want], signals)
    assert sum(N for N, _, _ in stacks) == counters["prefixes"]
    # some level (one width q of C) takes a full chunk and then more
    widths = [q for N, _, q in stacks]
    assert any(N == worstcase._CHUNK and widths.count(q) > 1 for N, _, q in stacks)


def test_stacked_factor_is_an_svd(plant):
    # V_r = Q W_r has orthonormal columns and C V_r = U_r diag(s_r), to rounding
    rows = some_signals(65).to_array()
    Cs = _ctrb_stack(_ctrb_blocks(plant, T), rows)
    eps = np.finfo(float).eps
    seen = 0
    for idx, U, s, V, coeff, reached in solvers._factors(Cs, np.ones(plant.n)):
        r = U.shape[2]
        assert np.abs(V.swapaxes(1, 2) @ V - np.eye(r)).max(initial=0.0) <= 100 * eps
        error = np.abs(Cs[idx] @ V - U * s[:, None, :]).max(axis=(1, 2), initial=0.0)
        assert (error <= 100 * eps * np.linalg.norm(Cs[idx], axis=(1, 2))).all()
        seen += len(U)
    assert seen == len(rows)
