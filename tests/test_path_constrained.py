"""Equality-constrained path: start portfolio, continuation, certificates."""

import logging

import numpy as np
import pytest

import sparsefolio.path_constrained as path_constrained
from sparsefolio import (
    AffineConstraints,
    InfeasibleConstraints,
    InputError,
    PenalizedProblem,
    SolverError,
    TauBelowStop,
    find_constrained_start,
    multipliers_at,
    solve_constrained_path,
    solve_path,
)
from oracles import (
    oracle_nonnegative_qp,
    oracle_sign_enumeration_many,
)

from conftest import (
    factor_panel,
    markowitz_instance,
    no_constraints,
    random_instance,
)


def certificate_violation(problem, constraints, bp):
    """Worst violation of the multiplier stationarity conditions at bp."""
    b = bp.generalized_residual
    half = bp.tau / 2.0
    on = max((abs(abs(b[i]) - half) for i in bp.active_set), default=0.0)
    off = [i for i in range(problem.n_assets) if i not in bp.active_set]
    off_v = max((abs(b[i]) - half for i in off), default=0.0)
    return max(on, off_v, 0.0)


# --- AffineConstraints construction ---

def test_constraints_empty_ok():
    c = no_constraints(4)
    assert c.n_constraints == 0
    assert c.n_assets == 4


def test_constraints_shape_mismatch():
    with pytest.raises(InputError):
        AffineConstraints(matrix=np.ones((2, 3)), rhs=np.ones(1))


def test_constraints_infeasible_rows():
    # contradictory duplicates: w1 + w2 = 1 and w1 + w2 = 2
    with pytest.raises(InfeasibleConstraints):
        AffineConstraints(matrix=np.array([[1.0, 1.0], [1.0, 1.0]]),
                          rhs=np.array([1.0, 2.0]))


def test_constraints_dependent_rows():
    with pytest.raises(InputError):
        AffineConstraints(
            matrix=np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0 + 1e-13]]),
            rhs=np.array([1.0, 1.0]),
        )


def test_constraints_more_rows_than_variables():
    # consistent (w = (1,1) satisfies all three) but rows cannot be
    # independent; infeasibility is checked first, so keep this solvable
    with pytest.raises(InputError):
        AffineConstraints(matrix=np.vstack([np.eye(2), np.ones((1, 2)) * 2.0]),
                          rhs=np.array([1.0, 1.0, 4.0]))


def test_constraints_nonfinite():
    with pytest.raises(InputError):
        AffineConstraints(matrix=np.array([[np.inf, 1.0]]), rhs=np.array([1.0]))


# --- find_constrained_start ---

def test_singleton_feasible_set_constant_path():
    # a single variable pinned to 1: no freedom, the multiplier absorbs the
    # whole data gradient and the path never kinks
    rng = np.random.default_rng(2)
    R = rng.standard_normal((5, 1))
    y = rng.standard_normal(5)
    p = PenalizedProblem(design=R, target=y)
    cons = AffineConstraints(matrix=np.array([[1.0]]), rhs=np.array([1.0]))
    bp, tau0 = find_constrained_start(p, cons)
    np.testing.assert_allclose(bp.weights, [1.0], atol=0)
    path = solve_constrained_path(p, cons)
    assert len(path.breakpoints) == 1
    only = path.breakpoints[0]
    np.testing.assert_allclose(only.weights, [1.0], atol=0)
    # multiplier balances R'(y - Rw) exactly
    grad = float(R[:, 0] @ (y - R[:, 0]))
    np.testing.assert_allclose(only.multipliers, [-grad], atol=1e-12)
    np.testing.assert_allclose(only.generalized_residual, [0.0], atol=1e-12)


def test_two_asset_sum_constraint_start_is_large_tau_limit():
    rng = np.random.default_rng(31)
    for _ in range(5):
        R = rng.standard_normal((6, 2))
        y = rng.standard_normal(6)
        p = PenalizedProblem(design=R, target=y)
        cons = AffineConstraints(matrix=np.ones((1, 2)), rhs=np.array([1.0]))
        bp, tau0 = find_constrained_start(p, cons)
        w_limit = oracle_sign_enumeration_many(p, cons, [2.0 * tau0 + 1.0])[0]
        np.testing.assert_allclose(bp.weights, w_limit, atol=1e-8)


def test_simplex_start_resolves_nonunique_l1_minimum():
    # every convex combination has penalty exactly 1; the data term must
    # break the tie
    rng = np.random.default_rng(77)
    for _ in range(5):
        R = rng.standard_normal((7, 3))
        y = rng.standard_normal(7)
        p = PenalizedProblem(design=R, target=y)
        cons = AffineConstraints(matrix=np.ones((1, 3)), rhs=np.array([1.0]))
        bp, tau0 = find_constrained_start(p, cons)
        w = bp.weights
        assert np.all(w >= -1e-12)
        assert abs(np.abs(w).sum() - 1.0) <= 1e-10
        w_limit = oracle_sign_enumeration_many(p, cons, [2.0 * tau0 + 1.0])[0]
        np.testing.assert_allclose(w, w_limit, atol=1e-8)


def test_start_weights_constant_above_tau0():
    problem, constraints = markowitz_instance(3)
    bp, tau0 = find_constrained_start(problem, constraints)
    exact = oracle_sign_enumeration_many(
        problem, constraints, [tau0 * 1.5, tau0 * 4.0, tau0 * 20.0]
    )
    for w_star in exact:
        np.testing.assert_allclose(bp.weights, w_star, atol=1e-8)


@pytest.mark.parametrize("seed", [5, 11, 26])
def test_degenerate_start_instances_match_qp_oracle(seed):
    # seeds whose small-epsilon phase needs repair; the certified answer
    # must still be the nonnegative QP optimum
    problem, constraints = markowitz_instance(seed)
    bp, tau0 = find_constrained_start(problem, constraints)
    w_star = oracle_nonnegative_qp(problem, constraints)
    np.testing.assert_allclose(bp.weights, w_star, atol=1e-8)
    assert np.all(bp.weights >= -1e-12)


@pytest.mark.parametrize("year", [1977, 2004])
def test_factor_panel_start_is_exact_kkt_point(year):
    # June windows of the seed-0 48-asset factor panel whose start used to
    # sit about 1e-9 off the exact support KKT point. The certificate is
    # rebuilt from the weights alone: multipliers are the least-squares fit
    # of the equations on the nonzero weights.
    returns = factor_panel(0, 48, 432)
    end = (year - 1970) * 12      # one past June of year; months from 1970-07
    R = returns[end - 60:end]
    rho = float(R.mean(axis=1).mean())
    y = np.full(60, rho)
    A = np.vstack([R.mean(axis=0), np.ones(48)])
    problem = PenalizedProblem(design=R, target=y)
    cons = AffineConstraints(matrix=A, rhs=np.array([rho, 1.0]))
    bp, tau0 = find_constrained_start(problem, cons)
    w = bp.weights
    nz = w != 0.0
    g = R.T @ (y - R @ w)
    lam = np.linalg.lstsq(A[:, nz].T, tau0 / 2.0 * np.sign(w[nz]) - g[nz],
                          rcond=None)[0]
    g = g + A.T @ lam
    on = np.max(np.abs(g[nz] - tau0 / 2.0 * np.sign(w[nz])))
    off = np.max(np.abs(g[~nz]) - tau0 / 2.0, initial=0.0)
    assert max(on, off) <= 1e-9 * max(1.0, float(np.max(np.abs(R.T @ y))))
    assert np.all(w >= 0.0) and abs(float(w.sum()) - 1.0) <= 1e-12


# --- solve_constrained_path ---

def test_markowitz_path_matches_oracle_at_random_taus():
    rng = np.random.default_rng(90)
    problem, constraints = markowitz_instance(7)
    path = solve_constrained_path(problem, constraints)
    tau0 = path.breakpoints[0].tau
    taus = rng.uniform(0.0, tau0, size=20)
    exact = oracle_sign_enumeration_many(problem, constraints, taus)
    for tau, w_star in zip(taus, exact):
        np.testing.assert_allclose(path.eval_at(tau), w_star, atol=1e-8)


@pytest.mark.parametrize("seed", range(28, 40))
def test_target_at_edge_of_mean_span(seed):
    # rho at the largest (odd seeds) or smallest mean: the no-short start
    # holds the one extreme asset, so its single support column leaves a
    # multiplier direction free and the knee must be found over it
    R = markowitz_instance(seed)[0].design
    mu = R.mean(axis=0)
    rho = float(mu.max() if seed % 2 else mu.min())
    problem = PenalizedProblem(design=R, target=np.full(R.shape[0], rho))
    cons = AffineConstraints(matrix=np.vstack([mu, np.ones(R.shape[1])]),
                             rhs=np.array([rho, 1.0]))
    path = solve_constrained_path(problem, cons)
    tau0 = path.breakpoints[0].tau
    for bp in path.breakpoints:
        assert certificate_violation(problem, cons, bp) <= 1e-9 * max(1.0, tau0)
    rng = np.random.default_rng(seed)
    taus = np.concatenate([rng.uniform(0.0, tau0, size=8), [1.5 * tau0]])
    ties = oracle_sign_enumeration_many(problem, cons, taus, return_ties=True)
    for tau, exact in zip(taus, ties):
        w = path.eval_at(float(tau))
        assert min(float(np.max(np.abs(w - t))) for t in exact) <= 1e-8


def test_four_asset_two_constraint_instance():
    rng = np.random.default_rng(91)
    R = rng.standard_normal((8, 4))
    y = rng.standard_normal(8)
    mu = R.mean(axis=0)
    rho = float(mu.mean())
    p = PenalizedProblem(design=R, target=y)
    cons = AffineConstraints(matrix=np.vstack([mu, np.ones(4)]),
                             rhs=np.array([rho, 1.0]))
    path = solve_constrained_path(p, cons)
    tau0 = path.breakpoints[0].tau
    taus = rng.uniform(0.0, tau0, size=20)
    exact = oracle_sign_enumeration_many(p, cons, taus)
    for tau, w_star in zip(taus, exact):
        np.testing.assert_allclose(path.eval_at(tau), w_star, atol=1e-8)


# three and four rows, with a nonzero and with a zero right-hand side
WIDE_ROWS = [
    pytest.param(seed, dict(m_choices=(m,), n_min=m + 2, zero_rhs=zero),
                 id=f"m{m}-{'zero' if zero else 'rhs'}-{seed}")
    for m in (3, 4) for zero in (False, True) for seed in range(5)
]


@pytest.mark.parametrize(
    "seed, shape",
    [pytest.param(seed, {}, id=str(seed)) for seed in range(10)] + WIDE_ROWS)
def test_random_paths_certified(seed, shape):
    problem, constraints = random_instance(seed, **shape)
    if shape:
        assert constraints.n_constraints == shape["m_choices"][0]
    path = solve_constrained_path(problem, constraints)
    scale = max(1.0, path.breakpoints[0].tau)
    A, a = constraints.matrix, constraints.rhs
    for bp in path.breakpoints:
        assert certificate_violation(problem, constraints, bp) <= 1e-9 * scale
        if constraints.n_constraints:
            resid = np.max(np.abs(A @ bp.weights - a))
            assert resid <= 1e-10 * max(1.0, np.max(np.abs(a)))
        off = np.setdiff1d(np.arange(problem.n_assets), bp.active_set)
        assert np.all(bp.weights[off] == 0.0)


@pytest.mark.parametrize("seed", range(10))
def test_l1_monotonicity_product(seed):
    # the monotone quantity is the penalty value sum(s_i |w_i|); it reduces
    # to the plain l1 norm whenever the weights are uniform
    problem, constraints = random_instance(seed)
    s = problem.penalty_weights
    path = solve_constrained_path(problem, constraints)
    bps = path.breakpoints
    for hi, lo in zip(bps, bps[1:]):
        n_hi = float(s @ np.abs(hi.weights))
        n_lo = float(s @ np.abs(lo.weights))
        slack = 1e-12 * max(1.0, n_hi)
        assert (hi.tau - lo.tau) * (n_lo - n_hi) >= -slack


def test_unconstrained_route_equivalence():
    # solve_path, the m = 0 wrapper, must report the engine's breakpoints
    # one for one
    for seed in range(8):
        rng = np.random.default_rng(8800 + seed)
        N = int(rng.integers(2, 7))
        T = int(rng.integers(2, 12))
        problem = PenalizedProblem(design=rng.standard_normal((T, N)),
                                   target=rng.standard_normal(T))
        plain = solve_path(problem)
        routed = solve_constrained_path(problem, no_constraints(N))
        assert len(plain.breakpoints) == len(routed.breakpoints)
        for pb, rb in zip(plain.breakpoints, routed.breakpoints):
            assert abs(pb.tau - rb.tau) <= 1e-10
            np.testing.assert_allclose(rb.weights, pb.weights, atol=1e-10)
            assert rb.multipliers.shape == (0,)


def test_no_short_start_equals_nonnegative_qp():
    for seed in range(6):
        problem, constraints = markowitz_instance(seed)
        path = solve_constrained_path(problem, constraints)
        w_star = oracle_nonnegative_qp(problem, constraints)
        np.testing.assert_allclose(path.breakpoints[0].weights, w_star,
                                   atol=1e-8)


def test_weighted_penalty_reduction():
    for seed in range(6):
        rng = np.random.default_rng(9900 + seed)
        N = int(rng.integers(2, 7))
        T = int(rng.integers(2, 12))
        R = rng.standard_normal((T, N))
        y = rng.standard_normal(T)
        s = rng.uniform(0.5, 2.0, size=N)
        m = int(rng.integers(0, 3))
        if m:
            A = rng.standard_normal((m, N))
            a = A @ rng.standard_normal(N)
            cons = AffineConstraints(matrix=A, rhs=a)
            cons_scaled = AffineConstraints(matrix=A / s[np.newaxis, :], rhs=a)
        else:
            cons = cons_scaled = no_constraints(N)
        weighted = solve_constrained_path(
            PenalizedProblem(design=R, target=y, penalty_weights=s), cons
        )
        plain = solve_constrained_path(
            PenalizedProblem(design=R / s[np.newaxis, :], target=y), cons_scaled
        )
        assert len(weighted.breakpoints) == len(plain.breakpoints)
        for wb, pb in zip(weighted.breakpoints, plain.breakpoints):
            assert abs(wb.tau - pb.tau) <= 1e-10
            np.testing.assert_allclose(wb.weights, pb.weights / s, atol=1e-10)


def test_support_can_shrink_and_regrow():
    # non-monotone active support: an asset leaves the working set on the
    # way down and capacity regrows later
    rng = np.random.default_rng(1049)
    N = int(rng.integers(3, 7))
    T = int(rng.integers(N + 1, 12))
    R = 0.05 * rng.standard_normal((T, N)) + 0.01
    mu = R.mean(axis=0)
    rho = float(mu.min()) + 0.35 * (float(mu.max()) - float(mu.min()))
    p = PenalizedProblem(design=R, target=np.full(T, rho))
    cons = AffineConstraints(matrix=np.vstack([mu, np.ones(N)]),
                             rhs=np.array([rho, 1.0]))
    path = solve_constrained_path(p, cons)
    kinds = [bp.event.kind for bp in path.breakpoints]
    assert "LEAVE" in kinds
    counts = [int(np.count_nonzero(bp.weights)) for bp in path.breakpoints]
    assert any(b < a for a, b in zip(counts, counts[1:]))  # shrinks
    assert counts[-1] > min(counts)  # and regrows


# --- multipliers_at ---

def test_multipliers_interpolate():
    # pick an instance whose path actually has a segment to interpolate on
    for seed in range(20):
        problem, constraints = markowitz_instance(seed)
        path = solve_constrained_path(problem, constraints)
        if len(path.breakpoints) >= 2:
            break
    bps = path.breakpoints
    assert len(bps) >= 2
    np.testing.assert_allclose(multipliers_at(path, bps[0].tau),
                               bps[0].multipliers, atol=0)
    hi, lo = bps[0], bps[1]
    mid = 0.5 * (hi.tau + lo.tau)
    np.testing.assert_allclose(
        multipliers_at(path, mid),
        0.5 * (hi.multipliers + lo.multipliers),
        atol=1e-12,
    )
    # above the start the multipliers freeze at their start values
    np.testing.assert_allclose(multipliers_at(path, bps[0].tau * 3.0),
                               bps[0].multipliers, atol=0)


def test_multipliers_below_terminus_raise():
    p = PenalizedProblem(design=np.eye(2), target=np.array([3.0, 1.0]),
                         tau_stop=1.0)
    path = solve_constrained_path(p, no_constraints(2))
    with pytest.raises(TauBelowStop):
        multipliers_at(path, 0.2)


def test_stationarity_holds_between_breakpoints():
    # the certificate is linear in tau, so it must hold at interpolated
    # points too, with the interpolated multipliers
    problem, constraints = markowitz_instance(2)
    path = solve_constrained_path(problem, constraints)
    Rh = problem.design / problem.penalty_weights[np.newaxis, :]
    Ah = constraints.matrix / problem.penalty_weights[np.newaxis, :]
    rng = np.random.default_rng(5)
    tau0 = path.breakpoints[0].tau
    for tau in rng.uniform(0.0, tau0, size=12):
        w = path.eval_at(tau)
        lam = multipliers_at(path, tau)
        b = Rh.T @ (problem.target - problem.design @ w) + Ah.T @ lam
        assert np.max(np.abs(b)) <= tau / 2.0 + 1e-9 * max(1.0, tau0)


# --- continuation engine: direction fallback, guard, trace ---

def duplicate_column_problem():
    # columns e1, e2, e3, e3: once both copies of e3 are in the working set
    # the active normal matrix is singular, though the direction system
    # stays consistent
    R = np.array([[1.0, 0.0, 0.0, 0.0],
                  [0.0, 1.0, 0.0, 0.0],
                  [0.0, 0.0, 1.0, 1.0],
                  [0.0, 0.0, 0.0, 0.0]])
    return PenalizedProblem(design=R, target=np.array([3.0, 1.0, 2.0, 0.5]))


def test_singular_consistent_active_system_takes_min_norm_direction():
    problem = duplicate_column_problem()
    path = solve_path(problem)
    routed = solve_constrained_path(problem, no_constraints(4))
    for bp in routed.breakpoints:
        assert certificate_violation(problem, None, bp) <= 1e-9
    assert [bp.tau for bp in path.breakpoints] == [6.0, 4.0, 2.0, 0.0]
    assert path.breakpoints[1].event.entered == (2, 3)
    np.testing.assert_allclose(path.breakpoints[-1].weights, [3.0, 1.0, 1.0, 1.0],
                               atol=1e-12)


def test_short_panel_path_certifies():
    # T < N: at most T weights can move independently
    rng = np.random.default_rng(1)
    problem = PenalizedProblem(design=rng.standard_normal((3, 6)),
                               target=rng.standard_normal(3))
    path = solve_constrained_path(problem, no_constraints(6))
    assert "LEAVE" in [bp.event.kind for bp in path.breakpoints]
    for bp in path.breakpoints:
        assert certificate_violation(problem, None, bp) <= 1e-9
    end = path.breakpoints[-1]
    assert end.tau == 0.0
    np.testing.assert_allclose(problem.design @ end.weights, problem.target,
                               atol=1e-10)


def test_spurious_leave_raises(monkeypatch):
    # drop a just-entered, correctly signed member at its entry: its
    # residual then runs past the boundary, which the engine must report
    # rather than return an off-path breakpoint
    real = path_constrained._validated_real
    calls = []

    def spurious(RtR, Ah, J, sign, entered, *rest):
        calls.append(sorted(entered))
        if len(calls) == 2:
            j = min(entered)
            J = [x for x in J if x != j]
            entered.discard(j)
            sign[j] = 0.0
        return real(RtR, Ah, J, sign, entered, *rest)

    problem = PenalizedProblem(design=np.eye(3), target=np.array([3.0, 2.0, 1.0]))
    monkeypatch.setattr(path_constrained, "_validated_real", spurious)
    with pytest.raises(SolverError, match="left the optimum"):
        solve_constrained_path(problem, no_constraints(3))
    assert calls[1] == [1]


def test_engine_logs_one_debug_record_per_path(caplog):
    caplog.set_level(logging.DEBUG, logger="sparsefolio.path_constrained")
    solve_path(PenalizedProblem(design=np.eye(2), target=np.array([3.0, 1.0])))
    solve_path(duplicate_column_problem())
    messages = [r.getMessage() for r in caplog.records
                if r.name == "sparsefolio.path_constrained"]
    assert messages == [
        "continuation: 3 breakpoints, 2 direction solves, 0 least-squares fallbacks",
        "continuation: 4 breakpoints, 3 direction solves, 2 least-squares fallbacks",
    ]
