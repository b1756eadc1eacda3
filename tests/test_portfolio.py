"""Portfolio problem builders and path-based selection policies."""

import time

import numpy as np
import pytest

from sparsefolio import (
    AffineConstraints,
    CardinalityUnreachable,
    CurrentPortfolioInvalid,
    DegeneratePanel,
    EmptyBin,
    HedgingScenario,
    InfeasibleConstraints,
    InputError,
    LengthMismatch,
    MarkowitzSpec,
    NotNonnegativeStart,
    PenalizedProblem,
    Policy,
    ReturnPanel,
    add_months,
    build_adjustment_problem,
    build_hedging_problem,
    build_markowitz_problem,
    build_tracking_problem,
    initial_tau,
    select_binned,
    select_exact_k,
    select_no_short,
    solve_path,
    solve_portfolio_path,
)
from sparsefolio.path_unconstrained import PathBreakpoint, Event, SolutionPath

from conftest import factor_panel, markowitz_instance


def month_grid(start, t):
    return tuple(add_months(start, k) for k in range(t))


def make_panel(returns, start=(1990, 1)):
    r = np.asarray(returns, dtype=float)
    return ReturnPanel(
        returns=r,
        dates=month_grid(start, r.shape[0]),
        asset_names=tuple(f"A{k}" for k in range(r.shape[1])),
    )


def random_panel(t, n, seed=0):
    rng = np.random.default_rng(seed)
    return make_panel(0.05 * rng.standard_normal((t, n)) + 0.01)


def spec_for(panel, rho=None):
    if rho is None:
        mu = panel.returns.mean(axis=0)
        rho = float(mu.min()) + 0.4 * float(mu.max() - mu.min())
    return MarkowitzSpec(target_return=rho, training_panel=panel)


# --- Policy ---

def test_policy_labels():
    assert Policy.no_short().label == "no-short"
    assert Policy.exact_k(13).label == "exact-13"
    assert Policy.binned(8, 16).label == "bin-8-16"


def test_policy_validation():
    with pytest.raises(InputError):
        Policy(kind="exact-k")
    with pytest.raises(InputError):
        Policy.exact_k(0)
    with pytest.raises(InputError):
        Policy.binned(5, 3)
    with pytest.raises(InputError):
        Policy(kind="maximal")


# --- Markowitz problem construction ---

def test_constraint_row_is_exact_column_means():
    panel = random_panel(12, 3, seed=4)
    spec = spec_for(panel)
    problem, cons = build_markowitz_problem(spec)
    mu = panel.returns.mean(axis=0)
    np.testing.assert_array_equal(cons.matrix[0], mu)  # bitwise
    np.testing.assert_array_equal(cons.matrix[1], np.ones(3))
    assert cons.rhs[0] == spec.target_return
    assert cons.rhs[1] == 1.0
    assert problem.design is panel.returns
    np.testing.assert_array_equal(problem.target,
                                  np.full(12, spec.target_return))


def test_identical_assets_degenerate():
    col = 0.05 * np.random.default_rng(1).standard_normal(10) + 0.01
    panel = make_panel(np.column_stack([col, col]))
    with pytest.raises(DegeneratePanel):
        build_markowitz_problem(spec_for(panel, rho=float(col.mean())))


def test_target_outside_span_warns():
    panel = random_panel(12, 3, seed=5)
    mu = panel.returns.mean(axis=0)
    with pytest.warns(UserWarning):
        spec = MarkowitzSpec(target_return=float(mu.max()) + 0.1,
                             training_panel=panel)
    # construction still succeeds: shorting can reach the target
    problem, cons = build_markowitz_problem(spec)
    assert cons.n_constraints == 2


def test_single_asset_collapses_to_budget_row():
    panel = make_panel(np.array([[0.05], [0.07], [0.06]]))
    mu = float(panel.returns.mean())
    problem, cons = build_markowitz_problem(spec_for(panel, rho=mu))
    assert cons.matrix.shape == (1, 1)
    np.testing.assert_array_equal(cons.matrix, [[1.0]])
    # inconsistent implied return is infeasible, not silently dropped
    with pytest.raises(InfeasibleConstraints):
        with pytest.warns(UserWarning):
            build_markowitz_problem(spec_for(panel, rho=mu + 0.01))


def test_two_asset_singleton_feasible_point():
    panel = random_panel(10, 2, seed=6)
    spec = spec_for(panel)
    problem, cons = build_markowitz_problem(spec)
    path = solve_portfolio_path(problem, cons)
    w_unique = np.linalg.solve(cons.matrix, cons.rhs)
    for bp in path.breakpoints:
        np.testing.assert_allclose(bp.weights, w_unique, atol=1e-10)


# --- selection policies ---

def test_no_short_selection_properties():
    for seed in range(5):
        problem, cons = markowitz_instance(seed)
        path = solve_portfolio_path(problem, cons)
        sel = select_no_short(path, problem)
        assert np.all(sel.weights >= 0.0)
        # all-nonnegative: |w| sums and plain sums agree bitwise
        assert np.sum(np.abs(sel.weights)) == np.sum(sel.weights)
        assert abs(np.sum(sel.weights) - 1.0) <= 1e-10
        assert sel.tau == path.breakpoints[0].tau
        assert sel.active_count == int(np.count_nonzero(sel.weights))
        resid = problem.target - problem.design @ sel.weights
        assert np.isclose(sel.objective_value, float(resid @ resid), rtol=1e-15)


def test_no_short_rejects_negative_start():
    # fabricated path whose start carries a real short position
    problem = PenalizedProblem(design=np.eye(2), target=np.array([1.0, 1.0]))
    bad = PathBreakpoint(
        tau=1.0,
        weights=np.array([1.5, -0.5]),
        residual_corr=np.zeros(2),
        active_set=(0, 1),
        event=Event("START"),
    )
    path = SolutionPath(breakpoints=(bad,), problem_fingerprint="x")
    with pytest.raises(NotNonnegativeStart):
        select_no_short(path, problem)


def test_exact_k_at_start_count_returns_start():
    problem, cons = markowitz_instance(1)
    path = solve_portfolio_path(problem, cons)
    start = path.breakpoints[0]
    k0 = int(np.count_nonzero(start.weights))
    sel = select_exact_k(path, problem, k0)
    np.testing.assert_array_equal(sel.weights, start.weights)
    assert sel.tau == start.tau
    assert sel.policy.label == f"exact-{k0}"


def test_exact_k_takes_largest_tau_attainment():
    # instance whose support count plateaus: several breakpoints share a
    # count with different weights; the scan must return the earliest
    rng = np.random.default_rng(30000)
    N, T = int(rng.integers(3, 7)), int(rng.integers(3, 10))
    problem = PenalizedProblem(design=rng.standard_normal((T, N)),
                               target=rng.standard_normal(T))
    path = solve_path(problem)
    counts = [int(np.count_nonzero(bp.weights)) for bp in path.breakpoints]
    k = next(c for c in counts if counts.count(c) >= 2 and c > 0)
    attained = [bp for bp in path.breakpoints
                if int(np.count_nonzero(bp.weights)) == k]
    assert len(attained) >= 2
    assert not np.allclose(attained[0].weights, attained[-1].weights)
    sel = select_exact_k(path, problem, k)
    assert sel.tau == max(bp.tau for bp in attained)
    np.testing.assert_array_equal(sel.weights, attained[0].weights)


def test_exact_k_unreachable():
    problem, cons = markowitz_instance(1)
    path = solve_portfolio_path(problem, cons)
    with pytest.raises(CardinalityUnreachable):
        select_exact_k(path, problem, problem.n_assets + 3)


def test_binned_degenerate_bin_returns_start():
    problem, cons = markowitz_instance(2)
    path = solve_portfolio_path(problem, cons)
    start = path.breakpoints[0]
    k0 = int(np.count_nonzero(start.weights))
    # the start minimizes the data misfit among count-k0 breakpoints only if
    # no later breakpoint shares the count; restrict the bin to force it
    sel = select_binned(path, problem, k0, k0)
    assert sel.policy.label == f"bin-{k0}-{k0}"
    assert int(np.count_nonzero(sel.weights)) == k0


def test_binned_prefers_smaller_objective():
    problem, cons = markowitz_instance(3)
    path = solve_portfolio_path(problem, cons)
    counts = [int(np.count_nonzero(bp.weights)) for bp in path.breakpoints]
    sel = select_binned(path, problem, min(counts), max(counts))
    objs = []
    for bp in path.breakpoints:
        resid = problem.target - problem.design @ bp.weights
        objs.append(float(resid @ resid))
    assert sel.objective_value <= min(objs) * (1.0 + 1e-12)


def fabricated_path(entries):
    bps = tuple(
        PathBreakpoint(
            tau=tau,
            weights=np.asarray(w, dtype=float),
            residual_corr=np.zeros(len(w)),
            active_set=tuple(np.flatnonzero(w)),
            event=Event("ENTER"),
        )
        for tau, w in entries
    )
    return SolutionPath(breakpoints=bps, problem_fingerprint="fixture")


def test_binned_tie_breaks_on_l1_then_tau():
    # both candidates miss y = (2,2) by exactly 5; the sparser one carries
    # the smaller l1 norm and must win
    problem = PenalizedProblem(design=np.eye(2), target=np.array([2.0, 2.0]))
    w_small = [1.0, 0.0]
    w_large = [2.0, 2.0 - np.sqrt(5.0)]
    path = fabricated_path([(1.0, w_small), (0.5, w_large)])
    sel = select_binned(path, problem, 1, 2)
    np.testing.assert_array_equal(sel.weights, w_small)
    # exact tie in objective and l1: the larger tau (incumbent) wins
    path2 = fabricated_path([(1.0, [1.0, 0.0]), (0.4, [0.0, 1.0])])
    problem2 = PenalizedProblem(design=np.eye(2), target=np.array([1.5, 1.5]))
    sel2 = select_binned(path2, problem2, 1, 1)
    assert sel2.tau == 1.0


def test_binned_empty_bin_and_bad_range():
    problem, cons = markowitz_instance(4)
    path = solve_portfolio_path(problem, cons)
    with pytest.raises(EmptyBin):
        select_binned(path, problem, problem.n_assets + 2,
                      problem.n_assets + 5)
    with pytest.raises(InputError):
        select_binned(path, problem, 3, 2)


def test_short_penalty_objective_identity():
    # for budget-feasible weights the l1 penalty equals a constant plus
    # twice the short mass, so penalizing size is penalizing shorting
    rng = np.random.default_rng(21)
    R = rng.standard_normal((9, 5))
    rho = 0.07
    y = np.full(9, rho)
    for _ in range(25):
        w = rng.standard_normal(5)
        w = w / w.sum()  # budget holds
        tau = float(rng.uniform(0.0, 3.0))
        resid = float(np.sum((y - R @ w) ** 2))
        lhs = resid + tau * float(np.abs(w).sum())
        rhs = resid + 2.0 * tau * float(np.abs(w[w < 0.0]).sum()) + tau
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


# --- tracking ---

def tracking_panel(seed=8, t=14, n=4):
    rng = np.random.default_rng(seed)
    return make_panel(0.1 * rng.standard_normal((t, n)))


def test_tracking_exact_copy_enters_first():
    panel = tracking_panel()
    index = panel.returns[:, 2].copy()
    problem = build_tracking_problem(index, panel, np.ones(4))
    path = solve_path(problem)
    assert path.breakpoints[0].active_set == (2,)
    # perfect replication at the end of the path
    np.testing.assert_allclose(path.breakpoints[-1].weights,
                               [0.0, 0.0, 1.0, 0.0], atol=1e-9)


def test_tracking_uniform_spreads_rescale_tau():
    # penalty tau * c * ||w||_1: the costly path reaches each plain
    # breakpoint at tau divided by c
    panel = tracking_panel(seed=9)
    index = 0.1 * np.random.default_rng(10).standard_normal(14)
    plain = solve_path(build_tracking_problem(index, panel, np.ones(4)))
    scaled = solve_path(build_tracking_problem(index, panel, 3.0 * np.ones(4)))
    assert len(plain.breakpoints) == len(scaled.breakpoints)
    for pb, sb in zip(plain.breakpoints, scaled.breakpoints):
        assert np.isclose(3.0 * sb.tau, pb.tau, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(sb.weights, pb.weights, atol=1e-10)


def test_tracking_orthogonal_index_gives_empty_portfolio():
    # columns orthogonal to the index leave nothing to enter
    base = np.eye(5)
    panel = make_panel(base[:, 1:4])
    index = base[:, 0]
    problem = build_tracking_problem(index, panel, np.ones(3))
    assert initial_tau(problem) == 0.0
    path = solve_path(problem)
    assert len(path.breakpoints) == 1
    assert np.all(path.breakpoints[0].weights == 0.0)


def test_tracking_length_mismatch():
    panel = tracking_panel()
    with pytest.raises(LengthMismatch):
        build_tracking_problem(np.zeros(panel.n_periods + 1), panel,
                               np.ones(panel.n_assets))


# --- hedging ---

def test_hedging_single_negating_security():
    rng = np.random.default_rng(12)
    y = rng.standard_normal(6)
    scenario = HedgingScenario(
        pnl_existing=y,
        pnl_unit=(-y)[:, None],
        probabilities=np.full(6, 1.0 / 6.0),
        spreads=np.array([1e-8]),
    )
    problem = build_hedging_problem(scenario)
    path = solve_path(problem)
    np.testing.assert_allclose(path.eval_at(0.0), [1.0], atol=1e-10)


def test_hedging_uniform_probabilities_scale():
    rng = np.random.default_rng(13)
    X = rng.standard_normal((4, 2))
    y = rng.standard_normal(4)
    scenario = HedgingScenario(
        pnl_existing=y,
        pnl_unit=X,
        probabilities=np.full(4, 0.25),
        spreads=np.ones(2),
    )
    problem = build_hedging_problem(scenario)
    np.testing.assert_allclose(problem.design, X / 2.0, atol=1e-16)
    np.testing.assert_allclose(problem.target, -y / 2.0, atol=1e-16)


def test_hedging_zero_book_stays_empty():
    rng = np.random.default_rng(14)
    scenario = HedgingScenario(
        pnl_existing=np.zeros(5),
        pnl_unit=rng.standard_normal((5, 3)),
        probabilities=np.full(5, 0.2),
        spreads=np.ones(3),
    )
    problem = build_hedging_problem(scenario)
    assert initial_tau(problem) == 0.0
    path = solve_path(problem)
    assert np.all(path.breakpoints[0].weights == 0.0)


def test_hedging_scenario_validation():
    X = np.ones((3, 2))
    y = np.ones(3)
    with pytest.raises(InputError):
        HedgingScenario(pnl_existing=y, pnl_unit=X,
                        probabilities=np.array([0.5, 0.5, 0.0]),
                        spreads=np.ones(2))
    with pytest.raises(InputError):
        HedgingScenario(pnl_existing=y, pnl_unit=X,
                        probabilities=np.array([0.5, 0.3, 0.3]),
                        spreads=np.ones(2))
    with pytest.raises(InputError):
        HedgingScenario(pnl_existing=y, pnl_unit=X,
                        probabilities=np.full(3, 1 / 3),
                        spreads=np.array([1.0, -1.0]))
    with pytest.raises(InputError):
        HedgingScenario(pnl_existing=y[:2], pnl_unit=X,
                        probabilities=np.full(3, 1 / 3), spreads=np.ones(2))


# --- adjustment ---

def test_adjustment_from_even_weights_starts_at_zero():
    panel = random_panel(16, 4, seed=15)
    spec = spec_for(panel)
    current = np.full(4, 0.25)
    problem, cons = build_adjustment_problem(current, spec)
    np.testing.assert_array_equal(cons.rhs, np.zeros(2))
    path = solve_portfolio_path(problem, cons)
    start = path.breakpoints[0]
    assert np.all(start.weights == 0.0)
    assert start.tau > 0.0


def test_adjustment_keeps_original_constraints():
    # the homogeneous rows preserve what current already satisfies, so use
    # a target the 1/N book meets exactly
    panel = random_panel(16, 4, seed=16)
    mu = panel.returns.mean(axis=0)
    current = np.full(4, 0.25)
    spec = spec_for(panel, rho=float(mu @ current))
    problem, cons = build_adjustment_problem(current, spec)
    path = solve_portfolio_path(problem, cons)
    for bp in path.breakpoints:
        final = current + bp.weights
        assert abs(final.sum() - 1.0) <= 1e-10
        assert abs(mu @ final - spec.target_return) <= 1e-10


def test_adjustment_of_an_optimum_is_zero():
    # holdings already on the direct path need no trade at that tau; pick a
    # seed whose direct path has a real segment
    for seed in range(17, 40):
        panel = random_panel(18, 4, seed=seed)
        spec = spec_for(panel)
        problem, cons = build_markowitz_problem(spec)
        path = solve_portfolio_path(problem, cons)
        if len(path.breakpoints) >= 2:
            break
    bps = path.breakpoints
    assert len(bps) >= 2
    tau_star = 0.5 * (bps[0].tau + bps[1].tau)
    w_star = path.eval_at(tau_star)
    adj_problem, adj_cons = build_adjustment_problem(w_star, spec)
    adj_path = solve_portfolio_path(adj_problem, adj_cons)
    assert adj_path.breakpoints[0].tau <= tau_star * (1.0 + 1e-9)
    np.testing.assert_allclose(adj_path.eval_at(tau_star), np.zeros(4),
                               atol=1e-10)


def test_adjustment_at_n100_certifies_in_bounded_time():
    # the adjust command's shape at its largest size: equal-weight holdings
    # over the trailing 60 months of a 100-asset factor panel; the zero-rhs
    # start used to take about 15 s and 760 MB here
    returns = factor_panel(0, 100, 432)[-60:]
    panel = ReturnPanel(returns=returns, dates=month_grid((2001, 7), 60),
                        asset_names=tuple(f"a{i}" for i in range(100)))
    spec = spec_for(panel, rho=float(returns.mean(axis=1).mean()))
    problem, cons = build_adjustment_problem(np.full(100, 0.01), spec)
    t0 = time.perf_counter()
    path = solve_portfolio_path(problem, cons)
    assert time.perf_counter() - t0 < 5.0
    R, y, A = problem.design, problem.target, cons.matrix
    tol = 1e-9 * max(1.0, float(np.max(np.abs(R.T @ y))))
    for bp in path.breakpoints:
        g = R.T @ (y - R @ bp.weights) + A.T @ bp.multipliers
        nz = bp.weights != 0.0
        half = bp.tau / 2.0
        assert np.all(np.abs(g[nz] - half * np.sign(bp.weights[nz])) <= tol)
        assert np.all(np.abs(g[~nz]) <= half + tol)
        assert np.max(np.abs(A @ bp.weights)) <= 1e-10
    start = path.breakpoints[0]
    assert np.all(start.weights == 0.0)
    # tau_0 is the smallest level the start certifies at: some bound is tight
    g = R.T @ y + A.T @ start.multipliers
    assert abs(float(np.max(np.abs(g))) - start.tau / 2.0) <= tol


def test_adjustment_validation():
    panel = random_panel(16, 4, seed=18)
    spec = spec_for(panel)
    with pytest.raises(CurrentPortfolioInvalid):
        build_adjustment_problem(np.full(4, 0.3), spec)
    with pytest.raises(InputError):
        build_adjustment_problem(np.full(3, 1 / 3), spec)
