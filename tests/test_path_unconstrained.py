"""Unconstrained penalized path: start level, breakpoints, evaluation."""

import numpy as np
import pytest

from sparsefolio import (
    Event,
    InputError,
    PenalizedProblem,
    SolutionPath,
    SolverError,
    TauBelowStop,
    eval_at,
    multipliers_at,
    solve_constrained_path,
    solve_path,
)
from oracles import oracle_sign_enumeration_many

from conftest import (
    certificate_violation,
    lars_start_tau,
    random_instance,
    unconstrained_instance,
)


def identity_problem():
    return PenalizedProblem(design=np.eye(2), target=np.array([3.0, 1.0]))


def soft_threshold(y, tau):
    return np.sign(y) * np.maximum(np.abs(y) - tau / 2.0, 0.0)


# --- construction guards ---

def test_problem_rejects_bad_shapes():
    with pytest.raises(InputError):
        PenalizedProblem(design=np.eye(2), target=np.ones(3))
    with pytest.raises(InputError):
        PenalizedProblem(design=np.eye(2), target=np.ones(2),
                         penalty_weights=np.ones(3))
    with pytest.raises(InputError):
        PenalizedProblem(design=np.eye(2), target=np.ones(2),
                         penalty_weights=np.array([1.0, 0.0]))
    with pytest.raises(InputError):
        PenalizedProblem(design=np.array([[1.0, 0.0], [2.0, 0.0]]),
                         target=np.ones(2))  # dead column
    with pytest.raises(InputError):
        PenalizedProblem(design=np.eye(2), target=np.ones(2), tau_stop=-1.0)


# --- the initial tau: START at tau_0 = 2 max|R^T y / s| ---

def start_tau(problem):
    return solve_path(problem).breakpoints[0].tau


def test_initial_tau_identity():
    assert lars_start_tau(identity_problem()) == 6.0
    assert start_tau(identity_problem()) == 6.0


def test_initial_tau_zero_target():
    p = PenalizedProblem(design=np.eye(3), target=np.zeros(3))
    assert lars_start_tau(p) == 0.0
    assert start_tau(p) == 0.0


def test_initial_tau_scales_with_columns():
    rng = np.random.default_rng(0)
    R = rng.standard_normal((5, 3))
    y = rng.standard_normal(5)
    base = PenalizedProblem(design=R, target=y)
    scaled = PenalizedProblem(design=2.5 * R, target=y)
    assert np.isclose(start_tau(base), lars_start_tau(base), rtol=1e-14)
    assert np.isclose(start_tau(scaled), lars_start_tau(scaled), rtol=1e-14)
    assert np.isclose(start_tau(scaled), 2.5 * start_tau(base), rtol=1e-14)


# --- solve_path on the closed-form instance ---

def test_identity_breakpoints():
    path = solve_path(identity_problem())
    taus = [bp.tau for bp in path.breakpoints]
    assert taus == [6.0, 2.0, 0.0]
    np.testing.assert_allclose(path.breakpoints[0].weights, [0.0, 0.0], atol=0)
    np.testing.assert_allclose(path.breakpoints[1].weights, [2.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(path.breakpoints[2].weights, [3.0, 1.0], atol=1e-14)
    kinds = [bp.event.kind for bp in path.breakpoints]
    assert kinds[0] == "START"
    assert kinds[-1] == "STOP"


def test_zero_target_single_breakpoint():
    # every residual is 0 = tau/2, so every index is on the boundary
    p = PenalizedProblem(design=np.eye(3), target=np.zeros(3))
    path = solve_path(p)
    assert len(path.breakpoints) == 1
    bp = path.breakpoints[0]
    assert bp.tau == 0.0
    assert bp.active_set == (0, 1, 2)
    assert bp.event == Event("START", entered=(0, 1, 2))
    assert np.all(bp.weights == 0.0)


def test_identity_tie_enters_together():
    path = solve_path(PenalizedProblem(design=np.eye(3),
                                       target=np.array([2.0, 2.0, 1.0])))
    bps = path.breakpoints
    assert [bp.tau for bp in bps] == [4.0, 2.0, 0.0]
    assert [bp.event.kind for bp in bps] == ["START", "ENTER", "STOP"]
    assert bps[0].event.entered == (0, 1)
    assert bps[0].active_set == (0, 1)
    assert bps[1].event.entered == (2,)
    np.testing.assert_allclose(bps[-1].weights, [2.0, 2.0, 1.0], atol=1e-14)


@pytest.mark.parametrize("tau_stop", [6.0, 7.5])
def test_stop_at_or_above_tau0_is_one_empty_start(tau_stop):
    # at tau_stop = tau_0 = 6 index 0 sits on the boundary, as on the full
    # path's START; above tau_0 nobody does
    p = PenalizedProblem(design=np.eye(3), target=np.array([3.0, 1.0, 0.0]),
                         tau_stop=tau_stop)
    (bp,) = solve_path(p).breakpoints
    boundary = (0,) if tau_stop == 6.0 else ()
    assert bp.tau == tau_stop
    assert bp.active_set == boundary
    assert bp.event == Event("START", entered=boundary)
    assert np.all(bp.weights == 0.0)
    np.testing.assert_array_equal(bp.generalized_residual, [3.0, 1.0, 0.0])


@pytest.mark.parametrize("scale", [1e154, 1e160, 1e200])
def test_overflowing_data_raise_solver_error(scale):
    # R^T R overflows, and so do START's tau and residual
    rng = np.random.default_rng(0)
    R = rng.standard_normal((12, 5))
    y = rng.standard_normal(12)
    with np.errstate(all="ignore"):
        problem = PenalizedProblem(design=scale * R, target=scale * y)
        with pytest.raises(SolverError, match="not finite"):
            solve_path(problem)


def test_endpoint_is_least_squares():
    rng = np.random.default_rng(42)
    R = rng.standard_normal((6, 4))
    y = rng.standard_normal(6)
    path = solve_path(PenalizedProblem(design=R, target=y))
    w_ls = np.linalg.lstsq(R, y, rcond=None)[0]
    np.testing.assert_allclose(path.breakpoints[-1].weights, w_ls, atol=1e-9)


def test_orthonormal_design_matches_soft_threshold():
    # orthonormal columns decouple the problem into per-coordinate
    # soft thresholding
    rng = np.random.default_rng(3)
    Q, _ = np.linalg.qr(rng.standard_normal((8, 5)))
    y = rng.standard_normal(8)
    p = PenalizedProblem(design=Q, target=y)
    path = solve_path(p)
    c = Q.T @ y
    for tau in np.linspace(0.0, 2.0 * np.abs(c).max(), 13):
        np.testing.assert_allclose(
            path.eval_at(tau), soft_threshold(c, tau), atol=1e-10
        )


# --- path invariants on random instances ---

@pytest.mark.parametrize("seed", range(12))
def test_random_paths_certified_and_match_oracle(seed):
    problem = unconstrained_instance(seed, weighted=(seed % 3 == 0))
    path = solve_path(problem)
    tau0 = path.breakpoints[0].tau
    scale = max(1.0, tau0)
    for bp in path.breakpoints:
        assert certificate_violation(problem, bp) <= 1e-9 * scale
        off = np.setdiff1d(np.arange(problem.n_assets), bp.active_set)
        assert np.all(bp.weights[off] == 0.0)  # exact zeros off the set
    rng = np.random.default_rng(100 + seed)
    taus = rng.uniform(0.0, tau0, size=8)
    exact = oracle_sign_enumeration_many(problem, None, taus)
    for tau, w_star in zip(taus, exact):
        np.testing.assert_allclose(path.eval_at(tau), w_star, atol=1e-8)


@pytest.mark.parametrize("seed", range(12))
def test_l1_norm_monotone_along_path(seed):
    problem = unconstrained_instance(seed)
    path = solve_path(problem)
    norms = [float(np.abs(bp.weights).sum()) for bp in path.breakpoints]
    for lo, hi in zip(norms, norms[1:]):
        assert hi >= lo - 1e-12 * max(1.0, lo)


def test_weighted_path_is_rescaled_plain_path():
    rng = np.random.default_rng(17)
    R = rng.standard_normal((7, 4))
    y = rng.standard_normal(7)
    s = rng.uniform(0.5, 2.0, size=4)
    weighted = solve_path(PenalizedProblem(design=R, target=y, penalty_weights=s))
    plain = solve_path(PenalizedProblem(design=R / s[np.newaxis, :], target=y))
    assert len(weighted.breakpoints) == len(plain.breakpoints)
    for wb, pb in zip(weighted.breakpoints, plain.breakpoints):
        assert np.isclose(wb.tau, pb.tau, rtol=0, atol=1e-10)
        np.testing.assert_allclose(wb.weights, pb.weights / s, atol=1e-10)


def test_tau_stop_truncates_path():
    p = PenalizedProblem(design=np.eye(2), target=np.array([3.0, 1.0]),
                         tau_stop=1.0)
    path = solve_path(p)
    assert path.breakpoints[-1].tau == 1.0
    np.testing.assert_allclose(path.breakpoints[-1].weights, [2.5, 0.5],
                               atol=1e-14)


# --- eval_at and multipliers_at ---

def contract_paths():
    """Constrained paths with m = 0, 1, 2 and unconstrained solve_path paths."""
    for seed in range(12):
        problem, constraints = random_instance(seed)
        yield solve_constrained_path(problem, constraints)
    for seed in range(6):
        yield solve_path(unconstrained_instance(seed, weighted=seed % 2 == 1))


def test_interpolation_contract():
    m_seen = set()
    for path in contract_paths():
        bps = path.breakpoints
        m_seen.add(len(bps[0].multipliers))
        for bp in bps:  # stored arrays, bit for bit
            assert np.array_equal(eval_at(path, bp.tau), bp.weights)
            assert np.array_equal(multipliers_at(path, bp.tau), bp.multipliers)
        above = 2.0 * bps[0].tau + 1.0
        assert np.array_equal(eval_at(path, above), bps[0].weights)
        assert np.array_equal(multipliers_at(path, above), bps[0].multipliers)
        for hi, lo in zip(bps, bps[1:]):
            mid = 0.5 * (hi.tau + lo.tau)
            np.testing.assert_allclose(eval_at(path, mid),
                                       0.5 * (hi.weights + lo.weights),
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(multipliers_at(path, mid),
                                       0.5 * (hi.multipliers + lo.multipliers),
                                       rtol=0, atol=1e-12)
        below = bps[-1].tau - 1.0
        with pytest.raises(TauBelowStop):
            eval_at(path, below)
        with pytest.raises(TauBelowStop):
            multipliers_at(path, below)
    assert m_seen == {0, 1, 2}


def test_interpolation_of_empty_path_raises():
    path = SolutionPath(breakpoints=())
    for read in (eval_at, multipliers_at):
        with pytest.raises(SolverError):
            read(path, 1.0)


def test_eval_at_identity_example():
    path = solve_path(identity_problem())
    np.testing.assert_allclose(path.eval_at(4.0), [1.0, 0.0], atol=1e-14)


def test_eval_at_start_and_above_is_zero():
    path = solve_path(identity_problem())
    assert np.all(path.eval_at(6.0) == 0.0)
    assert np.all(path.eval_at(1e9) == 0.0)


def test_eval_at_midpoint_interpolates():
    problem = unconstrained_instance(4)
    path = solve_path(problem)
    bps = path.breakpoints
    assert len(bps) >= 2
    hi, lo = bps[0], bps[1]
    mid = 0.5 * (hi.tau + lo.tau)
    np.testing.assert_allclose(
        eval_at(path, mid), 0.5 * (hi.weights + lo.weights), atol=1e-12
    )


def test_eval_below_stop_raises():
    p = PenalizedProblem(design=np.eye(2), target=np.array([3.0, 1.0]),
                         tau_stop=1.0)
    path = solve_path(p)
    with pytest.raises(TauBelowStop):
        path.eval_at(0.5)
