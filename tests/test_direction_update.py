"""The direction solve by the carried working-set inverse, and the
residual carried by its velocity.

Between breakpoints the engine carries the inverse of the last direction
system to the next working set (a Schur downdate per leaving index, a
bordering per entering one) instead of gathering and LU-factoring the
system afresh. Along a long path the carried solutions must not drift from
fresh solves, and a pivot that is exactly zero must send the step to the
gathered LU without a floating-point warning. The residual b steps by
-gamma v instead of being recomputed from the data; it must stay within
rounding of the recompute, every breakpoint must keep its own b, and b is
recomputed only at START and after each step on a gathered direction.
"""

import logging
import re
import warnings
from collections import Counter

import numpy as np
import pytest

import sparsefolio.path_constrained as path_constrained
from sparsefolio import AffineConstraints, PenalizedProblem, solve_constrained_path

from conftest import factor_panel, no_constraints, recomputed_residual


def recording(monkeypatch):
    """Patch the direction validation to record each call's arguments,
    result and solve counts; returns the list of records."""
    real = path_constrained._validated_real
    calls = []

    def spy(G, J, sign, entered, ztol, counts, inverse):
        before = Counter(counts)
        args = (G, J.copy(), sign.copy(), entered.copy(), ztol, inverse)
        out = real(G, J, sign, entered, ztol, counts, inverse)
        calls.append((args, out, Counter(counts) - before))
        return out

    monkeypatch.setattr(path_constrained, "_validated_real", spy)
    return calls


def long_path_instance(m):
    """A 100-asset factor panel over 150 months: a Markowitz problem with
    its two rows, or an index-tracking problem with none."""
    R = factor_panel(4, 100, 150)
    if m:
        rho = float(R.mean(axis=1).mean())
        return (PenalizedProblem(design=R, target=np.full(R.shape[0], rho)),
                AffineConstraints(matrix=np.vstack([R.mean(axis=0), np.ones(100)]),
                                  rhs=np.array([rho, 1.0])))
    rng = np.random.default_rng(4)
    y = R @ rng.uniform(0.0, 0.02, 100) + 0.01 * rng.standard_normal(150)
    return PenalizedProblem(design=R, target=y), no_constraints(100)


@pytest.mark.parametrize("m", [0, 2])
def test_carried_directions_match_fresh_solves_along_a_long_path(monkeypatch, m):
    calls = recording(monkeypatch)
    path = solve_constrained_path(*long_path_instance(m))
    assert len(path.breakpoints) >= 100
    total = sum((c for _, _, c in calls), Counter())
    assert total["updates"] >= 0.9 * total["solves"]
    for (G, _, sign, _, _, _), (uJ, svec, J, _, _), _ in calls:
        n = len(sign)
        rows = np.concatenate((J, np.arange(n, G.shape[0])))
        fresh = np.linalg.solve(G[np.ix_(rows, rows)],
                                np.concatenate((sign[J], np.zeros(m))))
        drift = np.abs(np.concatenate((uJ, svec)) - fresh).max()
        assert drift <= 1e-10 * np.abs(fresh).max()


def test_exact_zero_pivot_takes_the_gathered_route(monkeypatch):
    # columns e1, e2, e3, e3: both copies of e3 enter at one breakpoint, and
    # bordering the second onto the inverse that holds the first meets the
    # Schur pivot 1 - 1 = 0 exactly
    R = np.array([[1.0, 0.0, 0.0, 0.0],
                  [0.0, 1.0, 0.0, 0.0],
                  [0.0, 0.0, 1.0, 1.0],
                  [0.0, 0.0, 0.0, 0.0]])
    problem = PenalizedProblem(design=R, target=np.array([3.0, 1.0, 2.0, 0.5]))
    calls = recording(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        path = solve_constrained_path(problem, no_constraints(4))
    assert path.breakpoints[1].event.entered == (2, 3)
    (G, J, _, _, _, inverse), _, counts = calls[1]
    prev, M, _ = inverse
    assert prev.tolist() == [0] and J.tolist() == [0, 2, 3]
    # the first copy borders on; the second's pivot is exactly zero
    M2 = path_constrained._add_index(G, M, prev, 2)
    rows = np.array([0, 2])
    assert G[3, 3] - G[3, rows] @ M2 @ G[rows, 3] == 0.0
    assert path_constrained._add_index(G, M2, rows, 3) is None
    assert path_constrained._carry_inverse(G, M, prev, np.array([True]), J) is None
    # so the step gathers its (singular) system: no update, one fallback
    assert counts["updates"] == 0 and counts["fallbacks"] == 1


@pytest.mark.parametrize("eps", [0.0, 1e-5])
def test_tiny_downdate_pivot_takes_the_gathered_route(eps):
    # G = [I, -A^T; A, 0] with A = (1, eps, 1). Removing index 0 from the
    # working set [0, 1] leaves index 1 alone, whose system has determinant
    # eps^2: the downdate pivot, M's entry for index 0, is zero or tiny
    G = path_constrained._bordered_matrix(np.eye(3), np.array([[1.0, eps, 1.0]]))
    sign = np.array([1.0, 1.0, 0.0])
    state = path_constrained._validated_real(
        G, np.array([0, 1]), sign, np.zeros(3, dtype=bool), 1e-12, Counter(), None)[4]
    prev, M, _ = state
    # M's rows are the constraint row, then prev: index 0 is row 1
    assert abs(M[1, 1]) <= path_constrained._PIVOT_REL * np.abs(M[1]).max()
    assert path_constrained._drop_index(M, 1) is None
    # index 0 leaves and index 2 enters: carrying M fails at the downdate
    sign[0], sign[2] = 0.0, -1.0
    J = np.array([1, 2])
    assert path_constrained._carry_inverse(
        G, M, prev, sign[prev] != 0.0, np.array([3, 1, 2])) is None
    # so the direction comes from the gathered LU, which re-seeds the inverse
    counts = Counter()
    uJ, svec, J, v, state = path_constrained._validated_real(
        G, J, sign, np.array([False, False, True]), 1e-12, counts, state)
    assert v is None and state is not None
    assert (counts["solves"], counts["updates"], counts["reseeds"],
            counts["fallbacks"]) == (1, 0, 1, 0)
    rows = np.array([1, 2, 3])
    fresh = np.linalg.solve(G[np.ix_(rows, rows)], np.array([1.0, -1.0, 0.0]))
    np.testing.assert_allclose(np.concatenate((uJ, svec)), fresh, rtol=0, atol=1e-14)


@pytest.mark.parametrize("m", [0, 2])
def test_carried_residual_matches_recompute_along_a_long_path(m):
    problem, constraints = long_path_instance(m)
    path = solve_constrained_path(problem, constraints)
    assert len(path.breakpoints) >= 100
    R, s = problem.design, problem.penalty_weights
    scale = max(1.0, float(np.abs((R / s).T @ problem.target).max()))
    for bp in path.breakpoints:
        gap = np.abs(bp.generalized_residual
                     - recomputed_residual(problem, bp, constraints)).max()
        assert gap <= 1e-12 * scale


@pytest.mark.parametrize("m", [0, 2])
def test_breakpoints_keep_their_residual_as_the_path_goes_on(m):
    # the carried residual is rebound at every step, never updated in place:
    # a breakpoint's b reads the same after the rest of the path is pulled
    breakpoints = path_constrained._breakpoints(*long_path_instance(m))
    pulled = [(bp, bp.generalized_residual.tobytes()) for bp in breakpoints]
    assert len(pulled) >= 100
    for bp, residual in pulled:
        assert bp.generalized_residual.tobytes() == residual


@pytest.mark.parametrize("m", [0, 2])
def test_full_residual_recomputes_are_start_and_gathered_steps(monkeypatch, caplog, m):
    caplog.set_level(logging.DEBUG, logger="sparsefolio.path_constrained")
    calls = recording(monkeypatch)
    path = solve_constrained_path(*long_path_instance(m))
    # every validation here leads to a step: the path ends at tau_stop,
    # whose breakpoint is not validated; a gathered solve returns v = None
    gathered = sum(out[3] is None for _, out, _ in calls)
    (message,) = [r.getMessage() for r in caplog.records
                  if r.name == "sparsefolio.path_constrained"]
    recomputes = int(re.search(r"(\d+) full residual recomputes", message)[1])
    assert recomputes == 1 + gathered
    assert recomputes < len(path.breakpoints) // 10
