"""Independent brute-force solvers used to certify the path algorithms.

These are the reference implementations everything else is judged against,
so they get their own closed-form checks first.
"""

import numpy as np
import pytest

from sparsefolio import AffineConstraints, InputError, PenalizedProblem
from oracles import (
    oracle_nonnegative_qp,
    oracle_projected_descent,
    oracle_sign_enumeration,
    oracle_sign_enumeration_many,
)

from conftest import no_constraints


def soft_threshold(y, tau):
    return np.sign(y) * np.maximum(np.abs(y) - tau / 2.0, 0.0)


def test_sign_enumeration_orthonormal_closed_form():
    rng = np.random.default_rng(11)
    Q, _ = np.linalg.qr(rng.standard_normal((7, 4)))
    y = rng.standard_normal(7)
    p = PenalizedProblem(design=Q, target=y)
    c = Q.T @ y
    for tau in (0.0, 0.3, 1.0, 2.0):
        w = oracle_sign_enumeration(p, None, tau)
        np.testing.assert_allclose(w, soft_threshold(c, tau), atol=1e-12)


def test_sign_enumeration_tau_zero_constrained_least_squares():
    rng = np.random.default_rng(12)
    R = rng.standard_normal((8, 4))
    y = rng.standard_normal(8)
    A = rng.standard_normal((2, 4))
    a = A @ rng.standard_normal(4)
    p = PenalizedProblem(design=R, target=y)
    cons = AffineConstraints(matrix=A, rhs=a)
    w = oracle_sign_enumeration(p, cons, 0.0)
    # stationarity of ||Rw - y||^2 under Aw = a: solve the KKT system
    K = np.block([[2.0 * R.T @ R, A.T], [A, np.zeros((2, 2))]])
    rhs = np.concatenate([2.0 * R.T @ y, a])
    w_kkt = np.linalg.solve(K, rhs)[:4]
    np.testing.assert_allclose(w, w_kkt, atol=1e-9)


def test_sign_enumeration_respects_constraints():
    rng = np.random.default_rng(13)
    R = rng.standard_normal((6, 5))
    y = rng.standard_normal(6)
    A = np.ones((1, 5))
    cons = AffineConstraints(matrix=A, rhs=np.array([1.0]))
    p = PenalizedProblem(design=R, target=y)
    for tau in (0.1, 1.0, 5.0):
        w = oracle_sign_enumeration(p, cons, tau)
        assert abs(w.sum() - 1.0) <= 1e-9


def test_sign_enumeration_many_matches_single():
    p = PenalizedProblem(design=np.eye(3), target=np.array([2.0, -1.0, 0.5]))
    taus = [0.0, 0.4, 1.1, 3.0]
    many = oracle_sign_enumeration_many(p, None, taus)
    for tau, w in zip(taus, many):
        np.testing.assert_allclose(w, oracle_sign_enumeration(p, None, tau),
                                   atol=0.0)


def test_sign_enumeration_reports_ties():
    # symmetric instance: at tau = 0 the minimizer set over w1 + w2 = 1
    # with identical columns is a whole segment
    R = np.array([[1.0, 1.0]])
    y = np.array([1.0])
    p = PenalizedProblem(design=R, target=y)
    cons = AffineConstraints(matrix=np.array([[1.0, -1.0]]), rhs=np.array([0.0]))
    ties = oracle_sign_enumeration(p, cons, 0.5, return_ties=True)
    assert len(ties) >= 1
    for w in ties:
        assert abs(w[0] - w[1]) <= 1e-9


def test_sign_enumeration_size_guard():
    rng = np.random.default_rng(1)
    p = PenalizedProblem(design=rng.standard_normal((3, 11)),
                         target=rng.standard_normal(3))
    with pytest.raises(InputError):
        oracle_sign_enumeration(p, None, 1.0)


def test_projected_descent_identity_instance():
    p = PenalizedProblem(design=np.eye(2), target=np.array([3.0, 1.0]))
    w = oracle_projected_descent(p, None, 4.0)
    np.testing.assert_allclose(w, [1.0, 0.0], atol=1e-4)


def test_projected_descent_zero_target():
    p = PenalizedProblem(design=np.eye(3), target=np.zeros(3))
    w = oracle_projected_descent(p, None, 0.5)
    np.testing.assert_allclose(w, np.zeros(3), atol=1e-6)


@pytest.mark.parametrize("seed", range(4))
def test_projected_descent_agrees_with_enumeration(seed):
    rng = np.random.default_rng(600 + seed)
    N = int(rng.integers(2, 7))
    T = int(rng.integers(3, 9))
    R = rng.standard_normal((T, N))
    y = rng.standard_normal(T)
    p = PenalizedProblem(design=R, target=y)
    tau = float(rng.uniform(0.2, 2.0))
    w_exact = oracle_sign_enumeration(p, None, tau)
    w_iter = oracle_projected_descent(p, None, tau)
    np.testing.assert_allclose(w_iter, w_exact, atol=1e-4)


def test_nonnegative_qp_simplex_projection():
    # min ||w - y||^2 over the probability simplex, y = (0.9, 0.4, -0.2):
    # textbook water-filling gives (0.75, 0.25, 0)
    p = PenalizedProblem(design=np.eye(3), target=np.array([0.9, 0.4, -0.2]))
    cons = AffineConstraints(matrix=np.ones((1, 3)), rhs=np.array([1.0]))
    w = oracle_nonnegative_qp(p, cons)
    np.testing.assert_allclose(w, [0.75, 0.25, 0.0], atol=1e-12)


def test_nonnegative_qp_infeasible_raises():
    from oracles import NoFeasiblePattern

    p = PenalizedProblem(design=np.eye(2), target=np.ones(2))
    cons = AffineConstraints(matrix=np.ones((1, 2)), rhs=np.array([-1.0]))
    with pytest.raises(NoFeasiblePattern):
        oracle_nonnegative_qp(p, cons)


def test_nonnegative_qp_interior_matches_equality_qp():
    # when the nonnegativity constraints are slack the answer is the plain
    # equality-constrained minimizer
    rng = np.random.default_rng(7)
    R = rng.standard_normal((9, 3)) + 3.0 * np.eye(9, 3)
    y = R @ np.array([0.5, 0.3, 0.2])
    cons = AffineConstraints(matrix=np.ones((1, 3)), rhs=np.array([1.0]))
    p = PenalizedProblem(design=R, target=y)
    w = oracle_nonnegative_qp(p, cons)
    np.testing.assert_allclose(w, [0.5, 0.3, 0.2], atol=1e-9)
    assert np.all(w >= 0.0)


def test_constraint_helper_accepts_empty():
    w = oracle_sign_enumeration(
        PenalizedProblem(design=np.eye(2), target=np.array([1.0, 2.0])),
        no_constraints(2),
        0.0,
    )
    np.testing.assert_allclose(w, [1.0, 2.0], atol=1e-12)
