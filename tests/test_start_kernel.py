"""The path start's l1-program kernel against brute-force vertex enumeration.

Both start problems are one small linear program: the l1-minimal face of
Ah w = a (nonzero right-hand side) and the minimax min_lam max|c + A^T lam|
(zero right-hand side). The kernel solves them by simplex pivots. The face
is checked directly; the minimax through the public find_constrained_start
on the problem with identity design, target c and a zero right-hand side,
whose START sits at tau = 2 phi with the minimax multipliers. The
references in oracles.py list every candidate vertex. Instances are random
or deliberately tied: duplicated columns, equal means, a target at the edge
of the mean span, and c in A's row space.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsefolio import AffineConstraints, PenalizedProblem, find_constrained_start
from sparsefolio.path_constrained import _l1_face

from oracles import enum_l1_face, enum_minimax

KINDS = ("random", "duplicated", "equal-means", "edge", "row-space")


def _markowitz_rows(rng, n, tied):
    # a mean row drawn from a few levels when tied, so that means repeat
    mu = rng.choice([0.05, 0.1, 0.2], size=n) if tied else rng.uniform(0.0, 0.3, n)
    mu[:2] = [0.05, 0.2]          # keep the two rows independent
    return np.vstack([mu, np.ones(n)])


def _duplicate(rng, M, extra=None):
    # copy one column over another; extra (a vector) follows the same copy
    i, j = rng.choice(M.shape[1], size=2, replace=False)
    M[:, j] = M[:, i]
    if extra is not None:
        extra[j] = extra[i]


def face_instance(seed, n, m, kind):
    rng = np.random.default_rng(seed)
    if kind in ("equal-means", "edge") and m == 2:
        Ah = _markowitz_rows(rng, n, tied=kind == "equal-means")
        mu = Ah[0]
        rho = float(mu.max()) if kind == "edge" else float(rng.uniform(mu.min(), mu.max()))
        return Ah, np.array([rho, 1.0])
    Ah = rng.standard_normal((m, n))
    if kind == "duplicated":
        _duplicate(rng, Ah)
    if kind == "edge":
        # the right-hand side is one column: a single-asset optimum
        return Ah, Ah[:, int(rng.integers(n))].copy()
    return Ah, Ah @ rng.standard_normal(n)


def minimax_instance(seed, n, m, kind):
    rng = np.random.default_rng(seed)
    if kind in ("equal-means", "edge") and m == 2:
        A = _markowitz_rows(rng, n, tied=True)
    else:
        A = rng.standard_normal((m, n))
    c = rng.standard_normal(n)
    if kind == "duplicated":
        _duplicate(rng, A, c)
    if kind == "row-space":
        c = A.T @ rng.standard_normal(m)
    return c, A


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 8),
       m=st.integers(1, 2), kind=st.sampled_from(KINDS))
def test_face_matches_vertex_enumeration(seed, n, m, kind):
    Ah, a = face_instance(seed, n, m, kind)
    face, signs, x = _l1_face(Ah, a)
    ref_face, ref_signs = enum_l1_face(Ah, a)
    np.testing.assert_array_equal(face, ref_face)
    np.testing.assert_array_equal(signs, ref_signs)
    # the returned point satisfies the constraints on the face, where every
    # feasible point attains the l1 minimum
    assert np.all(x >= 0.0)
    np.testing.assert_allclose(Ah[:, face] @ (signs * x), a, atol=1e-10)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 8),
       m=st.integers(1, 2), kind=st.sampled_from(KINDS))
def test_minimax_matches_vertex_enumeration(seed, n, m, kind):
    c, A = minimax_instance(seed, n, m, kind)
    bp, tau0 = find_constrained_start(PenalizedProblem(design=np.eye(n), target=c),
                                      AffineConstraints(matrix=A, rhs=np.zeros(m)))
    assert bp.event.kind == "START" and bp.tau == tau0
    lam, phi = bp.multipliers, tau0 / 2.0
    _, ref_phi = enum_minimax(c, A)
    tol = 1e-10 * max(1.0, float(np.max(np.abs(c))))
    assert abs(phi - ref_phi) <= tol
    # the multipliers attain the value they report
    assert abs(float(np.max(np.abs(c + A.T @ lam))) - phi) <= tol
