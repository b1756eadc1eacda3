"""The start's face sweep against its first form.

`path_constrained._face_lsq` finds the least-squares point of the
l1-minimal face by solves gathered from the path's bordered matrix.
`oracles.reference_face_lsq` is the same active-set sweep in its first
form: sign-flipped copies of the face columns, a bordered system assembled
per solve and solved by min-norm least squares. On every drawn face the
sweep must return a feasible point of the face (Aw = a, support in the
face, the face's signs) whose objective matches the reference's, and the
reference's point itself wherever the face's least-squares point is unique.
"""

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsefolio import AffineConstraints, PenalizedProblem
from sparsefolio import path_constrained

from oracles import reference_face_lsq

from conftest import factor_panel, markowitz_instance, random_instance

KINDS = ("random", "markowitz", "factor", "duplicate", "wide", "single")


def _markowitz_rows(R):
    mu = R.mean(axis=0)
    rho = float(R.mean(axis=1).mean())
    return (PenalizedProblem(design=R, target=np.full(R.shape[0], rho)),
            AffineConstraints(matrix=np.vstack([mu, np.ones(R.shape[1])]),
                              rhs=np.array([rho, 1.0])))


def face_instance(kind, seed):
    """(problem, constraints) with a nonzero right-hand side."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        return random_instance(seed, m_choices=(1, 2, 3), n_min=4)
    if kind == "markowitz":
        return markowitz_instance(seed)
    if kind == "factor":
        n = int(rng.integers(4, 13))
        T = int(rng.choice([24, 36, 60]))
        start = int(rng.integers(0, 120 - T + 1))
        return _markowitz_rows(factor_panel(seed % 7, n, 120)[start:start + T])
    if kind == "duplicate":
        # identical assets: twin columns in the design and in both rows
        n = int(rng.integers(3, 8))
        R = 0.05 * rng.standard_normal((int(rng.integers(n + 1, 16)), n)) + 0.01
        i, j = rng.choice(n, 2, replace=False)
        R[:, j] = R[:, i]
        return _markowitz_rows(R)
    if kind == "wide":
        return random_instance(seed, n_max=12, t_max=4, m_choices=(1, 2, 3), n_min=5)
    # a single asset under a budget row
    R = rng.standard_normal((int(rng.integers(1, 8)), 1))
    return (PenalizedProblem(design=R, target=rng.standard_normal(R.shape[0])),
            AffineConstraints(matrix=np.ones((1, 1)), rhs=np.array([1.0])))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(kind=st.sampled_from(KINDS), seed=st.integers(0, 2**32 - 1))
def test_face_sweep_matches_reference(kind, seed):
    problem, constraints = face_instance(kind, seed)
    Rh, y, Ah, a, _ = path_constrained._prepare(problem, constraints)
    face, signs, x = path_constrained._l1_face(Ah, a)
    G = path_constrained._bordered_matrix(Rh.T @ Rh, Ah)
    counts = Counter()
    w = path_constrained._face_lsq(G, Rh, y, Ah, a, face, signs, x, counts)
    ref = reference_face_lsq(Rh, y, Ah, a, face, signs, x)
    assert counts["face_solves"] >= 1

    np.testing.assert_allclose(Ah @ w, a, rtol=0,
                               atol=1e-10 * max(1.0, float(np.abs(a).max())))
    off = np.ones(len(w), dtype=bool)
    off[face] = False
    assert not np.any(w[off])
    assert np.all(signs * w[face] >= 0.0)

    def objective(v):
        return float(np.sum((Rh @ v - y) ** 2))

    f, f_ref = objective(w), objective(ref)
    assert abs(f - f_ref) <= 1e-12 * f_ref
    # the point is unique, and well determined, when the face's columns of
    # the design and of the constraint rows are well-conditioned together
    if np.linalg.cond(np.vstack([Rh[:, face], Ah[:, face]])) <= 1e8:
        np.testing.assert_allclose(w, ref, rtol=0, atol=1e-10)

