"""The continuation step against its reference form.

Every ratio test and direction validation made along a real path is
recorded, then replayed through the engine's step and through
`oracles.reference_next_event` / `oracles.reference_validated_real`.

The ratio test must return the reference's bits: the step, the entering
indices and their signs, and the leaving indices. The validation may solve
by the carried inverse rather than a fresh LU, so it must return the
reference's working set in its order, signs, drops and solve count, and
its direction within 1e-10 relative wherever the accepted direction system
has cond <= 1e8, the rule of `test_face_sweep.py`. The whole path must
then match `oracles.reference_continuation`: the same breakpoint count,
active sets and events, with tau, weights, residuals and multipliers
within 1e-10 relative wherever every direction system of the path has
cond <= 1e8. Elsewhere each breakpoint must certify as well as the
reference's, and a path the reference ends in an error must end in an
error of the same type.
"""

import copy
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparsefolio.path_constrained as path_constrained
from sparsefolio import (
    AffineConstraints,
    PathBreakpoint,
    PenalizedProblem,
    SolverError,
    solve_constrained_path,
)
from oracles import (
    reference_continuation,
    reference_next_event,
    reference_validated_real,
)

from conftest import (
    certificate_violation,
    factor_panel,
    markowitz_instance,
    no_constraints,
    random_instance,
)

KINDS = ("random", "markowitz", "identity", "duplicate", "factor")
RTOL = 1e-10
COND_LIMIT = 1e8


def identity_instance(seed):
    """Identity design with tied target magnitudes: several indices enter at
    once; on odd seeds a budget row is added."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    y = rng.choice([1.0, 2.0, 3.0], size=n) * rng.choice([-1.0, 1.0], size=n)
    problem = PenalizedProblem(design=np.eye(n), target=y)
    if seed % 2:
        return problem, AffineConstraints(matrix=np.ones((1, n)),
                                          rhs=np.array([float(seed % 4 == 1)]))
    return problem, no_constraints(n)


def duplicate_instance(seed):
    """Random design with duplicated columns: exact ties and singular
    direction systems; on odd seeds a budget row is added."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    T = int(rng.integers(2, 9))
    R = rng.standard_normal((T, n))
    R = np.hstack([R, R[:, rng.integers(0, n, size=int(rng.integers(1, 3)))]])
    problem = PenalizedProblem(design=R, target=rng.standard_normal(T))
    if seed % 2:
        return problem, AffineConstraints(matrix=np.ones((1, R.shape[1])),
                                          rhs=np.array([1.0]))
    return problem, no_constraints(R.shape[1])


def factor_window_instance(seed):
    """Markowitz problem on a training window of a seeded factor panel."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 13))
    T = int(rng.choice([24, 36, 60]))
    returns = factor_panel(seed % 7, n, 120)
    start = int(rng.integers(0, 120 - T + 1))
    R = returns[start:start + T]
    rho = float(R.mean(axis=1).mean())
    return (PenalizedProblem(design=R, target=np.full(T, rho)),
            AffineConstraints(matrix=np.vstack([R.mean(axis=0), np.ones(n)]),
                              rhs=np.array([rho, 1.0])))


def instance(kind, seed):
    if kind == "random":
        return random_instance(seed, m_choices=(seed % 4,),
                               zero_rhs=bool((seed // 4) % 2))
    if kind == "markowitz":
        return markowitz_instance(seed)
    if kind == "identity":
        return identity_instance(seed)
    if kind == "duplicate":
        return duplicate_instance(seed)
    return factor_window_instance(seed)


def recorded_steps(problem, constraints):
    """(kind, arguments) of every step call made while solving the path."""
    calls = []

    def spy(kind, fn):
        def call(*args):
            calls.append((kind, copy.deepcopy(args)))
            return fn(*args)
        return call

    with mock.patch.object(path_constrained, "_next_event",
                           spy("event", path_constrained._next_event)), \
         mock.patch.object(path_constrained, "_validated_real",
                           spy("validate", path_constrained._validated_real)):
        try:
            path_constrained.solve_constrained_path(problem, constraints)
        except SolverError:
            pass  # the states met before the error still count
    return calls


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


def assert_close(x, ref):
    """x within RTOL of ref, relative to ref's largest magnitude."""
    x, ref = np.asarray(x, dtype=float), np.asarray(ref, dtype=float)
    scale = float(np.abs(ref).max(initial=0.0))
    assert float(np.abs(x - ref).max(initial=0.0)) <= RTOL * scale


def assert_same_event(args):
    tau, tau_stop, b, v, w, J, uJ, sign, ztol = args
    lean = path_constrained._next_event(tau, tau_stop, b, v, w, J.copy(), uJ,
                                        sign.copy(), ztol)
    ref = reference_next_event(tau, tau_stop, b, v, w, J.tolist(), uJ,
                               sign.copy(), ztol)
    assert (lean is None) == (ref is None)
    if ref is None:
        return
    assert bits(lean[0]) == bits(ref[0])
    assert lean[1].tolist() == ref[1].tolist()
    assert bits(lean[2]) == bits(ref[2])
    assert lean[3].tolist() == ref[3].tolist()


def assert_same_validation(args):
    G, J, sign, entered, ztol, _, inverse = args
    n = len(sign)
    lean_sign, lean_entered, lean_counts = sign.copy(), entered.copy(), Counter()
    uJ, svec, lean_J, _, _ = path_constrained._validated_real(
        G, J.copy(), lean_sign, lean_entered, ztol, lean_counts, inverse)
    ref_sign, ref_counts = sign.copy(), Counter()
    ref_entered = set(np.flatnonzero(entered).tolist())
    ref_uJ, ref_svec, ref_J = reference_validated_real(
        G[:n, :n], G[n:, :n], J.tolist(), ref_sign, ref_entered, ztol, ref_counts)
    assert lean_J.tolist() == ref_J
    assert bits(lean_sign) == bits(ref_sign)
    assert np.flatnonzero(lean_entered).tolist() == sorted(ref_entered)
    assert lean_counts["solves"] == ref_counts["solves"]
    rows = np.concatenate((ref_J, np.arange(n, G.shape[0]))).astype(int)
    if np.linalg.cond(G[np.ix_(rows, rows)]) <= COND_LIMIT:
        assert_close(np.concatenate((uJ, svec)), np.concatenate((ref_uJ, ref_svec)))


def path_cond(problem, constraints, ref):
    """Largest condition number of the direction systems along a reference path."""
    Rh, _, Ah, _, _ = path_constrained._prepare(problem, constraints)
    G = path_constrained._bordered_matrix(Rh.T @ Rh, Ah)
    border = np.arange(Rh.shape[1], G.shape[0])
    worst = 1.0
    for _, _, _, active, _, _ in ref:
        rows = np.concatenate((np.asarray(active, dtype=int), border))
        if len(rows):
            worst = max(worst, float(np.linalg.cond(G[np.ix_(rows, rows)])))
    return worst


def assert_same_path(problem, constraints):
    try:
        ref = reference_continuation(problem, constraints)
    except SolverError as exc:
        with pytest.raises(type(exc)):
            solve_constrained_path(problem, constraints)
        return
    path = solve_constrained_path(problem, constraints)
    assert len(path.breakpoints) == len(ref)
    for bp, (_, _, _, active, event, _) in zip(path.breakpoints, ref):
        assert bp.active_set == active
        assert bp.event == event
    if path_cond(problem, constraints, ref) <= COND_LIMIT:
        # each field relative to its largest magnitude along the path
        for name, i in (("tau", 0), ("weights", 1), ("generalized_residual", 2),
                        ("multipliers", 5)):
            assert_close([getattr(bp, name) for bp in path.breakpoints],
                         [r[i] for r in ref])
        return
    for bp, (tau, w, b, active, event, lam) in zip(path.breakpoints, ref):
        ref_bp = PathBreakpoint(tau=tau, weights=w, generalized_residual=b,
                                active_set=active, event=event, multipliers=lam)
        assert (certificate_violation(problem, bp, constraints)
                <= max(1e-9, certificate_violation(problem, ref_bp, constraints)))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(kind=st.sampled_from(KINDS), seed=st.integers(0, 10_000))
def test_step_matches_reference(kind, seed):
    problem, constraints = instance(kind, seed)
    for name, args in recorded_steps(problem, constraints):
        if name == "event":
            assert_same_event(args)
        else:
            assert_same_validation(args)
    assert_same_path(problem, constraints)


@pytest.mark.parametrize("m, seed, entering_sign", [(0, 6, 1.0), (1, 5, -1.0)])
def test_drop_after_a_carried_solve_matches_reference(m, seed, entering_sign):
    # a just-entered index whose velocity opposes its sign, met on the
    # carried inverse of the working set before it entered: no input of the
    # pools reaches this, so the validation is built by hand
    rng = np.random.default_rng(seed)
    R = rng.standard_normal((8, 4))
    G = path_constrained._bordered_matrix(R.T @ R, rng.standard_normal((m, 4)))
    sign = np.array([1.0, -1.0, 0.0, 0.0])
    state = path_constrained._validated_real(
        G, np.array([0, 1]), sign, np.zeros(4, dtype=bool), 1e-12, Counter(), None)[4]
    assert state is not None
    sign[2] = entering_sign
    entered = np.array([False, False, True, False])
    args = (G, np.array([0, 1, 2]), sign, entered, 1e-12, Counter(), state)
    assert_same_validation(args)
    counts = Counter()
    kept = path_constrained._validated_real(*copy.deepcopy(args[:5]), counts, state)[2]
    # the first solve is by the carried inverse, and index 2 is dropped
    assert kept.tolist() == [0, 1]
    assert counts["updates"] >= 1 and counts["solves"] == 2


def test_reference_replay_meets_ties_drops_and_fallbacks():
    # the pool above reaches the step's rare branches: several indices
    # entering at one breakpoint, a member leaving, a just-entered index
    # dropped by validation, a least-squares fallback, and an inverse
    # re-seeded after the path start (its first validation)
    multi = leaves = drops = fallbacks = reseeds = 0
    for kind in KINDS:
        for seed in range(40):
            steps = recorded_steps(*instance(kind, seed))
            first = next((args for name, args in steps if name == "validate"), None)
            for name, args in steps:
                if name == "event":
                    hit = path_constrained._next_event(*copy.deepcopy(args))
                    multi += hit is not None and len(hit[1]) > 1
                    leaves += hit is not None and len(hit[3]) > 0
                else:
                    G, J, sign, entered, ztol, _, inverse = copy.deepcopy(args)
                    counts = Counter()
                    _, _, kept, _, _ = path_constrained._validated_real(
                        G, J, sign, entered, ztol, counts, inverse)
                    drops += len(kept) < len(J)
                    fallbacks += counts["fallbacks"]
                    reseeds += args is not first and counts["reseeds"] > 0
    assert multi and leaves and drops and fallbacks
    assert reseeds
