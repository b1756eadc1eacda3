"""The continuation step against its reference form, bit for bit.

Every ratio test and direction validation made along a real path is
recorded, then replayed through the engine's step and through
`oracles.reference_next_event` / `oracles.reference_validated_real`. Both
must return the same bits: the step, the entering indices and their signs,
the leaving indices, the directions, and the surviving working set in its
order. The working set's order fixes the direction system's layout, so the
whole path must then equal `oracles.reference_continuation`'s bit for bit.
"""

import copy
import re
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparsefolio.path_constrained as path_constrained
from sparsefolio import (
    AffineConstraints,
    PenalizedProblem,
    SolverError,
    solve_constrained_path,
)
from oracles import (
    reference_continuation,
    reference_next_event,
    reference_validated_real,
)

from conftest import factor_panel, markowitz_instance, no_constraints, random_instance

KINDS = ("random", "markowitz", "identity", "duplicate", "factor")


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
    G, J, sign, entered, ztol, _ = args
    n = len(sign)
    lean_sign, lean_entered, lean_counts = sign.copy(), entered.copy(), Counter()
    uJ, svec, lean_J = path_constrained._validated_real(
        G, J.copy(), lean_sign, lean_entered, ztol, lean_counts)
    ref_sign, ref_counts = sign.copy(), Counter()
    ref_entered = set(np.flatnonzero(entered).tolist())
    ref_uJ, ref_svec, ref_J = reference_validated_real(
        G[:n, :n], G[n:, :n], J.tolist(), ref_sign, ref_entered, ztol, ref_counts)
    assert lean_J.tolist() == ref_J
    assert bits(uJ) == bits(ref_uJ)
    assert bits(svec) == bits(ref_svec)
    assert bits(lean_sign) == bits(ref_sign)
    assert np.flatnonzero(lean_entered).tolist() == sorted(ref_entered)
    assert lean_counts == ref_counts


def assert_same_path(problem, constraints):
    try:
        ref = reference_continuation(problem, constraints)
    except SolverError as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            solve_constrained_path(problem, constraints)
        return
    path = solve_constrained_path(problem, constraints)
    assert len(path.breakpoints) == len(ref)
    for bp, (tau, w, b, active, event, lam) in zip(path.breakpoints, ref):
        assert bits(bp.tau) == bits(tau)
        assert bits(bp.weights) == bits(w)
        assert bits(bp.generalized_residual) == bits(b)
        assert bits(bp.multipliers) == bits(lam)
        assert bp.active_set == active
        assert bp.event == event


@settings(max_examples=300, derandomize=True, deadline=None)
@given(kind=st.sampled_from(KINDS), seed=st.integers(0, 10_000))
def test_lean_step_matches_reference_bit_for_bit(kind, seed):
    problem, constraints = instance(kind, seed)
    for name, args in recorded_steps(problem, constraints):
        if name == "event":
            assert_same_event(args)
        else:
            assert_same_validation(args)
    assert_same_path(problem, constraints)


def test_reference_replay_meets_ties_drops_and_fallbacks():
    # the pool above reaches the step's rare branches: several indices
    # entering at one breakpoint, a member leaving, a just-entered index
    # dropped by validation, and a least-squares fallback
    multi = leaves = drops = fallbacks = 0
    for kind in KINDS:
        for seed in range(40):
            for name, args in recorded_steps(*instance(kind, seed)):
                if name == "event":
                    hit = path_constrained._next_event(*copy.deepcopy(args))
                    multi += hit is not None and len(hit[1]) > 1
                    leaves += hit is not None and len(hit[3]) > 0
                else:
                    G, J, sign, entered, ztol, _ = copy.deepcopy(args)
                    counts = Counter()
                    _, _, kept = path_constrained._validated_real(
                        G, J, sign, entered, ztol, counts)
                    drops += len(kept) < len(J)
                    fallbacks += counts["fallbacks"]
    assert multi and leaves and drops and fallbacks
