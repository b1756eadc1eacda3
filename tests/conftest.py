"""Shared fixtures: random instance generators and optional data discovery."""

import os
import sys
from pathlib import Path

import numpy as np
import pytest

try:
    import sparsefolio  # noqa: F401
except ImportError:  # running from a checkout without an installed package
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sparsefolio import (
    AffineConstraints,
    PenalizedProblem,
    ReturnPanel,
    add_months,
)


def no_constraints(n):
    return AffineConstraints(matrix=np.zeros((0, n)), rhs=np.zeros(0))


def random_instance(seed, n_max=8, t_max=12, m_choices=(0, 1, 2),
                    n_min=2, zero_rhs=False):
    """Small dense instance with m independent, feasible constraint rows.

    Penalty weights are attached on every third seed so weighted handling
    stays exercised throughout the suite. zero_rhs replaces the drawn
    right-hand side by zeros.
    """
    rng = np.random.default_rng(5000 + seed)
    N = int(rng.integers(n_min, n_max + 1))
    T = int(rng.integers(2, t_max + 1))
    m = int(rng.choice([c for c in m_choices if c <= N - 1] or [0]))
    R = rng.standard_normal((T, N))
    y = rng.standard_normal(T)
    weights = None
    if seed % 3 == 0:
        weights = rng.uniform(0.5, 2.0, size=N)
    problem = PenalizedProblem(design=R, target=y, penalty_weights=weights)
    if m == 0:
        constraints = no_constraints(N)
    else:
        while True:
            A = rng.standard_normal((m, N))
            sv = np.linalg.svd(A, compute_uv=False)
            if sv[-1] > 1e-6 * sv[0]:
                break
        a = A @ rng.standard_normal(N)
        if zero_rhs:
            a = np.zeros(m)
        constraints = AffineConstraints(matrix=A, rhs=a)
    return problem, constraints


def lars_start_tau(problem):
    """2 max_i |(R^T y)_i / s_i|, the smallest tau at which zero weights
    are optimal without constraints, computed from the problem's data."""
    c = (problem.design / problem.penalty_weights).T @ problem.target
    return 2.0 * float(np.abs(c).max())


def recomputed_residual(problem, bp, constraints=None):
    """b = (R^T (y - R w) + A^T lam) / s from the problem data, the
    breakpoint's weights and multipliers, and the constraint rows, which a
    breakpoint with multipliers must be given."""
    R = problem.design
    b = R.T @ (problem.target - R @ bp.weights)
    if constraints is None:
        assert not len(bp.multipliers), "pass the constraint rows"
    else:
        b = b + constraints.matrix.T @ bp.multipliers
    return b / problem.penalty_weights


def certificate_violation(problem, bp, constraints=None):
    """Worst stationarity violation at a breakpoint, active or not.

    The residual is recomputed from the data (`recomputed_residual`), so
    the check never rests on the residual the engine reports.
    """
    b = recomputed_residual(problem, bp, constraints)
    half = bp.tau / 2.0
    on = max((abs(abs(b[i]) - half) for i in bp.active_set), default=0.0)
    off = [i for i in range(problem.n_assets) if i not in bp.active_set]
    off_v = max((abs(b[i]) - half for i in off), default=0.0)
    return max(on, off_v, 0.0)


def markowitz_instance(seed):
    """Random return panel plus budget/return rows with attainable target.

    The target return sits strictly inside [min mean, max mean], so the
    all-nonnegative large-tau limit exists.
    """
    rng = np.random.default_rng(1000 + seed)
    N = int(rng.integers(3, 7))
    T = int(rng.integers(N + 1, 12))
    R = 0.05 * rng.standard_normal((T, N)) + 0.01
    mu = R.mean(axis=0)
    lo, hi = float(mu.min()), float(mu.max())
    rho = lo + 0.35 * (hi - lo)
    problem = PenalizedProblem(design=R, target=np.full(T, rho))
    A = np.vstack([mu, np.ones(N)])
    constraints = AffineConstraints(matrix=A, rhs=np.array([rho, 1.0]))
    return problem, constraints


def factor_panel(seed, n_assets, n_months):
    """(n_months, n_assets) returns of a seeded 3-factor model.

    returns = 0.12 + f B^T + 0.2 eps with factor volatilities
    (0.16, 0.10, 0.08) and loadings B = 1 + 0.3 N(0, 1), drawn in the order
    f, B, eps; months run from 1970-07.
    """
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((n_months, 3)) * np.array([0.16, 0.10, 0.08])
    loadings = 1.0 + 0.3 * rng.standard_normal((n_assets, 3))
    eps = rng.standard_normal((n_months, n_assets))
    return 0.12 + f @ loadings.T + 0.2 * eps


def degenerate_1979_panel(seed=13):
    """Three assets over 1976-07..1980-06 that differ only in the first year.

    With 24-month training windows, 1978 trains on distinct column means and
    1979 on equal ones, so the 1979 build raises DegeneratePanel.
    """
    rng = np.random.default_rng(seed)
    r = np.repeat(0.05 * rng.standard_normal((48, 1)) + 0.01, 3, axis=1)
    r[:12] += 0.05 * rng.standard_normal((12, 3))
    return ReturnPanel(returns=r,
                       dates=tuple(add_months((1976, 7), k) for k in range(48)),
                       asset_names=("A0", "A1", "A2"))


def unconstrained_instance(seed, weighted=False):
    rng = np.random.default_rng(8800 + seed)
    N = int(rng.integers(2, 7))
    T = int(rng.integers(2, 12))
    R = rng.standard_normal((T, N))
    y = rng.standard_normal(T)
    weights = rng.uniform(0.5, 2.0, size=N) if weighted else None
    return PenalizedProblem(design=R, target=y, penalty_weights=weights)


def _discover(env_name, patterns):
    override = os.environ.get(env_name)
    if override:
        p = Path(override)
        return p if p.exists() else None
    data_dir = Path(__file__).resolve().parents[1] / "data"
    for pattern in patterns:
        hits = sorted(data_dir.glob(pattern))
        if hits:
            return hits[0]
    return None


@pytest.fixture(scope="session")
def ff48_file():
    return _discover(
        "FF48_FILE",
        ["*48*Industry*", "*48_Industry*", "*48*industry*", "*ff48*", "*FF48*"],
    )


@pytest.fixture(scope="session")
def ff100_file():
    return _discover(
        "FF100_FILE",
        ["*100*Portfolios*", "*100_Portfolios*", "*100*ME*", "*ff100*", "*FF100*"],
    )
