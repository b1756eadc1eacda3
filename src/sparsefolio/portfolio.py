"""Markowitz-form problem assembly and portfolio selection policies.

The mean-variance problem with target return rho over a training panel R is
posed as penalized least squares on the regression form

    min_w ||rho 1_T - R w||^2 + tau ||w||_1   s.t.  mu^T w = rho, 1^T w = 1

and portfolios are read off the solution path by one of three policies: the
path start (no short positions), the first breakpoint with exactly K active
assets, or the best breakpoint within a cardinality bin. The weighted-l1
variants of the same machinery cover index tracking, scenario hedging, and
adjustment of an existing portfolio.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    CardinalityUnreachable,
    CurrentPortfolioInvalid,
    DegeneratePanel,
    EmptyBin,
    InfeasibleConstraints,
    InputError,
    LengthMismatch,
    NotNonnegativeStart,
)
from .market_data import ReturnPanel
from .path_constrained import AffineConstraints, _breakpoints
from .path_unconstrained import PenalizedProblem, SolutionPath

__all__ = [
    "Policy",
    "MarkowitzSpec",
    "PortfolioSelection",
    "HedgingScenario",
    "build_markowitz_problem",
    "solve_portfolio_path",
    "select_no_short",
    "select_exact_k",
    "select_binned",
    "build_tracking_problem",
    "build_hedging_problem",
    "build_adjustment_problem",
]

# paths for wide universes stop once this many assets are active; below the
# cap the path runs to tau = 0
ACTIVE_CAP = 60


@dataclass(frozen=True)
class Policy:
    """How a portfolio is read off a solution path.

    kind is one of "no-short", "exact-k", "binned"; k applies to exact-k,
    (k_min, k_max) to binned.
    """

    kind: str
    k: int | None = None
    k_min: int | None = None
    k_max: int | None = None

    def __post_init__(self):
        if self.kind == "no-short":
            pass
        elif self.kind == "exact-k":
            if self.k is None or int(self.k) < 1:
                raise InputError("exact-k policy needs a positive k")
        elif self.kind == "binned":
            if self.k_min is None or self.k_max is None:
                raise InputError("binned policy needs k_min and k_max")
            if int(self.k_min) > int(self.k_max):
                raise InputError("binned policy needs k_min <= k_max")
        else:
            raise InputError(f"unknown policy kind {self.kind!r}")

    @staticmethod
    def no_short() -> "Policy":
        return Policy(kind="no-short")

    @staticmethod
    def exact_k(k: int) -> "Policy":
        return Policy(kind="exact-k", k=int(k))

    @staticmethod
    def binned(k_min: int, k_max: int) -> "Policy":
        return Policy(kind="binned", k_min=int(k_min), k_max=int(k_max))

    @property
    def label(self) -> str:
        if self.kind == "exact-k":
            return f"exact-{self.k}"
        if self.kind == "binned":
            return f"bin-{self.k_min}-{self.k_max}"
        return "no-short"


@dataclass(frozen=True, eq=False)
class MarkowitzSpec:
    """Target return plus the training data that prices it.

    target_return is in the same per-period units as the panel. A target
    outside the span of the column means is only warned about: the equality
    constraints can remain feasible through short positions.
    """

    target_return: float
    training_panel: ReturnPanel
    penalty_weights: np.ndarray | None = None

    def __post_init__(self):
        rho = float(self.target_return)
        if not np.isfinite(rho):
            raise InputError("target_return must be finite")
        object.__setattr__(self, "target_return", rho)
        mu = self.training_panel.returns.mean(axis=0)
        if rho < mu.min() or rho > mu.max():
            warnings.warn(
                f"target return {rho:.6g} lies outside the span of asset "
                f"means [{mu.min():.6g}, {mu.max():.6g}]; the portfolio must "
                "short to reach it",
                stacklevel=2,
            )


@dataclass(frozen=True, eq=False)
class PortfolioSelection:
    """A chosen weight vector plus the policy that produced it.

    active_count counts exactly-nonzero weights; objective_value is the
    unpenalized data misfit ||y - R w||^2 at the selection.
    """

    weights: np.ndarray
    tau: float
    policy: Policy
    active_count: int
    objective_value: float


@dataclass(frozen=True, eq=False)
class HedgingScenario:
    """Scenario table for hedging an existing position.

    pnl_existing holds the change in value of the current portfolio per
    scenario, pnl_unit the change per unit of each tradable security,
    probabilities the scenario weights (positive, unit sum), spreads the
    transaction costs per security.
    """

    pnl_existing: np.ndarray
    pnl_unit: np.ndarray
    probabilities: np.ndarray
    spreads: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.pnl_existing, dtype=float).reshape(-1)
        X = np.asarray(self.pnl_unit, dtype=float)
        p = np.asarray(self.probabilities, dtype=float).reshape(-1)
        s = np.asarray(self.spreads, dtype=float).reshape(-1)
        if X.ndim != 2:
            raise InputError("pnl_unit must be an M x N matrix")
        M, N = X.shape
        if y.shape[0] != M:
            raise InputError("pnl_existing length does not match scenario count")
        if p.shape[0] != M:
            raise InputError("probabilities length does not match scenario count")
        if s.shape[0] != N:
            raise InputError("spreads length does not match security count")
        if np.any(p <= 0.0):
            raise InputError("probabilities must be strictly positive")
        if abs(float(p.sum()) - 1.0) > 1e-12:
            raise InputError("probabilities must sum to 1")
        if np.any(s <= 0.0):
            raise InputError("spreads must be strictly positive")
        for name, arr in (("pnl_existing", y), ("pnl_unit", X)):
            if not np.all(np.isfinite(arr)):
                raise InputError(f"{name} contains non-finite entries")
        object.__setattr__(self, "pnl_existing", y)
        object.__setattr__(self, "pnl_unit", X)
        object.__setattr__(self, "probabilities", p)
        object.__setattr__(self, "spreads", s)


def _markowitz_constraints(mu: np.ndarray, rhs_return: float,
                           rhs_sum: float) -> AffineConstraints:
    # shared by construction and adjustment; rejects collapsed rows
    N = mu.shape[0]
    if N == 1:
        # the budget row already pins the single weight; the return row is
        # the same 1-d direction and must agree with what it implies
        implied = float(mu[0]) * rhs_sum
        if abs(implied - rhs_return) > 1e-10 * max(1.0, abs(float(mu[0]))):
            raise InfeasibleConstraints(
                "single-asset panel cannot reach the requested target return"
            )
        return AffineConstraints(matrix=np.ones((1, 1)), rhs=np.array([rhs_sum]))
    spread = float(mu.max() - mu.min())
    if spread <= 1e-12 * max(1.0, float(np.max(np.abs(mu)))):
        raise DegeneratePanel(
            "all column means are numerically equal; the return and budget "
            "constraint rows collapse"
        )
    try:
        return AffineConstraints(
            matrix=np.vstack([mu, np.ones(N)]),
            rhs=np.array([rhs_return, rhs_sum]),
        )
    except InputError as exc:
        raise DegeneratePanel(str(exc)) from exc


def build_markowitz_problem(spec: MarkowitzSpec):
    """Regression form of the mean-variance problem.

    Returns (PenalizedProblem, AffineConstraints) with design = panel
    returns, target = rho * 1_T, and constraint rows (mu^T, rho) and
    (1^T, 1), mu being the per-column sample mean of the training panel.

    Raises:
        DegeneratePanel: the two constraint rows are (numerically) dependent,
            e.g. identical assets.
    """
    panel = spec.training_panel
    mu = panel.returns.mean(axis=0)
    rho = spec.target_return
    constraints = _markowitz_constraints(mu, rho, 1.0)
    problem = PenalizedProblem(
        design=panel.returns,
        target=np.full(panel.n_periods, rho),
        penalty_weights=spec.penalty_weights,
    )
    return problem, constraints


def solve_portfolio_path(problem: PenalizedProblem,
                         constraints: AffineConstraints) -> SolutionPath:
    """Constrained path with the wide-universe stopping rule.

    For N <= ACTIVE_CAP the path runs down to the problem's tau_stop; above
    that it ends early once ACTIVE_CAP assets are active, since denser
    portfolios are never selected and only overfit. The whole path is
    solved here, so a failure anywhere on it raises here.
    """
    return SolutionPath(_portfolio_path(problem, constraints).breakpoints)


def _portfolio_path(problem, constraints) -> SolutionPath:
    """solve_portfolio_path's path, filled on demand: nothing is solved
    until a reader pulls it."""
    cap = None if problem.n_assets <= ACTIVE_CAP else ACTIVE_CAP
    return SolutionPath(_breakpoints(problem, constraints, cap))


def _selection(problem: PenalizedProblem, weights: np.ndarray, tau: float,
               policy: Policy) -> PortfolioSelection:
    resid = problem.target - problem.design @ weights
    return PortfolioSelection(
        weights=weights,
        tau=float(tau),
        policy=policy,
        active_count=int(np.count_nonzero(weights)),
        objective_value=float(resid @ resid),
    )


def select_no_short(path: SolutionPath,
                    problem: PenalizedProblem) -> PortfolioSelection:
    """The path-start portfolio, which carries no short positions.

    The start is the minimizer for every tau at or above the first
    breakpoint; on Markowitz constraints it coincides with the
    nonnegativity-constrained optimum. Only the START breakpoint is read,
    so a path filled on demand is solved no further. A start with a weight
    below -1e-10 (relative) indicates an internal solver inconsistency and
    is fatal.

    Raises:
        NotNonnegativeStart: the path start has a materially negative weight.
    """
    bp = next(iter(path))
    w = np.asarray(bp.weights, dtype=float)
    scale = max(1.0, float(np.max(np.abs(w), initial=0.0)))
    if float(w.min(initial=0.0)) < -1e-10 * scale:
        raise NotNonnegativeStart(
            f"path start has negative weight {float(w.min()):.3e}"
        )
    w = np.maximum(w, 0.0)  # snaps -0.0 and sub-tolerance crumbs only
    return _selection(problem, w, bp.tau, Policy.no_short())


def select_exact_k(path: SolutionPath, problem: PenalizedProblem,
                   k: int) -> PortfolioSelection:
    """Weights at the first (largest-tau) breakpoint with exactly k assets.

    Breakpoints are read in path order and the reading stops at the first
    hit, so if the support count is non-monotone the largest-tau attainment
    wins, and a path filled on demand is solved only that far; an error
    the path raises before the hit is raised here.

    Raises:
        CardinalityUnreachable: no breakpoint has exactly k nonzero weights.
    """
    k = int(k)
    for bp in path:
        if np.count_nonzero(bp.weights) == k:
            return _selection(problem, np.asarray(bp.weights, dtype=float),
                              bp.tau, Policy.exact_k(k))
    raise CardinalityUnreachable(
        f"no breakpoint on the path holds exactly {k} assets"
    )


def select_binned(path: SolutionPath, problem: PenalizedProblem,
                  k_min: int, k_max: int) -> PortfolioSelection:
    """Best breakpoint whose active count falls in [k_min, k_max].

    Best means smallest unpenalized objective ||y - Rw||^2; ties (at 1e-12
    relative) are broken by smaller l1 norm, then by larger tau.

    Raises:
        EmptyBin: no breakpoint falls in the requested range.
    """
    k_min, k_max = int(k_min), int(k_max)
    if k_min > k_max:
        raise InputError("k_min must not exceed k_max")
    best = None  # (objective, l1, tau, weights)
    for bp in path.breakpoints:
        w = np.asarray(bp.weights, dtype=float)
        if not k_min <= int(np.count_nonzero(w)) <= k_max:
            continue
        resid = problem.target - problem.design @ w
        obj = float(resid @ resid)
        l1 = float(np.sum(np.abs(w)))
        if best is None:
            best = (obj, l1, bp.tau, w)
            continue
        tol_obj = 1e-12 * max(1.0, abs(best[0]))
        if obj < best[0] - tol_obj:
            best = (obj, l1, bp.tau, w)
        elif obj <= best[0] + tol_obj:
            tol_l1 = 1e-12 * max(1.0, best[1])
            if l1 < best[1] - tol_l1:
                best = (obj, l1, bp.tau, w)
            # an l1 tie keeps the incumbent, which has the larger tau
    if best is None:
        raise EmptyBin(f"no breakpoint with {k_min}..{k_max} active assets")
    return _selection(problem, best[3], best[2], Policy.binned(k_min, k_max))


def build_tracking_problem(index_returns, panel: ReturnPanel,
                           spreads) -> PenalizedProblem:
    """Weighted-l1 regression of an index series on the asset panel.

    Raises:
        LengthMismatch: index series length differs from the panel's period
            count.
    """
    y = np.asarray(index_returns, dtype=float).reshape(-1)
    if y.shape[0] != panel.n_periods:
        raise LengthMismatch(
            f"index series has {y.shape[0]} months, panel has {panel.n_periods}"
        )
    return PenalizedProblem(
        design=panel.returns, target=y, penalty_weights=spreads
    )


def build_hedging_problem(scenario: HedgingScenario) -> PenalizedProblem:
    """Probability-weighted scenario regression hedging an existing book.

    With P = diag(sqrt(p)) the objective ||P(y + Xw)||^2 becomes a plain
    least-squares misfit with design PX and target -Py; spreads enter as
    the penalty weights.
    """
    root_p = np.sqrt(scenario.probabilities)
    return PenalizedProblem(
        design=scenario.pnl_unit * root_p[:, None],
        target=-root_p * scenario.pnl_existing,
        penalty_weights=scenario.spreads,
    )


def build_adjustment_problem(current, spec: MarkowitzSpec):
    """Rebalancing problem in the adjustment variable dw.

    The final holdings are current + dw; only the adjustment pays
    transaction costs, so the penalty acts on dw while the constraints
    mu^T dw = 0 and 1^T dw = 0 keep the original return and budget rows
    intact.

    Raises:
        CurrentPortfolioInvalid: current holdings do not sum to one.
    """
    panel = spec.training_panel
    w = np.asarray(current, dtype=float).reshape(-1)
    if w.shape[0] != panel.n_assets:
        raise InputError(
            f"current has {w.shape[0]} weights, panel has {panel.n_assets} assets"
        )
    if abs(float(w.sum()) - 1.0) > 1e-10:
        raise CurrentPortfolioInvalid(
            f"current holdings sum to {float(w.sum()):.12g}, expected 1"
        )
    mu = panel.returns.mean(axis=0)
    constraints = _markowitz_constraints(mu, 0.0, 0.0)
    target = np.full(panel.n_periods, spec.target_return) - panel.returns @ w
    problem = PenalizedProblem(
        design=panel.returns,
        target=target,
        penalty_weights=spec.penalty_weights,
    )
    return problem, constraints
