"""Types of the l1-penalized least-squares path, with no constraints.

The problem is

    min_w ||R w - y||^2 + tau * sum_i s_i |w_i|

and its minimizer is piecewise linear in tau. This module holds the problem
(`PenalizedProblem`), the path and its breakpoints (`SolutionPath`,
`PathBreakpoint`, `Event`), the start level `initial_tau` and the
interpolation `eval_at`. The path itself is computed by the one
continuation engine in `path_constrained`, whose `solve_path` runs it with
no constraint rows.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import InputError, TauBelowStop

__all__ = [
    "PenalizedProblem",
    "PathBreakpoint",
    "Event",
    "SolutionPath",
    "initial_tau",
    "eval_at",
]

ZERO_TIE_REL = 1e-12  # zero/tie tolerance, relative to max|R^T y|


def _as_matrix(x, name: str) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.ndim != 2:
        raise InputError(f"{name} must be a 2-d array, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InputError(f"{name} contains non-finite entries")
    return a


def _as_vector(x, name: str) -> np.ndarray:
    a = np.asarray(x, dtype=float).reshape(-1)
    if not np.all(np.isfinite(a)):
        raise InputError(f"{name} contains non-finite entries")
    return a


@dataclass(frozen=True, eq=False)
class PenalizedProblem:
    """An l1-penalized least-squares instance.

    Parameters
    ----------
    design : (T, N) array
        Observation matrix R; rows are periods/observations.
    target : (T,) array
        Right-hand side y.
    penalty_weights : (N,) array, optional
        Strictly positive per-component penalty weights s_i. All ones gives
        the plain l1 penalty.
    tau_stop : float, optional
        The path is computed for tau >= tau_stop. Defaults to 0.
    """

    design: np.ndarray
    target: np.ndarray
    penalty_weights: np.ndarray = None  # type: ignore[assignment]
    tau_stop: float = 0.0

    def __post_init__(self):
        design = _as_matrix(self.design, "design")
        target = _as_vector(self.target, "target")
        T, N = design.shape
        if T < 1 or N < 1:
            raise InputError("design must have at least one row and one column")
        if target.shape[0] != T:
            raise InputError(
                f"target length {target.shape[0]} does not match design rows {T}"
            )
        if self.penalty_weights is None:
            weights = np.ones(N)
        else:
            weights = _as_vector(self.penalty_weights, "penalty_weights")
            if weights.shape[0] != N:
                raise InputError("penalty_weights length does not match design columns")
            if np.any(weights <= 0.0):
                raise InputError("penalty_weights must be strictly positive")
        col_norms = np.linalg.norm(design, axis=0)
        if np.any(col_norms == 0.0):
            dead = int(np.argmin(col_norms))
            raise InputError(f"design column {dead} is identically zero")
        tau_stop = float(self.tau_stop)
        if not np.isfinite(tau_stop) or tau_stop < 0.0:
            raise InputError("tau_stop must be a nonnegative real")
        object.__setattr__(self, "design", design)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "penalty_weights", weights)
        object.__setattr__(self, "tau_stop", tau_stop)

    @property
    def n_assets(self) -> int:
        return self.design.shape[1]

    @property
    def n_periods(self) -> int:
        return self.design.shape[0]

    def scaled_design(self) -> np.ndarray:
        """Design with column i divided by s_i (reduces to the plain penalty)."""
        return self.design / self.penalty_weights[np.newaxis, :]

    def fingerprint(self, extra: bytes = b"") -> str:
        h = hashlib.sha256()
        for a in (self.design, self.target, self.penalty_weights):
            h.update(np.ascontiguousarray(a, dtype=float).tobytes())
            h.update(repr(a.shape).encode())
        h.update(repr(self.tau_stop).encode())
        h.update(extra)
        return h.hexdigest()


@dataclass(frozen=True)
class Event:
    """What happened at a breakpoint.

    kind is one of START, ENTER, LEAVE, STOP; `entered`/`left` list the
    indices that joined or dropped out of the active set there (several at
    once on tie breakpoints).
    """

    kind: str
    entered: tuple[int, ...] = ()
    left: tuple[int, ...] = ()


@dataclass(frozen=True, eq=False)
class PathBreakpoint:
    """One breakpoint of the piecewise-linear path.

    `active_set` is the working set J: the boundary indices, which include a
    just-entered index whose weight is still exactly zero at this tau.
    Weights off J are stored as exact zeros. `residual_corr` is
    b = R^T(y - R w) on the penalty-rescaled design.
    """

    tau: float
    weights: np.ndarray
    residual_corr: np.ndarray
    active_set: tuple[int, ...]
    event: Event


@dataclass(frozen=True, eq=False)
class SolutionPath:
    """Ordered breakpoints with strictly decreasing tau."""

    breakpoints: tuple
    problem_fingerprint: str

    def eval_at(self, tau: float) -> np.ndarray:
        return eval_at(self, tau)


def initial_tau(problem: PenalizedProblem) -> float:
    """Smallest tau at which the zero vector is optimal.

    Returns 2 * max_i |(R^T y)_i / s_i|; the path weights vanish for every
    tau at or above this value.
    """
    c = problem.scaled_design().T @ problem.target
    return 2.0 * float(np.max(np.abs(c))) if c.size else 0.0


def eval_at(path: SolutionPath, tau: float) -> np.ndarray:
    """Minimizer weights at an arbitrary tau on (or above) the path.

    Above the first breakpoint returns the start weights; between
    breakpoints interpolates linearly; below the final breakpoint raises
    TauBelowStop.
    """
    bps = path.breakpoints
    taus = [b.tau for b in bps]
    slack = ZERO_TIE_REL * max(1.0, taus[0])
    if tau > taus[0]:
        return bps[0].weights.copy()
    if tau < taus[-1] - slack:
        raise TauBelowStop(f"tau = {tau} lies below the path end {taus[-1]}")
    tau = max(tau, taus[-1])
    for hi, lo in zip(bps, bps[1:]):
        if tau >= lo.tau:
            if tau >= hi.tau:
                return hi.weights.copy()
            if tau == lo.tau:
                return lo.weights.copy()
            t = (hi.tau - tau) / (hi.tau - lo.tau)
            return hi.weights + t * (lo.weights - hi.weights)
    return bps[-1].weights.copy()
