"""Types of the l1-penalized least-squares path, and reading it at any tau.

The problem is

    min_w ||R w - y||^2 + tau * sum_i s_i |w_i|   s.t.  A w = a

and its minimizer and Lagrange multipliers are piecewise linear in tau.
This module holds the problem (`PenalizedProblem`), the path and its one
breakpoint type (`SolutionPath`, `PathBreakpoint`, `Event`), and the
interpolation (`eval_at`, `multipliers_at`). A path without constraints is
the m = 0 case: its breakpoints carry length-0 multipliers. Paths are
computed by the one continuation engine in `path_constrained`.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, SolverError, TauBelowStop

__all__ = [
    "PenalizedProblem",
    "PathBreakpoint",
    "Event",
    "SolutionPath",
    "eval_at",
    "multipliers_at",
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

    Attributes:
        tau: penalty level of the breakpoint.
        weights: minimizer at tau, with exact zeros off the active set.
        generalized_residual: b = R^T(y - R w) + A^T lam of the
            penalty-rescaled problem, which sits at +-tau/2 on the active set
            and within [-tau/2, tau/2] elsewhere. The engine carries it
            along the path by its velocity, so it equals that formula up to
            rounding.
        active_set: the sorted working set J: the boundary indices, which
            include a just-entered index whose weight is still zero here.
        event: what happened at this breakpoint (START/ENTER/LEAVE/STOP).
        multipliers: the m Lagrange multipliers of A w = a at tau; length 0
            on a path without constraints.
    """

    tau: float
    weights: np.ndarray
    generalized_residual: np.ndarray
    active_set: tuple[int, ...]
    event: Event
    multipliers: np.ndarray = field(default_factory=lambda: np.zeros(0))


class SolutionPath:
    """Ordered breakpoints with strictly decreasing tau, START first.

    Built from a sequence of breakpoints, or from an iterator of them (the
    engine's generator), which the path then pulls on demand: iterating the
    path pulls breakpoints only as far as the loop goes, and `breakpoints`
    solves the rest. An error the iterator raised is raised again, the
    same exception, by every later read past the last breakpoint it
    yielded, so a path whose solve failed never passes for a complete one.
    `eval_at` and `multipliers_at` read the whole path.
    """

    def __init__(self, breakpoints):
        if iter(breakpoints) is breakpoints:
            self._read, self._source = [], breakpoints
        else:
            self._read, self._source = tuple(breakpoints), None
        self._error = None

    def _pull(self) -> bool:
        """Read one more breakpoint; False once the path is complete."""
        if self._error is not None:
            raise self._error
        if self._source is None:
            return False
        try:
            self._read.append(next(self._source))
        except StopIteration:
            self._read, self._source = tuple(self._read), None
            return False
        except BaseException as exc:
            # the iterator is finished either way; keep what ended it
            self._error = exc
            raise
        return True

    def __iter__(self):
        i = 0
        while i < len(self._read) or self._pull():
            yield self._read[i]
            i += 1

    @property
    def breakpoints(self) -> tuple:
        """Every breakpoint, solving the rest of the path first."""
        while self._pull():
            pass
        return self._read

    def eval_at(self, tau: float) -> np.ndarray:
        return eval_at(self, tau)


def _interpolate(path: SolutionPath, tau: float):
    """(weights, multipliers) at tau; the contract is eval_at's."""
    bps = path.breakpoints
    if not bps:
        raise SolverError("path has no breakpoints")
    taus = np.array([bp.tau for bp in bps], dtype=float)
    if tau < taus[-1] - ZERO_TIE_REL * max(1.0, taus[0]):
        raise TauBelowStop(f"tau = {tau} lies below the path end {taus[-1]}")
    # first breakpoint at or below tau; the taus decrease
    i = min(int(np.searchsorted(-taus, -tau)), len(bps) - 1)
    lo = bps[i]
    if i == 0 or tau <= lo.tau:
        return lo.weights.copy(), lo.multipliers.copy()
    hi = bps[i - 1]
    t = (hi.tau - tau) / (hi.tau - lo.tau)
    return (hi.weights + t * (lo.weights - hi.weights),
            hi.multipliers + t * (lo.multipliers - hi.multipliers))


def eval_at(path: SolutionPath, tau: float) -> np.ndarray:
    """Minimizer weights at any tau on or above the path.

    At or above the first breakpoint returns the start; at a breakpoint's
    tau its stored weights, exactly; between breakpoints interpolates
    linearly. Below the end by more than the tie slack raises TauBelowStop
    (within it, returns the end); a path with no breakpoints raises
    SolverError.
    """
    return _interpolate(path, tau)[0]


def multipliers_at(path: SolutionPath, tau: float) -> np.ndarray:
    """Multipliers at any tau on or above the path, read as eval_at reads weights.

    Above the START they are the START's multipliers, which certify the
    weights only at the START's tau: the multipliers that keep the start
    optimal grow with tau. On eye(2) with y = (3, 1) under w_1 + w_2 = 1,
    START sits at tau = 1 and its multiplier gives b = (0.5, -0.5) at
    tau = 50, where +-25 is needed. For certified multipliers at a tau above
    the START, solve the path with that tau as tau_stop.
    """
    return _interpolate(path, tau)[1]
