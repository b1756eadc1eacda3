"""Exception taxonomy.

Two bases: InputError for malformed or inconsistent inputs (CLI exit code 2)
and SolverError for failures inside the numerical machinery (CLI exit code 3).
"""
from __future__ import annotations


class SparsefolioError(Exception):
    """Base class for all package errors."""


class InputError(SparsefolioError):
    """Bad or inconsistent input data (CLI exit code 2)."""


class SolverError(SparsefolioError):
    """Failure while solving or evaluating (CLI exit code 3)."""


# --- path solvers ---

class SingularActiveSystem(SolverError):
    """The active linear system is numerically singular or inconsistent."""


class TauBelowStop(SolverError):
    """Requested tau lies below the path's tau_stop."""


class InfeasibleConstraints(SolverError):
    """The affine system Aw = a has no solution."""


# --- portfolio engine ---

class DegeneratePanel(InputError):
    """Constraint rows collapse (all column means equal)."""


class NotNonnegativeStart(SolverError):
    """Path start violates nonnegativity; internal consistency failure."""


class CardinalityUnreachable(SolverError):
    """No breakpoint attains the requested active count."""


class EmptyBin(SolverError):
    """No breakpoint falls in the requested cardinality bin."""


class LengthMismatch(InputError):
    """Series length does not match the panel's period count."""


class CurrentPortfolioInvalid(InputError):
    """Current holdings do not sum to one."""


# --- market data ---

class MalformedRow(InputError):
    """Non-numeric token in a data row."""


class WrongColumnCount(InputError):
    """Data row has an unexpected number of columns."""


class EmptyFile(InputError):
    """No parseable data rows found."""


class WindowOutOfRange(InputError):
    """Requested window does not lie inside the panel."""


# --- backtest ---

class ZeroVolatility(SolverError):
    """Standard deviation is zero; Sharpe ratio undefined."""
