"""Monthly return panels: ingestion, windows and the canonical CSV form.

Reads the Fama-French monthly text layout (header preamble, rows of
"YYYYMM v1 ... vN" in percent, sentinel -99.99 for missing values, trailing
annual/count blocks) into an immutable ReturnPanel, and converts units once
at the boundary: percent -> decimal and x12 simple annualization, so a row
"197607 1.00 2.00" becomes (0.12, 0.24). Everything downstream consumes the
canonical CSV form (header "date,<names>", ISO YYYY-MM dates, decimal
annualized returns) and never sees the raw layout again.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyFile,
    InputError,
    MalformedRow,
    WindowOutOfRange,
    WrongColumnCount,
)

__all__ = [
    "ReturnPanel",
    "parse_ff_file",
    "window",
    "panel_to_csv",
    "panel_from_csv",
    "month_index",
    "add_months",
]

log = logging.getLogger(__name__)

SENTINEL = -99.99  # Fama-French missing-value marker, bit-exact in the files
ANNUALIZER = 12.0  # simple annualization of monthly returns


def month_index(date: tuple) -> int:
    """Months since year 0 for an ordered (year, month) comparison."""
    y, m = date
    return int(y) * 12 + int(m) - 1


def add_months(date: tuple, k: int) -> tuple:
    idx = month_index(date) + k
    return (idx // 12, idx % 12 + 1)


def _check_date(date, where: str) -> tuple:
    try:
        y, m = date
        y, m = int(y), int(m)
    except (TypeError, ValueError):
        raise InputError(f"{where}: month label must be a (year, month) pair")
    if not 1 <= m <= 12:
        raise InputError(f"{where}: month {m} outside 1..12")
    return (y, m)


@dataclass(frozen=True, eq=False)
class ReturnPanel:
    """T x N matrix of decimal annualized per-period returns with labels.

    dates are (year, month) pairs, strictly increasing; a hole in the month
    sequence (possible after sentinel rows were dropped) is tolerated with a
    warning, and window() refuses to span it. asset_names are unique and
    comma-free so the canonical CSV stays unambiguous.
    """

    returns: np.ndarray
    dates: tuple
    asset_names: tuple

    def __post_init__(self):
        r = np.asarray(self.returns, dtype=float)
        if r.ndim != 2:
            raise InputError(f"returns must be 2-d, got shape {r.shape}")
        if not np.all(np.isfinite(r)):
            raise InputError("returns contain non-finite entries")
        T, N = r.shape
        if T < 2:
            raise InputError(f"panel needs at least 2 periods, got {T}")
        if N < 1:
            raise InputError("panel needs at least 1 asset")
        dates = tuple(_check_date(d, "dates") for d in self.dates)
        if len(dates) != T:
            raise InputError(f"{len(dates)} date labels for {T} rows")
        names = tuple(str(n) for n in self.asset_names)
        if len(names) != N:
            raise InputError(f"{len(names)} asset names for {N} columns")
        if len(set(names)) != N:
            raise InputError("asset names must be unique")
        for n in names:
            if "," in n or "\n" in n or n == "":
                raise InputError(f"asset name {n!r} is not CSV-safe")
        idx = [month_index(d) for d in dates]
        for k in range(1, T):
            if idx[k] <= idx[k - 1]:
                raise InputError("dates must be strictly increasing")
            if idx[k] != idx[k - 1] + 1:
                log.warning(
                    "panel has a gap between %04d-%02d and %04d-%02d",
                    dates[k - 1][0], dates[k - 1][1], dates[k][0], dates[k][1],
                )
        object.__setattr__(self, "returns", r)
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "asset_names", names)

    @property
    def n_periods(self) -> int:
        return self.returns.shape[0]

    @property
    def n_assets(self) -> int:
        return self.returns.shape[1]


def _is_yyyymm(tok: str) -> bool:
    return len(tok) == 6 and tok.isdigit() and 1 <= int(tok[4:6]) <= 12


def _header_names(header_line, n: int) -> tuple:
    # n tokens: names as given; 2n tokens: two-word names joined pairwise;
    # anything else: synthetic labels
    if header_line is not None:
        toks = header_line.split()
        if len(toks) == n:
            return tuple(toks)
        if len(toks) == 2 * n:
            return tuple(f"{a}_{b}" for a, b in zip(toks[0::2], toks[1::2]))
    width = max(2, len(str(n)))
    return tuple(f"A{k + 1:0{width}d}" for k in range(n))


def parse_ff_file(raw, expected_assets: int | None = None) -> ReturnPanel:
    """Parse the first monthly block of a Fama-French layout file.

    raw may be a text string or a file-like object. Values are percent
    monthly returns; the output panel holds decimal annualized returns
    (value * 12 / 100). A month containing the -99.99 sentinel in any
    column is dropped entirely, with a logged warning. Every data row must
    hold expected_assets values; None takes the count from the first data
    row.

    Raises:
        MalformedRow: non-numeric token inside a data row.
        WrongColumnCount: data row with the wrong number of values.
        EmptyFile: no monthly data rows found.
    """
    if expected_assets is not None:
        expected_assets = int(expected_assets)
        if expected_assets < 1:
            raise InputError("expected_assets must be positive")
    text = raw.read() if hasattr(raw, "read") else str(raw)

    rows, dates = [], []
    header_line = None
    prev_nonempty = None
    started = False
    for line in text.splitlines():
        stripped = line.strip()
        toks = stripped.split()
        if not started:
            if toks and _is_yyyymm(toks[0]):
                started = True
                header_line = prev_nonempty
            else:
                if stripped:
                    prev_nonempty = stripped
                continue
        elif not toks or not _is_yyyymm(toks[0]):
            break  # first monthly block ends at a blank line or a new banner
        date = (int(toks[0][:4]), int(toks[0][4:6]))
        values = toks[1:]
        if expected_assets is None:
            expected_assets = len(values)
        if len(values) != expected_assets:
            raise WrongColumnCount(
                f"row {toks[0]}: {len(values)} values, expected {expected_assets}"
            )
        try:
            vals = [float(v) for v in values]
        except ValueError:
            raise MalformedRow(f"row {toks[0]}: non-numeric token")
        if any(v == SENTINEL for v in vals):
            log.warning("dropping month %s: missing-value sentinel present", toks[0])
            continue
        dates.append(date)
        rows.append([v * ANNUALIZER / 100.0 for v in vals])

    if not rows:
        raise EmptyFile("no monthly data rows found")
    names = _header_names(header_line, expected_assets)
    return ReturnPanel(
        returns=np.array(rows, dtype=float), dates=tuple(dates), asset_names=names
    )


def window(panel: ReturnPanel, start: tuple, length_months: int) -> ReturnPanel:
    """Contiguous sub-panel of exactly length_months rows beginning at start.

    Raises:
        WindowOutOfRange: start absent from the panel, window running past
            the end, or a date gap inside the requested span.
    """
    start = _check_date(start, "window start")
    length_months = int(length_months)
    if length_months < 2:
        raise InputError("window length must be at least 2 months")
    try:
        lo = panel.dates.index(start)
    except ValueError:
        raise WindowOutOfRange(
            f"month {start[0]:04d}-{start[1]:02d} is not in the panel"
        )
    hi = lo + length_months
    if hi > panel.n_periods:
        raise WindowOutOfRange(
            f"window of {length_months} months from "
            f"{start[0]:04d}-{start[1]:02d} runs past the panel end"
        )
    span = panel.dates[lo:hi]
    if month_index(span[-1]) - month_index(span[0]) != length_months - 1:
        raise WindowOutOfRange("requested window spans a gap in the panel")
    return ReturnPanel(
        returns=panel.returns[lo:hi],
        dates=span,
        asset_names=panel.asset_names,
    )


def panel_to_csv(panel: ReturnPanel) -> str:
    """Canonical CSV text: header "date,<names>", YYYY-MM dates, repr floats."""
    lines = ["date," + ",".join(panel.asset_names)]
    for date, row in zip(panel.dates, panel.returns):
        lines.append(
            f"{date[0]:04d}-{date[1]:02d}," + ",".join(repr(float(v)) for v in row)
        )
    return "\n".join(lines) + "\n"


def panel_from_csv(raw) -> ReturnPanel:
    """Parse the canonical CSV form back into a panel (round-trip inverse)."""
    text = raw.read() if hasattr(raw, "read") else str(raw)
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise EmptyFile("no CSV content")
    header = lines[0].split(",")
    if len(header) < 2 or header[0] != "date":
        raise InputError("canonical CSV must start with a 'date,<names>' header")
    names = tuple(header[1:])
    dates, rows = [], []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(header):
            raise WrongColumnCount(
                f"row {cells[0]!r}: {len(cells) - 1} values, expected {len(names)}"
            )
        try:
            y, m = cells[0].split("-")
            dates.append((int(y), int(m)))
            rows.append([float(v) for v in cells[1:]])
        except ValueError:
            raise MalformedRow(f"row {cells[0]!r}: malformed date or value")
    if not rows:
        raise EmptyFile("header only, no data rows")
    return ReturnPanel(
        returns=np.array(rows, dtype=float), dates=tuple(dates), asset_names=names
    )
