"""Rolling annual construction exercise with pooled out-of-sample statistics.

Each June in the configured range, a portfolio is built from the preceding
training window (five years by default), targeting the return the evenly
weighted portfolio achieved over that window, and held for the following
twelve months. The held portfolios' monthly returns are pooled into one
series per strategy and summarized per evaluation period as mean m, standard
deviation sigma, and Sharpe ratio m/sigma. The evenly weighted portfolio is
evaluated identically as the benchmark.

Returns stay in the panel's units (annualized decimals) throughout; the
percent figures in the CSV tables are produced at presentation time only.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, SolverError, ZeroVolatility
from .jsonio import format_float
from .market_data import ReturnPanel, add_months, month_index, window
from .portfolio import (
    MarkowitzSpec,
    Policy,
    PortfolioSelection,
    _portfolio_path,
    build_markowitz_problem,
    select_binned,
    select_exact_k,
    select_no_short,
)

__all__ = [
    "BacktestConfig",
    "MonthlySeries",
    "PerformanceStats",
    "BacktestReport",
    "run_exercise",
    "run_k_sweep",
    "k_sweep",
    "compute_stats",
    "default_evaluation_periods",
    "report_to_dict",
    "stats_table_csv",
    "active_counts_csv",
    "sharpe_vs_k_csv",
]

log = logging.getLogger(__name__)


def _fmt_month(date: tuple) -> str:
    return f"{date[0]:04d}-{date[1]:02d}"


@dataclass(frozen=True)
class BacktestConfig:
    """Parameters of the rolling exercise.

    Construction happens at the end of each June from first_construction to
    last_construction inclusive; training uses the training_months window
    ending at the construction month. The report is evaluated over
    default_evaluation_periods(config): the full holding span plus every
    complete 60-month break-out chunk.
    """

    first_construction: tuple = (1976, 6)
    last_construction: tuple = (2005, 6)
    training_months: int = 60
    policy: Policy = field(default_factory=Policy.no_short)

    def __post_init__(self):
        for name in ("first_construction", "last_construction"):
            y, m = getattr(self, name)
            if m != 6:
                raise InputError(f"{name} must be a June, got month {m}")
            object.__setattr__(self, name, (int(y), int(m)))
        if month_index(self.first_construction) > month_index(self.last_construction):
            raise InputError("first_construction is after last_construction")
        if int(self.training_months) < 2:
            raise InputError("training_months must be at least 2")
        object.__setattr__(self, "training_months", int(self.training_months))


def default_evaluation_periods(config: BacktestConfig) -> tuple:
    """Full holding span first, then each complete 60-month chunk."""
    start = add_months(config.first_construction, 1)
    end = add_months(config.last_construction, 12)
    total = month_index(end) - month_index(start) + 1
    periods = [(start, end)]
    k = 0
    while (k + 1) * 60 <= total:
        periods.append((add_months(start, 60 * k), add_months(start, 60 * k + 59)))
        k += 1
    return tuple(periods)


@dataclass(frozen=True, eq=False)
class MonthlySeries:
    """Parallel month labels and values of a pooled return series."""

    months: tuple
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).reshape(-1)
        if len(self.months) != vals.shape[0]:
            raise InputError("months and values lengths differ")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "months", tuple(self.months))


@dataclass(frozen=True)
class PerformanceStats:
    """Pooled mean, standard deviation, and Sharpe ratio over one period.

    Values are in the series' own units (annualized decimals as produced by
    run_exercise); sharpe is the unitless ratio mean_monthly / std_monthly.
    period is the first and last month of the series inside the requested
    period, so it is narrower than the request when the series has no
    months at its ends (for instance after failed construction years).
    """

    mean_monthly: float
    std_monthly: float
    sharpe: float
    period: tuple
    n_months: int


def compute_stats(series: MonthlySeries, period: tuple) -> PerformanceStats:
    """Mean, population standard deviation, and Sharpe over one period.

    Args:
        series: pooled monthly returns with month labels.
        period: (start, end) month pair, both inclusive.

    Raises:
        InputError: fewer than 2 months of the series fall in the period.
        ZeroVolatility: the selected values are constant, so the Sharpe
            ratio is undefined.
    """
    lo, hi = month_index(period[0]), month_index(period[1])
    inside = [lo <= month_index(d) <= hi for d in series.months]
    months = [d for d, keep in zip(series.months, inside) if keep]
    vals = series.values[np.array(inside, dtype=bool)]
    if vals.shape[0] < 2:
        raise InputError(
            f"period {_fmt_month(period[0])}..{_fmt_month(period[1])} covers "
            f"{vals.shape[0]} months of the series; need at least 2"
        )
    m = float(vals.mean())
    sigma = float(np.sqrt(np.mean((vals - m) ** 2)))
    if sigma == 0.0:
        raise ZeroVolatility("constant return series; Sharpe ratio undefined")
    return PerformanceStats(
        mean_monthly=m,
        std_monthly=sigma,
        sharpe=m / sigma,
        period=(months[0], months[-1]),
        n_months=int(vals.shape[0]),
    )


def _stats_or_none(series: MonthlySeries, period: tuple):
    # failure years can leave a period with too few strategy months (or a
    # constant pool); the report then carries None for that period instead
    # of losing the failure record to an exception
    try:
        return compute_stats(series, period)
    except (InputError, ZeroVolatility):
        return None


@dataclass(frozen=True, eq=False)
class BacktestReport:
    """Everything the exercise produced, per year and pooled.

    constructions holds one (problem, path, holding panel) per construction
    year, or the InputError/SolverError its window, build or path start
    raised (its target_returns entry is None if no target was reached).
    Each path is filled on demand and solved only as far as a selection
    has read it; reading constructions[i][1].breakpoints solves the rest
    of that path and can raise the error its engine meets there.
    selections holds one PortfolioSelection per year, None for failed
    years; each construction or policy failure, an error met while the
    policy read the path included, is recorded as (year, error class name,
    message). series/benchmark_series are the pooled monthly returns of the
    strategy and the evenly weighted portfolio; stats and benchmark_stats
    line up with evaluation_periods (None entries mark periods whose pooled
    statistics were uncomputable).
    """

    years: tuple
    target_returns: tuple
    constructions: tuple
    selections: tuple
    failures: tuple
    series: MonthlySeries
    benchmark_series: MonthlySeries
    evaluation_periods: tuple
    stats: tuple
    benchmark_stats: tuple
    policy: Policy


def _apply_policy(path, problem, policy: Policy) -> PortfolioSelection:
    if policy.kind == "no-short":
        return select_no_short(path, problem)
    if policy.kind == "exact-k":
        return select_exact_k(path, problem, policy.k)
    return select_binned(path, problem, policy.k_min, policy.k_max)


def _held_series(held) -> MonthlySeries:
    """Pooled monthly returns of (holding panel, weights) pairs, in order."""
    months, values = [], []
    for hold, w in held:
        months.extend(hold.dates)
        values.extend(hold.returns @ w)
    return MonthlySeries(months=tuple(months), values=np.array(values))


def _pool(years, constructions, policy):
    """(selections, failures, pooled series) of the policy over the years."""
    selections, failures, held = [], [], []
    for year, built in zip(years, constructions):
        sel = error = None
        if isinstance(built, Exception):
            error = built
        else:
            problem, path, hold = built
            try:
                sel = _apply_policy(path, problem, policy)
            except SolverError as exc:
                error = exc
        selections.append(sel)
        if error is not None:
            failures.append((year, type(error).__name__, str(error)))
        else:
            held.append((hold, sel.weights))
    return tuple(selections), tuple(failures), _held_series(held)


def run_exercise(panel: ReturnPanel, config: BacktestConfig) -> BacktestReport:
    """The full rolling exercise.

    Every construction June: train on the trailing window, start the
    constrained path, apply the configured policy, then record the selected
    portfolio's return for each of the following 12 months. Each year's
    path is solved once, and only as far as a selection reads it: its START
    at construction, then what the policy reads (no-short reads nothing
    more, exact-k reads up to its first hit, binned reads the whole path).
    A year whose window, build, path start or policy fails, or whose path
    fails within the part the policy reads, is recorded in failures and
    contributes no strategy returns; a failure past that part reaches no
    selection. The benchmark series covers every holding window that
    exists.
    """
    periods = default_evaluation_periods(config)
    years = range(config.first_construction[0], config.last_construction[0] + 1)
    rhos, constructions, bench_months, bench_vals = [], [], [], []
    for year in years:
        rho = None
        try:
            hold = window(panel, (year, 7), 12)
            bench_months.extend(hold.dates)
            bench_vals.extend(hold.returns.mean(axis=1))
            train = window(panel, add_months((year, 6), 1 - config.training_months),
                           config.training_months)
            # target: what the evenly weighted portfolio averaged over training
            rho = float(train.returns.mean(axis=1).mean())
            problem, constraints = build_markowitz_problem(
                MarkowitzSpec(target_return=rho, training_panel=train)
            )
            path = _portfolio_path(problem, constraints)
            next(iter(path))  # a failed start fails the construction
            constructions.append((problem, path, hold))
        except (InputError, SolverError) as exc:
            constructions.append(exc)
        rhos.append(rho)
    selections, failures, series = _pool(years, constructions, config.policy)
    bench = MonthlySeries(months=tuple(bench_months), values=np.array(bench_vals))
    return BacktestReport(
        years=tuple(years),
        target_returns=tuple(rhos),
        constructions=tuple(constructions),
        selections=selections,
        failures=failures,
        series=series,
        benchmark_series=bench,
        evaluation_periods=periods,
        stats=tuple(_stats_or_none(series, p) for p in periods),
        benchmark_stats=tuple(_stats_or_none(bench, p) for p in periods),
        policy=config.policy,
    )


def k_sweep(report: BacktestReport, k_min: int, k_max: int):
    """Full-period Sharpe of the exact-k strategy for each k in the range.

    Reuses the exercise's paths in one pass over the years: each year's
    path is read from its START only until it has met every k still
    wanted, and each year selects as select_exact_k does. A k is ruled out
    by the first year whose construction failed, whose path never reaches
    k, or whose path raised before reaching k; no later year looks for it.
    Returns a list of (k, PerformanceStats or None); a ruled-out k or
    degenerate pooled statistics yield None rather than a partial pool.
    Logs one DEBUG record: the breakpoints read, the paths read to their
    end, and the year that ruled out each such k.
    """
    ks = range(int(k_min), int(k_max) + 1)
    chosen = {k: [] for k in ks}  # k still wanted -> (holding, weights) per year
    ruled_out = {}  # k -> the first year that ruled it out
    read = finished = 0
    for year, built in zip(report.years, report.constructions):
        if not chosen:
            break
        hits = {}
        if not isinstance(built, Exception):
            _, path, hold = built
            try:
                for bp in path:
                    read += 1
                    n = np.count_nonzero(bp.weights)
                    if n in chosen and n not in hits:
                        hits[n] = bp.weights
                        if len(hits) == len(chosen):
                            break
                else:
                    finished += 1
            except SolverError:
                pass  # the ks not met before the error are ruled out
        for k in list(chosen):
            if k in hits:
                chosen[k].append((hold, hits[k]))
            else:
                ruled_out[k] = year
                del chosen[k]
    log.debug("k sweep %d..%d: %d breakpoints read, %d paths read to their "
              "end; ruled out (k: first year): %s", ks.start, ks.stop - 1,
              read, finished, ", ".join(
                  f"{k}: {year}" for k, year in ruled_out.items()) or "none")
    full = report.evaluation_periods[0]
    out = []
    for k in ks:
        out.append((k, _stats_or_none(_held_series(chosen[k]), full)
                    if k in chosen else None))
    return out


def run_k_sweep(panel: ReturnPanel, config: BacktestConfig,
                k_min: int, k_max: int):
    """k_sweep over a fresh run_exercise(panel, config)."""
    return k_sweep(run_exercise(panel, config), k_min, k_max)


# --- presentation ---

def _stats_dict(st: PerformanceStats) -> dict:
    return {
        "period": [_fmt_month(st.period[0]), _fmt_month(st.period[1])],
        "n_months": st.n_months,
        "mean_monthly": st.mean_monthly,
        "std_monthly": st.std_monthly,
        "sharpe": st.sharpe,
    }


def report_to_dict(report: BacktestReport) -> dict:
    """JSON-ready view of a report (deterministic key order)."""
    sel_rows = []
    for year, sel in zip(report.years, report.selections):
        if sel is None:
            sel_rows.append({"year": year, "failed": True})
            continue
        sel_rows.append({
            "year": year,
            "failed": False,
            "tau": sel.tau,
            "active_count": sel.active_count,
            "objective_value": sel.objective_value,
            "weights": sel.weights,
        })
    return {
        "policy": report.policy.label,
        "years": list(report.years),
        "target_returns": [None if r is None else float(r)
                           for r in report.target_returns],
        "selections": sel_rows,
        "failures": [
            {"year": y, "error": name, "message": msg}
            for y, name, msg in report.failures
        ],
        "series": {
            "months": [_fmt_month(d) for d in report.series.months],
            "values": report.series.values,
        },
        "benchmark_series": {
            "months": [_fmt_month(d) for d in report.benchmark_series.months],
            "values": report.benchmark_series.values,
        },
        "stats": [None if s is None else _stats_dict(s) for s in report.stats],
        "benchmark_stats": [
            None if s is None else _stats_dict(s) for s in report.benchmark_stats
        ],
    }


def pct_cell(x: float, paper_mode: bool) -> str:
    """Presentation-only percent form of a stored decimal figure."""
    if paper_mode:
        return str(int(round(100.0 * x)))
    return f"{100.0 * x:.1f}"


def stats_table_csv(report: BacktestReport, paper_mode: bool = False) -> str:
    """Period-by-period m, sigma, S table for the policy and the benchmark.

    Each row is labelled with the months its statistics cover: the policy
    block's, or the benchmark block's when the policy has none, or else the
    configured period.
    """
    lab = report.policy.label
    lines = [
        "period,"
        f"{lab}_m,{lab}_sigma,{lab}_sharpe,"
        "equal_weight_m,equal_weight_sigma,equal_weight_sharpe"
    ]
    for configured, st, bs in zip(
        report.evaluation_periods, report.stats, report.benchmark_stats
    ):
        covered = st if st is not None else bs
        start, end = configured if covered is None else covered.period
        period = f"{_fmt_month(start)}..{_fmt_month(end)}"
        cells = []
        for block in (st, bs):
            if block is None:
                cells += ["", "", ""]
            else:
                cells += [
                    pct_cell(block.mean_monthly, paper_mode),
                    pct_cell(block.std_monthly, paper_mode),
                    pct_cell(block.sharpe, paper_mode),
                ]
        lines.append(period + "," + ",".join(cells))
    return "\n".join(lines) + "\n"


def active_counts_csv(report: BacktestReport) -> str:
    """Year-by-year active-asset counts of the selected portfolios."""
    lines = ["year,active_count"]
    for year, sel in zip(report.years, report.selections):
        lines.append(f"{year}," + ("" if sel is None else str(sel.active_count)))
    return "\n".join(lines) + "\n"


def sharpe_vs_k_csv(sweep) -> str:
    """Full-period Sharpe per exact-k portfolio size (blank when unattained)."""
    lines = ["k,sharpe"]
    for k, st in sweep:
        lines.append(f"{k}," + ("" if st is None else format_float(st.sharpe)))
    return "\n".join(lines) + "\n"
