"""Rolling construction exercise, pooled statistics, presentation tables."""

import dataclasses
import json
import logging
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparsefolio import (
    BacktestConfig,
    DegeneratePanel,
    InputError,
    MonthlySeries,
    Policy,
    ReturnPanel,
    SolverError,
    ZeroVolatility,
    add_months,
    compute_stats,
    default_evaluation_periods,
    k_sweep,
    run_exercise,
    run_k_sweep,
    select_exact_k,
    solve_portfolio_path,
)
from sparsefolio.backtest import (
    active_counts_csv,
    report_to_dict,
    sharpe_vs_k_csv,
    stats_table_csv,
)
from sparsefolio import backtest, errors, jsonio, path_constrained

from conftest import degenerate_1979_panel, factor_panel


def month_grid(start, t):
    return tuple(add_months(start, k) for k in range(t))


def exercise_panel(n=4, seed=0, start=(1976, 7), months=48):
    rng = np.random.default_rng(seed)
    r = 0.05 * rng.standard_normal((months, n)) + 0.01
    return ReturnPanel(
        returns=r,
        dates=month_grid(start, months),
        asset_names=tuple(f"A{k}" for k in range(n)),
    )


def two_year_config(policy=None):
    return BacktestConfig(
        first_construction=(1978, 6),
        last_construction=(1979, 6),
        training_months=24,
        policy=policy or Policy.no_short(),
    )


# --- config ---

def test_config_validation():
    with pytest.raises(InputError):
        BacktestConfig(first_construction=(1976, 7))
    with pytest.raises(InputError):
        BacktestConfig(first_construction=(2000, 6),
                       last_construction=(1999, 6))
    with pytest.raises(InputError):
        BacktestConfig(training_months=1)


def test_default_evaluation_periods_layout():
    config = BacktestConfig()  # 1976..2005, 360 holding months
    periods = default_evaluation_periods(config)
    assert periods[0] == ((1976, 7), (2006, 6))
    assert len(periods) == 1 + 6  # full span plus six complete 60-month runs
    assert periods[1] == ((1976, 7), (1981, 6))
    assert periods[-1] == ((2001, 7), (2006, 6))


# --- compute_stats ---

def test_stats_constant_series_zero_volatility():
    series = MonthlySeries(months=month_grid((2000, 1), 6), values=np.full(6, 0.03))
    with pytest.raises(ZeroVolatility):
        compute_stats(series, ((2000, 1), (2000, 6)))


def test_stats_alternating_series():
    vals = np.array([0.05, -0.05] * 6)
    series = MonthlySeries(months=month_grid((2000, 1), 12), values=vals)
    st = compute_stats(series, ((2000, 1), (2000, 12)))
    assert st.mean_monthly == 0.0
    assert st.sharpe == 0.0
    assert abs(st.std_monthly - 0.05) <= 1e-15


def test_stats_match_two_pass_oracle():
    rng = np.random.default_rng(44)
    vals = rng.standard_normal(360) * 0.04 + 0.01
    series = MonthlySeries(months=month_grid((1976, 7), 360), values=vals)
    st = compute_stats(series, ((1976, 7), (2006, 6)))
    mean = sum(float(v) for v in vals) / 360.0
    var = sum((float(v) - mean) ** 2 for v in vals) / 360.0
    assert abs(st.mean_monthly - mean) <= 1e-12
    assert abs(st.std_monthly - np.sqrt(var)) <= 1e-12
    assert abs(st.sharpe * st.std_monthly - st.mean_monthly) <= 1e-12
    assert st.n_months == 360


def test_stats_period_masking_and_short_period():
    vals = np.arange(10, dtype=float) / 100.0
    series = MonthlySeries(months=month_grid((2000, 1), 10), values=vals)
    st = compute_stats(series, ((2000, 3), (2000, 6)))
    assert st.n_months == 4
    assert np.isclose(st.mean_monthly, np.mean(vals[2:6]))
    with pytest.raises(InputError):
        compute_stats(series, ((2001, 1), (2001, 2)))  # nothing in range


def test_stats_period_is_the_months_covered():
    series = MonthlySeries(months=month_grid((2000, 1), 10),
                           values=np.arange(10, dtype=float) / 100.0)
    assert compute_stats(series, ((2000, 3), (2000, 6))).period == (
        (2000, 3), (2000, 6))
    assert compute_stats(series, ((1999, 1), (2000, 4))).period == (
        (2000, 1), (2000, 4))
    assert compute_stats(series, ((2000, 9), (2001, 12))).period == (
        (2000, 9), (2000, 10))


# --- run_exercise ---

def test_exercise_shape_and_benchmark():
    panel = exercise_panel()
    report = run_exercise(panel, two_year_config())
    assert report.years == (1978, 1979)
    assert len(report.series.months) == 24
    assert report.series.months[0] == (1978, 7)
    assert report.series.months[-1] == (1980, 6)
    # benchmark is the exact row mean of each holding month
    for month, value in zip(report.benchmark_series.months,
                            report.benchmark_series.values):
        row = panel.returns[panel.dates.index(month)]
        assert value == row.mean()
    # default period pool: 24 months only supports the full span
    assert report.evaluation_periods[0] == ((1978, 7), (1980, 6))


def test_exercise_target_is_training_grand_mean():
    panel = exercise_panel(seed=1)
    report = run_exercise(panel, two_year_config())
    for year, rho in zip(report.years, report.target_returns):
        lo = panel.dates.index(add_months((year, 6), -23))
        train = panel.returns[lo:lo + 24]
        assert rho == float(train.mean(axis=1).mean())


def test_exercise_selections_satisfy_constraints():
    panel = exercise_panel(seed=2)
    report = run_exercise(panel, two_year_config())
    for year, rho, sel in zip(report.years, report.target_returns,
                              report.selections):
        assert sel is not None
        assert np.all(sel.weights >= 0.0)
        assert abs(sel.weights.sum() - 1.0) <= 1e-10
        lo = panel.dates.index(add_months((year, 6), -23))
        mu = panel.returns[lo:lo + 24].mean(axis=0)
        assert abs(mu @ sel.weights - rho) <= 1e-10


def test_exercise_strategy_series_values():
    panel = exercise_panel(seed=3)
    report = run_exercise(panel, two_year_config())
    for month, value in zip(report.series.months, report.series.values):
        year = month[0] if month[1] >= 7 else month[0] - 1
        sel = report.selections[report.years.index(year)]
        row = panel.returns[panel.dates.index(month)]
        # matrix-vector and row-dot kernels can disagree in the last bit
        assert abs(value - float(row @ sel.weights)) <= 1e-16


def test_exercise_deterministic():
    panel = exercise_panel(seed=4)
    a = run_exercise(panel, two_year_config())
    b = run_exercise(panel, two_year_config())
    assert jsonio.dumps(report_to_dict(a)) == jsonio.dumps(report_to_dict(b))


def test_exercise_breakout_consistency():
    # ten holding years: the full span and two 60-month chunks
    panel = exercise_panel(seed=5, months=144)
    config = BacktestConfig(first_construction=(1978, 6),
                            last_construction=(1987, 6),
                            training_months=24)
    report = run_exercise(panel, config)
    assert report.evaluation_periods == (((1978, 7), (1988, 6)),
                                         ((1978, 7), (1983, 6)),
                                         ((1983, 7), (1988, 6)))
    full, first, second = report.stats
    lumped = (first.mean_monthly * first.n_months
              + second.mean_monthly * second.n_months)
    assert abs(lumped / full.n_months - full.mean_monthly) <= 1e-12


def test_exercise_single_asset_panel():
    rng = np.random.default_rng(6)
    col = 0.05 * rng.standard_normal(48) + 0.01
    panel = ReturnPanel(returns=col[:, None],
                        dates=month_grid((1976, 7), 48),
                        asset_names=("only",))
    report = run_exercise(panel, two_year_config())
    for sel in report.selections:
        np.testing.assert_array_equal(sel.weights, [1.0])
    # the strategy just holds the asset
    for month, value in zip(report.series.months, report.series.values):
        assert value == col[panel.dates.index(month)]


def test_exercise_reports_failed_years():
    # a 1-asset-exact portfolio can never satisfy both constraint rows, so
    # every construction year fails; the report must still come back with
    # the failures listed and the benchmark intact
    panel = exercise_panel(seed=7, n=3)
    report = run_exercise(panel, two_year_config(policy=Policy.exact_k(1)))
    assert len(report.failures) == 2
    assert all(name == "CardinalityUnreachable" for _, name, _ in report.failures)
    assert report.selections == (None, None)
    assert len(report.series.months) == 0
    assert len(report.benchmark_series.months) == 24
    assert report.stats[0] is None
    assert report.benchmark_stats[0] is not None
    # presentation survives the holes
    table = stats_table_csv(report)
    assert table.splitlines()[1].split(",")[1] == ""
    counts = active_counts_csv(report).splitlines()
    assert counts[1] == "1978,"
    payload = report_to_dict(report)
    assert payload["stats"][0] is None
    jsonio.dumps(payload)  # must serialize


def test_exercise_records_failed_construction_year():
    report = run_exercise(degenerate_1979_panel(), two_year_config())
    error = report.constructions[1]
    assert isinstance(error, DegeneratePanel)
    assert report.failures == ((1979, "DegeneratePanel", str(error)),)
    assert report.selections[0] is not None and report.selections[1] is None
    assert report.series.months == month_grid((1978, 7), 12)
    # the 1979 holding window exists, so the benchmark keeps its months
    assert len(report.benchmark_series.months) == 24
    jsonio.dumps(report_to_dict(report))


def test_exercise_records_gap_in_training_window():
    panel = exercise_panel(seed=14)
    drop = panel.dates.index((1977, 3))  # inside 1978's window only
    gapped = ReturnPanel(returns=np.delete(panel.returns, drop, axis=0),
                         dates=panel.dates[:drop] + panel.dates[drop + 1:],
                         asset_names=panel.asset_names)
    report = run_exercise(gapped, two_year_config())
    assert [(y, name) for y, name, _ in report.failures] == [
        (1978, "WindowOutOfRange")]
    assert report.target_returns[0] is None
    assert report.selections[1] is not None
    assert len(report.series.months) == 12
    assert len(report.benchmark_series.months) == 24
    payload = json.loads(jsonio.dumps(report_to_dict(report)))
    assert payload["target_returns"][0] is None
    assert payload["failures"][0]["error"] == "WindowOutOfRange"


# --- presentation ---

def test_stats_table_formats():
    panel = exercise_panel(seed=8)
    report = run_exercise(panel, two_year_config())
    plain = stats_table_csv(report).splitlines()
    assert plain[0] == ("period,no-short_m,no-short_sigma,no-short_sharpe,"
                        "equal_weight_m,equal_weight_sigma,equal_weight_sharpe")
    row = plain[1].split(",")
    assert row[0] == "1978-07..1980-06"
    st = report.stats[0]
    assert row[1] == f"{100.0 * st.mean_monthly:.1f}"
    paper = stats_table_csv(report, paper_mode=True).splitlines()
    cells = paper[1].split(",")
    assert cells[1] == str(int(round(100.0 * st.mean_monthly)))
    assert "." not in cells[1]


def test_stats_table_labels_rows_with_the_months_covered():
    # 2001-06..2008-06 on a panel ending 2006-06: the 2006-2008 holding
    # windows are missing, so those years fail and every statistic covers
    # 2001-07..2006-06, which the row label must say
    panel = ReturnPanel(returns=factor_panel(0, 48, 432),
                        dates=month_grid((1970, 7), 432),
                        asset_names=tuple(f"A{k}" for k in range(48)))
    report = run_exercise(panel, BacktestConfig(first_construction=(2001, 6),
                                                last_construction=(2008, 6)))
    assert [(y, name) for y, name, _ in report.failures] == [
        (y, "WindowOutOfRange") for y in (2006, 2007, 2008)]
    assert report.evaluation_periods[0] == ((2001, 7), (2009, 6))
    assert report.stats[0].period == ((2001, 7), (2006, 6))
    assert report.stats[0].n_months == 60
    rows = stats_table_csv(report).splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["2001-07..2006-06"] * 2


def test_stats_table_label_falls_back_to_benchmark_then_configured_period():
    panel = exercise_panel(seed=7, n=3)
    report = run_exercise(panel, two_year_config(policy=Policy.exact_k(1)))
    assert report.stats[0] is None
    assert stats_table_csv(report).splitlines()[1].startswith("1978-07..1980-06,,,,")
    empty = dataclasses.replace(report, benchmark_stats=(None,) * len(report.stats))
    assert stats_table_csv(empty).splitlines()[1] == "1978-07..1980-06,,,,,,"


def test_active_counts_csv_layout():
    panel = exercise_panel(seed=9)
    report = run_exercise(panel, two_year_config())
    lines = active_counts_csv(report).splitlines()
    assert lines[0] == "year,active_count"
    assert lines[1].startswith("1978,")
    assert int(lines[1].split(",")[1]) == report.selections[0].active_count


def test_report_dict_round_trips_through_json():
    panel = exercise_panel(seed=10)
    report = run_exercise(panel, two_year_config())
    text = jsonio.dumps(report_to_dict(report))
    import json

    payload = json.loads(text)
    assert payload["policy"] == "no-short"
    assert payload["years"] == [1978, 1979]
    assert len(payload["series"]["values"]) == 24
    assert payload["series"]["months"][0] == "1978-07"
    assert payload["selections"][0]["failed"] is False


# --- k sweep ---

def test_k_sweep_rows_and_blanks():
    panel = exercise_panel(seed=11, n=4)
    config = two_year_config()
    sweep = run_k_sweep(panel, config, 1, 4)
    assert [k for k, _ in sweep] == [1, 2, 3, 4]
    by_k = dict(sweep)
    assert by_k[1] is None  # a single asset cannot meet both rows
    attained = [k for k, st in sweep if st is not None]
    assert attained, "expected at least one attainable cardinality"
    text = sharpe_vs_k_csv(sweep).splitlines()
    assert text[0] == "k,sharpe"
    assert text[1] == "1,"
    k = attained[0]
    assert text[k].startswith(f"{k},")
    assert text[k] != f"{k},"


def test_k_sweep_matches_exercise_for_attained_k():
    panel = exercise_panel(seed=12, n=4)
    config = two_year_config()
    sweep = dict(run_k_sweep(panel, config, 1, 4))
    for k, st in sweep.items():
        if st is None:
            continue
        report = run_exercise(panel, two_year_config(policy=Policy.exact_k(k)))
        full = report.stats[0]
        assert abs(full.sharpe - st.sharpe) <= 1e-15


def test_k_sweep_after_failed_construction_is_all_none():
    report = run_exercise(degenerate_1979_panel(), two_year_config())
    assert k_sweep(report, 1, 3) == [(1, None), (2, None), (3, None)]


# --- paths read on demand ---

def factor_exercise(seed, n, training, years=4):
    """(panel, config) of a years-long exercise on a seeded factor panel."""
    months = training + 12 * years
    panel = ReturnPanel(returns=factor_panel(seed, n, months),
                        dates=month_grid(add_months((1972, 6), 1 - training), months),
                        asset_names=tuple(f"A{k}" for k in range(n)))
    config = BacktestConfig(first_construction=(1972, 6),
                            last_construction=(1971 + years, 6),
                            training_months=training)
    return panel, config


def fully_solved_sweep(report, k_min, k_max):
    """The exact-k sweep read off whole paths: select_exact_k in every year."""
    out = []
    for k in range(k_min, k_max + 1):
        months, values, stats = [], [], None
        try:
            for built in report.constructions:
                if isinstance(built, Exception):
                    raise built
                problem, path, hold = built
                sel = select_exact_k(path, problem, k)
                months.extend(hold.dates)
                values.extend(hold.returns @ sel.weights)
            stats = compute_stats(MonthlySeries(months, np.array(values)),
                                  report.evaluation_periods[0])
        except (InputError, SolverError):
            pass
        out.append((k, stats))
    return out


def output_bytes(report, sweeps):
    return (jsonio.dumps(report_to_dict(report)), stats_table_csv(report),
            active_counts_csv(report), *map(sharpe_vs_k_csv, sweeps))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 12),
       training=st.sampled_from((8, 24)), policy=st.integers(0, 2),
       sweeps=st.lists(st.tuples(st.integers(1, 12), st.integers(0, 4)),
                       min_size=2, max_size=2))
@example(seed=7, n=12, training=8, policy=1, sweeps=[(1, 4), (3, 4)])
def test_lazy_paths_match_fully_solved_paths(seed, n, training, policy, sweeps):
    # training = 8 with n > 8 trains on fewer months than assets
    panel, config = factor_exercise(seed, n, training)
    config = dataclasses.replace(config, policy=(
        Policy.no_short(), Policy.exact_k(n // 2 + 1),
        Policy.binned(2, n // 2 + 1))[policy])
    ranges = [(lo, lo + width) for lo, width in sweeps]
    report = run_exercise(panel, config)
    lazy = output_bytes(report, [k_sweep(report, *r) for r in ranges])
    with mock.patch.object(backtest, "_portfolio_path", solve_portfolio_path):
        whole = run_exercise(panel, config)
    assert lazy == output_bytes(
        whole, [fully_solved_sweep(whole, *r) for r in ranges])


def test_failure_in_an_unread_tail_reaches_only_its_readers(caplog):
    # each year's path holds 4, 5, then 6 assets; 1973 fails at its third
    # breakpoint, past what no-short and the first two sizes read
    panel, config = factor_exercise(0, 6, 24, years=2)
    full = run_exercise(panel, config)
    assert [[int(np.count_nonzero(bp.weights)) for bp in built[1].breakpoints]
            for built in full.constructions] == [[4, 5, 6], [4, 5, 6]]
    bad = full.constructions[1][1].breakpoints[2].generalized_residual
    message = "path left the optimum: injected at the third breakpoint"
    check = path_constrained._check_off_support

    def failing(b, sign, tau, ztol):
        if np.array_equal(b, bad):
            raise errors.SingularActiveSystem(message)
        check(b, sign, tau, ztol)

    caplog.set_level(logging.DEBUG, logger="sparsefolio.backtest")
    with mock.patch.object(path_constrained, "_check_off_support", failing):
        report = run_exercise(panel, config)
        sweep = k_sweep(report, 4, 6)
        five, six = (run_exercise(panel, dataclasses.replace(
            config, policy=Policy.exact_k(k))) for k in (5, 6))
        path = report.constructions[1][1]
        with pytest.raises(errors.SingularActiveSystem) as first:
            path.breakpoints
        with pytest.raises(errors.SingularActiveSystem) as again:
            list(path)
    assert again.value is first.value
    assert five.failures == ()  # 5 assets come before the failure
    assert five.selections[1].tau == full.constructions[1][1].breakpoints[1].tau
    assert six.failures == ((1973, "SingularActiveSystem", message),)
    assert six.selections[1] is None
    assert report.failures == ()
    assert output_bytes(report, []) == output_bytes(full, [])
    assert [k for k, st in sweep if st is not None] == [4, 5]
    assert sweep[:2] == k_sweep(full, 4, 5)
    assert [r.getMessage() for r in caplog.records
            if r.name == "sparsefolio.backtest"] == [
        "k sweep 4..6: 5 breakpoints read, 0 paths read to their end; "
        "ruled out (k: first year): 6: 1973",
        "k sweep 4..5: 4 breakpoints read, 0 paths read to their end; "
        "ruled out (k: first year): none"]


def test_backtest_engine_work_is_at_most_half_the_whole_paths(monkeypatch):
    # the paper's shape: 48 assets, 60-month windows, 30 Junes, sweep 1..20
    panel, config = factor_exercise(0, 48, 60, years=30)
    yielded = []
    breakpoint_type = path_constrained.PathBreakpoint

    def counted(**fields):
        yielded.append(fields["tau"])
        return breakpoint_type(**fields)

    monkeypatch.setattr(path_constrained, "PathBreakpoint", counted)
    report = run_exercise(panel, config)
    k_sweep(report, 1, 20)
    read = len(yielded)
    whole = sum(len(built[1].breakpoints) for built in report.constructions)
    assert len(yielded) == whole  # no breakpoint is solved twice
    assert 2 * read <= whole


# --- adversarial panels ---

ADVERSARIAL = ("duplicate", "collinear", "constant", "short-window",
               "near-equal-means", "gap")


def adversarial_exercise(seed, n, cases):
    """(panel, config) of a two-year exercise with the given defects.

    near-equal-means makes every column one series plus noise of a scale
    drawn across 1e-15..1e-5, so the column means straddle the degeneracy
    threshold and the target (their average) sits at the edge of their
    span; short-window trains on fewer months than assets.
    """
    rng = np.random.default_rng(seed)
    r = 0.05 * rng.standard_normal((48, n)) + 0.01
    if "near-equal-means" in cases:
        r = r[:, :1] + 10.0 ** rng.uniform(-15, -5) * rng.standard_normal((48, n))
    if n >= 2 and "duplicate" in cases:
        i, j = rng.choice(n, 2, replace=False)
        r[:, j] = r[:, i]
    if n >= 2 and "collinear" in cases:
        i, j = rng.choice(n, 2, replace=False)
        r[:, j] = rng.uniform(-2.0, 2.0) * r[:, i] + rng.uniform(-0.1, 0.1)
    if "constant" in cases:
        r[:, rng.integers(n)] = rng.uniform(-0.05, 0.05)
    dates = list(month_grid((1976, 7), 48))
    if "gap" in cases:
        drop = int(rng.integers(1, 47))
        r = np.delete(r, drop, axis=0)
        del dates[drop]
    training = 24
    if "short-window" in cases:
        training = int(rng.integers(2, max(n, 3)))
    panel = ReturnPanel(returns=r, dates=tuple(dates),
                        asset_names=tuple(f"A{k}" for k in range(n)))
    config = BacktestConfig(first_construction=(1978, 6),
                            last_construction=(1979, 6),
                            training_months=training)
    return panel, config


@settings(max_examples=50, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6),
       cases=st.sets(st.sampled_from(ADVERSARIAL), max_size=3))
def test_adversarial_panels_end_in_a_report(seed, n, cases):
    panel, config = adversarial_exercise(seed, n, cases)
    report = run_exercise(panel, config)
    sweep = k_sweep(report, 1, n + 1)
    assert [k for k, _ in sweep] == list(range(1, n + 2))
    failed = {year for year, _, _ in report.failures}
    assert len(failed) == len(report.failures)
    for _, name, _ in report.failures:
        assert issubclass(getattr(errors, name), (InputError, SolverError))
    for year, sel in zip(report.years, report.selections):
        assert (sel is None) == (year in failed)
    assert len(report.series.months) == 12 * (len(report.years) - len(failed))
    json.loads(jsonio.dumps(report_to_dict(report)))
    stats_table_csv(report)
    active_counts_csv(report)
    sharpe_vs_k_csv(sweep)
