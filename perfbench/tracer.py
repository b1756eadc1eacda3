"""Traced replay of the benchmark jobs through the library's public API.

The CLI is timed as a black box; this module replays each CLI call from
the public functions it is built on, with a span around every library call,
so that per-layer time and work counts can be read off. Spans are kept in
memory and reduced to per-layer metrics when the run ends.

Only public names are imported, and find_constrained_start is called
without its optional arguments, so the replay keeps working while solver
internals are rewritten. A replayed start is solved on its own, next to
the path solve that also builds it, so that path_s - start_s is the
continuation time of the same instances.
"""
from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager

import numpy as np
from sparsefolio import (
    AffineConstraints,
    BacktestConfig,
    MarkowitzSpec,
    PenalizedProblem,
    Policy,
    SolverError,
    add_months,
    build_adjustment_problem,
    build_markowitz_problem,
    build_tracking_problem,
    find_constrained_start,
    jsonio,
    panel_from_csv,
    run_exercise,
    run_k_sweep,
    select_exact_k,
    select_no_short,
    solve_constrained_path,
    solve_path,
    solve_portfolio_path,
    window,
)
from sparsefolio.backtest import (
    active_counts_csv,
    report_to_dict,
    sharpe_vs_k_csv,
    stats_table_csv,
)

from inputs import FIRST_YEAR, K_SWEEP, LAST_YEAR, TRAINING_MONTHS

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = [
    ("path_constrained.start_s", "s", "lower"),
    ("path_constrained.start_ms.p50", "ms", "lower"),
    ("path_constrained.start_ms.tail", "ms", "lower"),
    ("path_constrained.calls", "count", "lower"),
    ("path_constrained.path_s", "s", "lower"),
    ("path_constrained.breakpoints", "count", "lower"),
    ("path_constrained.continuation_s", "s", "lower"),
    ("path_constrained.continuation_us_per_bp", "us", "lower"),
    ("path_unconstrained.path_s", "s", "lower"),
    ("path_unconstrained.breakpoints", "count", "lower"),
    ("path_unconstrained.us_per_bp", "us", "lower"),
    ("path_unconstrained.calls", "count", "lower"),
    ("backtest.exercise_s", "s", "lower"),
    ("backtest.sweep_s", "s", "lower"),
    ("backtest.report_s", "s", "lower"),
    ("backtest.sweep_resolve_ratio", "ratio", "lower"),
    ("portfolio.build_s", "s", "lower"),
    ("portfolio.build_calls", "count", "lower"),
    ("portfolio.select_s", "s", "lower"),
    ("portfolio.select_calls", "count", "lower"),
    ("portfolio.select_hit_ratio", "ratio", "higher"),
    ("market_data.read_s", "s", "lower"),
    ("market_data.read_mb", "MB", "lower"),
    ("market_data.window_s", "s", "lower"),
    ("jsonio.dumps_s", "s", "lower"),
    ("jsonio.out_mb", "MB", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


class Tracer:
    """In-memory spans: id, name, parent span, start and end, plus counts.

    A span without a parent starts a job (one cli.main call); every span
    carries the id of the job it belongs to.
    """

    def __init__(self):
        self.spans = []

    @contextmanager
    def span(self, name, parent=None, **counts):
        sid = len(self.spans)
        job = sid if parent is None else self.spans[parent]["job"]
        rec = {"id": sid, "name": name, "parent": parent, "job": job,
               "t0": time.perf_counter(), "t1": None, **counts}
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["t1"] = time.perf_counter()


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _arg(argv, flag):
    return argv[argv.index(flag) + 1]


def path_doc(path) -> dict:
    """The document the CLI writes to path.json, built from public fields."""
    rows = []
    for bp in path.breakpoints:
        row = {"tau": float(bp.tau), "weights": [float(v) for v in bp.weights]}
        if hasattr(bp, "multipliers"):
            row["multipliers"] = [float(v) for v in bp.multipliers]
        row["active_set"] = [int(i) for i in bp.active_set]
        row["event"] = {
            "kind": bp.event.kind,
            "entered": [int(i) for i in bp.event.entered],
            "left": [int(i) for i in bp.event.left],
        }
        rows.append(row)
    return {"tau_0": float(path.breakpoints[0].tau), "breakpoints": rows}


def _read_panel(tr, root, argv_path):
    text = _read(argv_path)
    with tr.span("market_data.read", root, mb=len(text) / 1e6):
        return panel_from_csv(text)


def _dumps(tr, root, doc) -> str:
    with tr.span("jsonio.dumps", root) as sp:
        text = jsonio.dumps(doc)
    sp["mb"] = len(text) / 1e6
    return text


def _constrained(tr, parent, problem, constraints, solve):
    """Path solve, then the same instance's start on its own."""
    with tr.span("path_constrained.path", parent) as sp:
        path = solve(problem, constraints)
    sp["breakpoints"] = len(path.breakpoints)
    with tr.span("path_constrained.start", sp["id"]):
        find_constrained_start(problem, constraints)
    return path


def _replay_backtest(tr, root, argv):
    panel = _read_panel(tr, root, _arg(argv, "--data"))
    with tr.span("backtest.exercise", root) as ex:
        config = BacktestConfig(policy=Policy.no_short())
        report = run_exercise(panel, config)
    with tr.span("backtest.report", root):
        doc = report_to_dict(report)
        stats_table_csv(report)
        active_counts_csv(report)
    text = _dumps(tr, root, doc)
    with tr.span("backtest.sweep", root) as sw:
        sweep = run_k_sweep(panel, config, *K_SWEEP)
    with tr.span("backtest.report", root):
        sharpe_vs_k_csv(sweep)

    # what the exercise and the sweep do per year, one public call at a time
    for year in range(FIRST_YEAR, LAST_YEAR + 1):
        with tr.span("market_data.window", ex["id"]):
            train = window(panel, add_months((year, 6), 1 - TRAINING_MONTHS),
                           TRAINING_MONTHS)
            window(panel, (year, 7), 12)
        rho = float(train.returns.mean(axis=1).mean())
        with tr.span("portfolio.build", ex["id"]):
            problem, constraints = build_markowitz_problem(
                MarkowitzSpec(target_return=rho, training_panel=train))
        path = _constrained(tr, ex["id"], problem, constraints,
                            solve_portfolio_path)
        with tr.span("portfolio.select", ex["id"], hit=1):
            select_no_short(path, problem)
        for k in range(K_SWEEP[0], K_SWEEP[1] + 1):
            with tr.span("portfolio.select", sw["id"], hit=1) as sp:
                try:
                    select_exact_k(path, problem, k)
                except SolverError:
                    sp["hit"] = 0
    return text


def _replay_adjust(tr, root, argv):
    panel = _read_panel(tr, root, _arg(argv, "--panel"))
    current = np.asarray(json.loads(_read(_arg(argv, "--current"))), dtype=float)
    rho = float(panel.returns.mean(axis=1).mean())
    with tr.span("portfolio.build", root):
        problem, constraints = build_adjustment_problem(
            current, MarkowitzSpec(target_return=rho, training_panel=panel))
    path = _constrained(tr, root, problem, constraints, solve_portfolio_path)
    return _dumps(tr, root, path_doc(path))


def _replay_track(tr, root, argv):
    panel = _read_panel(tr, root, _arg(argv, "--panel"))
    index = np.asarray(json.loads(_read(_arg(argv, "--index"))), dtype=float)
    spreads = np.asarray(json.loads(_read(_arg(argv, "--spreads"))), dtype=float)
    with tr.span("portfolio.build", root):
        problem = build_tracking_problem(index, panel, spreads)
    with tr.span("path_unconstrained.path", root) as sp:
        path = solve_path(problem)
    sp["breakpoints"] = len(path.breakpoints)
    return _dumps(tr, root, path_doc(path))


def _replay_solve(tr, root, argv):
    doc = json.loads(_read(_arg(argv, "--problem")))
    design = np.asarray(doc["design"], dtype=float)
    target = np.asarray(doc["target"], dtype=float)
    matrix = np.asarray(doc["constraints"]["matrix"], dtype=float)
    rhs = np.asarray(doc["constraints"]["rhs"], dtype=float)
    with tr.span("path_unconstrained.problem", root):
        problem = PenalizedProblem(design=design, target=target)
    with tr.span("path_constrained.constraints", root):
        constraints = AffineConstraints(matrix=matrix, rhs=rhs)
    path = _constrained(tr, root, problem, constraints, solve_constrained_path)
    return _dumps(tr, root, path_doc(path))


REPLAY = {
    "backtest": _replay_backtest,
    "adjust": _replay_adjust,
    "track": _replay_track,
    "solve": _replay_solve,
}


def replay(tr: Tracer, root: int, argv: list) -> str:
    """Replay one CLI call under the cli.main span root.

    Returns the JSON text the replay serialized, which equals the CLI's
    report.json or path.json when both agree.
    """
    return REPLAY[argv[0]](tr, root, argv)


def _dur(sp) -> float:
    return sp["t1"] - sp["t0"]


def tail_percentile(n: int) -> float:
    """Highest percentile with at least ten samples beyond it (median floor)."""
    return max(50.0, 100.0 * (n - 10) / n) if n else 50.0


def _percentile(values, pct: float) -> float:
    return float(np.percentile(values, pct)) if values else 0.0


# figures pooled over every repetition's samples rather than per repetition
POOLED = ("path_constrained.start_ms.p50", "path_constrained.start_ms.tail")


def layer_metrics(spans, wall_s: float) -> dict:
    """Per-layer figures of one traced repetition (all but POOLED).

    wall_s is the repetition's wall time; trace.overhead_s is that minus
    the cli.main spans, i.e. what the replay and its spans added.
    """
    by_name: dict = {}
    children: dict = {}
    for sp in spans:
        by_name.setdefault(sp["name"], []).append(sp)
        children[sp["parent"]] = children.get(sp["parent"], 0.0) + _dur(sp)

    def total(name):
        return float(sum(_dur(sp) for sp in by_name.get(name, ())))

    def count(name, key=None):
        group = by_name.get(name, ())
        return sum(sp[key] for sp in group) if key else len(group)

    def ratio(num, den):
        return num / den if den else 0.0

    start_s = total("path_constrained.start")
    cpath_s = total("path_constrained.path")
    cbps = count("path_constrained.path", "breakpoints")
    upath_s = total("path_unconstrained.path")
    ubps = count("path_unconstrained.path", "breakpoints")
    cli = by_name.get("cli.main", ())
    return {
        "path_constrained.start_s": start_s,
        "path_constrained.calls": count("path_constrained.start"),
        "path_constrained.path_s": cpath_s,
        "path_constrained.breakpoints": cbps,
        "path_constrained.continuation_s": cpath_s - start_s,
        "path_constrained.continuation_us_per_bp":
            ratio(1e6 * (cpath_s - start_s), cbps),
        "path_unconstrained.path_s": upath_s,
        "path_unconstrained.breakpoints": ubps,
        "path_unconstrained.us_per_bp": ratio(1e6 * upath_s, ubps),
        "path_unconstrained.calls": count("path_unconstrained.path"),
        "backtest.exercise_s": total("backtest.exercise"),
        "backtest.sweep_s": total("backtest.sweep"),
        "backtest.report_s": total("backtest.report"),
        # on the backtest every constrained path is one of the swept years
        "backtest.sweep_resolve_ratio": ratio(total("backtest.sweep"), cpath_s),
        "portfolio.build_s": total("portfolio.build"),
        "portfolio.build_calls": count("portfolio.build"),
        "portfolio.select_s": total("portfolio.select"),
        "portfolio.select_calls": count("portfolio.select"),
        "portfolio.select_hit_ratio": ratio(count("portfolio.select", "hit"),
                                            count("portfolio.select")),
        "market_data.read_s": total("market_data.read"),
        "market_data.read_mb": count("market_data.read", "mb"),
        "market_data.window_s": total("market_data.window"),
        "jsonio.dumps_s": total("jsonio.dumps"),
        "jsonio.out_mb": count("jsonio.dumps", "mb"),
        "cli.self_s": sum(_dur(sp) - children.get(sp["id"], 0.0) for sp in cli),
        "trace.overhead_s": wall_s - sum(_dur(sp) for sp in cli),
    }


def summarize(reps: list, spans: list) -> dict:
    """Every per-layer metric: medians over the repetitions' figures.

    reps holds layer_metrics of each repetition and spans every span of
    every repetition. The start percentiles pool all start samples; the
    tail figure records its percentile and sample count next to it.
    """
    starts = [1e3 * _dur(sp) for sp in spans if sp["name"] == "path_constrained.start"]
    pct = tail_percentile(len(starts))
    out = {}
    for name, unit, _ in PER_LAYER:
        if name not in POOLED:
            out[name] = {"value": statistics.median(r[name] for r in reps),
                         "unit": unit}
    out["path_constrained.start_ms.p50"] = {
        "value": _percentile(starts, 50.0), "unit": "ms"}
    out["path_constrained.start_ms.tail"] = {
        "value": _percentile(starts, pct), "unit": "ms",
        "percentile": round(pct, 3), "samples": len(starts)}
    return {name: out[name] for name, _, _ in PER_LAYER}
