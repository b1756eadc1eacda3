"""Command-line front end.

Commands: solve, backtest, track, hedge, adjust. Every flag can also come
from a JSON config file (--config), with explicit flags taking precedence.
Machine outputs are byte-identical across runs on identical inputs: JSON via
the deterministic emitter, CSV floats at 17 significant digits.

Exit codes: 0 success, 2 input error, 3 solver error; the error class name
is printed to stderr.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import numpy as np

from . import jsonio
from .backtest import (
    BacktestConfig,
    active_counts_csv,
    report_to_dict,
    run_exercise,
    run_k_sweep,
    sharpe_vs_k_csv,
    stats_table_csv,
)
from .errors import InputError, SolverError
from .market_data import panel_from_csv, parse_ff_file
from .path_constrained import AffineConstraints, solve_constrained_path, solve_path
from .path_unconstrained import PenalizedProblem
from .portfolio import (
    HedgingScenario,
    MarkowitzSpec,
    Policy,
    build_adjustment_problem,
    build_hedging_problem,
    build_tracking_problem,
    solve_portfolio_path,
)

__all__ = ["main"]


# --- plumbing ---

def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}")


def _read_json(path: str):
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON ({exc})")


def _write_text(out_dir: str, name: str, text: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    dest = os.path.join(out_dir, name)
    with open(dest, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return dest


def _parse_month(text: str, what: str) -> tuple:
    try:
        y, m = str(text).split("-")
        return (int(y), int(m))
    except ValueError:
        raise InputError(f"{what} must look like YYYY-MM, got {text!r}")


def _parse_pair(text: str, what: str) -> tuple:
    try:
        a, b = str(text).split(",")
        return (int(a), int(b))
    except ValueError:
        raise InputError(f"{what} must look like K_MIN,K_MAX, got {text!r}")


def _merge_config(args: argparse.Namespace) -> argparse.Namespace:
    """Fill unset flags from the --config JSON document (flags win)."""
    if not getattr(args, "config", None):
        return args
    doc = _read_json(args.config)
    if not isinstance(doc, dict):
        raise InputError(f"{args.config}: config must be a JSON object")
    for key, value in doc.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr):
            raise InputError(f"{args.config}: unknown config key {key!r}")
        if getattr(args, attr) is None:
            setattr(args, attr, value)
    return args


def _require(args, name: str):
    value = getattr(args, name.replace("-", "_"), None)
    if value is None:
        raise InputError(f"missing required input --{name}")
    return value


# --- shared emitters ---

def _event_dict(event) -> dict:
    return {
        "kind": event.kind,
        "entered": [int(i) for i in event.entered],
        "left": [int(i) for i in event.left],
    }


def _path_to_dict(path) -> dict:
    bps = []
    for bp in path.breakpoints:
        row = {
            "tau": float(bp.tau),
            "weights": [float(v) for v in bp.weights],
        }
        if hasattr(bp, "multipliers"):
            row["multipliers"] = [float(v) for v in bp.multipliers]
        row["active_set"] = [int(i) for i in bp.active_set]
        row["event"] = _event_dict(bp.event)
        bps.append(row)
    return {"tau_0": float(path.breakpoints[0].tau), "breakpoints": bps}


def _path_to_csv(path) -> str:
    n = len(path.breakpoints[0].weights)
    m = len(path.breakpoints[0].multipliers) if hasattr(
        path.breakpoints[0], "multipliers") else 0
    header = ["tau", "event", "active_set"]
    header += [f"w{i}" for i in range(n)]
    header += [f"lambda{j}" for j in range(m)]
    lines = [",".join(header)]
    for bp in path.breakpoints:
        cells = [
            jsonio.format_float(bp.tau),
            bp.event.kind,
            ";".join(str(i) for i in bp.active_set),
        ]
        cells += [jsonio.format_float(v) for v in bp.weights]
        if m:
            cells += [jsonio.format_float(v) for v in bp.multipliers]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _frontier_csv(path, problem, per_period: bool = False) -> str:
    """Per breakpoint: quadratic misfit against the weighted-l1 cost."""
    scale = problem.n_periods if per_period else 1
    lines = ["tau,quadratic,l1_cost"]
    for bp in path.breakpoints:
        w = np.asarray(bp.weights, dtype=float)
        resid = problem.target - problem.design @ w
        quad = float(resid @ resid) / scale
        cost = float(np.sum(problem.penalty_weights * np.abs(w)))
        lines.append(",".join([
            jsonio.format_float(bp.tau),
            jsonio.format_float(quad),
            jsonio.format_float(cost),
        ]))
    return "\n".join(lines) + "\n"


def _emit_path(path, args, stem: str = "path") -> None:
    fmt = args.format or "json"
    if fmt == "csv":
        dest = _write_text(args.out, f"{stem}.csv", _path_to_csv(path))
    else:
        dest = _write_text(args.out, f"{stem}.json", jsonio.dumps(_path_to_dict(path)))
    print(f"wrote {dest}")


# --- commands ---

def _load_problem_doc(doc):
    if not isinstance(doc, dict):
        raise InputError("problem document must be a JSON object")
    for key in ("design", "target"):
        if key not in doc:
            raise InputError(f"problem document missing {key!r}")
    problem = PenalizedProblem(
        design=np.asarray(doc["design"], dtype=float),
        target=np.asarray(doc["target"], dtype=float),
        penalty_weights=(np.asarray(doc["penalty_weights"], dtype=float)
                         if doc.get("penalty_weights") is not None else None),
        tau_stop=float(doc.get("tau_stop", 0.0)),
    )
    block = doc.get("constraints")
    if not block or not np.asarray(block.get("matrix", []), dtype=float).size:
        return problem, None
    if "rhs" not in block:
        raise InputError("constraints block missing 'rhs'")
    constraints = AffineConstraints(
        matrix=np.asarray(block["matrix"], dtype=float),
        rhs=np.asarray(block["rhs"], dtype=float),
    )
    return problem, constraints


def cmd_solve(args) -> int:
    doc = _read_json(_require(args, "problem"))
    problem, constraints = _load_problem_doc(doc)
    if constraints is None:
        path = solve_path(problem)
    else:
        path = solve_constrained_path(problem, constraints)
    _emit_path(path, args)
    return 0


def _infer_assets(text: str) -> int:
    for line in text.splitlines():
        toks = line.split()
        if toks and len(toks[0]) == 6 and toks[0].isdigit():
            return len(toks) - 1
    raise InputError("could not infer the asset count; pass --assets")


def _load_panel(path_arg: str, n_assets=None):
    """Read a canonical CSV panel or a raw-layout file.

    A raw file must have n_assets value columns; None infers the count from
    the first data row.
    """
    text = _read_text(path_arg)
    if text.lstrip().startswith("date,"):
        return panel_from_csv(text)
    n = int(n_assets) if n_assets is not None else _infer_assets(text)
    return parse_ff_file(text, n)


def cmd_backtest(args) -> int:
    panel = _load_panel(_require(args, "data"), args.assets)

    kind = args.policy or "no-short"
    if kind == "exact-k":
        policy = Policy.exact_k(int(_require(args, "k")))
    elif kind == "bin":
        lo, hi = _parse_pair(_require(args, "bin"), "--bin")
        policy = Policy.binned(lo, hi)
    elif kind == "no-short":
        policy = Policy.no_short()
    else:
        raise InputError(f"unknown policy {kind!r}")

    config = BacktestConfig(
        first_construction=_parse_month(args.start or "1976-06", "--start"),
        last_construction=_parse_month(args.end or "2005-06", "--end"),
        training_months=int(args.training_months or 60),
        policy=policy,
    )
    report = run_exercise(panel, config)
    paper = bool(args.paper_mode)
    _write_text(args.out, "report.json", jsonio.dumps(report_to_dict(report)))
    _write_text(args.out, "table.csv", stats_table_csv(report, paper_mode=paper))
    _write_text(args.out, "active_counts.csv", active_counts_csv(report))
    if args.k_sweep is not None:
        lo, hi = _parse_pair(args.k_sweep, "--k-sweep")
        sweep = run_k_sweep(panel, config, lo, hi)
        _write_text(args.out, "sharpe_vs_k.csv", sharpe_vs_k_csv(sweep))
    full = report.stats[0]
    if full is not None:
        if paper:
            cells = [str(int(round(100.0 * v)))
                     for v in (full.mean_monthly, full.std_monthly, full.sharpe)]
        else:
            cells = [f"{100.0 * v:.1f}"
                     for v in (full.mean_monthly, full.std_monthly, full.sharpe)]
        print(" ".join(cells))
    return 0


def cmd_track(args) -> int:
    panel = _load_panel(_require(args, "panel"))
    index = np.asarray(_read_json(_require(args, "index")), dtype=float)
    spreads = (np.asarray(_read_json(args.spreads), dtype=float)
               if args.spreads is not None else np.ones(panel.n_assets))
    problem = build_tracking_problem(index, panel, spreads)
    path = solve_path(problem)
    _emit_path(path, args)
    dest = _write_text(args.out, "frontier.csv",
                       _frontier_csv(path, problem, per_period=True))
    print(f"wrote {dest}")
    return 0


def cmd_hedge(args) -> int:
    doc = _read_json(_require(args, "scenario"))
    if not isinstance(doc, dict):
        raise InputError("scenario document must be a JSON object")
    for key in ("pnl_existing", "pnl_unit", "probabilities", "spreads"):
        if key not in doc:
            raise InputError(f"scenario document missing {key!r}")
    scenario = HedgingScenario(
        pnl_existing=np.asarray(doc["pnl_existing"], dtype=float),
        pnl_unit=np.asarray(doc["pnl_unit"], dtype=float),
        probabilities=np.asarray(doc["probabilities"], dtype=float),
        spreads=np.asarray(doc["spreads"], dtype=float),
    )
    problem = build_hedging_problem(scenario)
    path = solve_path(problem)
    _emit_path(path, args)
    dest = _write_text(args.out, "frontier.csv", _frontier_csv(path, problem))
    print(f"wrote {dest}")
    return 0


def cmd_adjust(args) -> int:
    panel = _load_panel(_require(args, "panel"))
    current = np.asarray(_read_json(_require(args, "current")), dtype=float)
    if args.target_return is not None:
        rho = float(args.target_return)
    else:
        rho = float(panel.returns.mean(axis=1).mean())
    spreads = (np.asarray(_read_json(args.spreads), dtype=float)
               if args.spreads is not None else None)
    spec = MarkowitzSpec(target_return=rho, training_panel=panel,
                         penalty_weights=spreads)
    problem, constraints = build_adjustment_problem(current, spec)
    path = solve_portfolio_path(problem, constraints)
    _emit_path(path, args)
    dest = _write_text(args.out, "frontier.csv", _frontier_csv(path, problem))
    print(f"wrote {dest}")
    return 0


# --- argument wiring ---

def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="sparsefolio",
        description="Exact l1-penalized portfolio paths, selection, backtests.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON file supplying any of the flags")
        p.add_argument("--out", default=None, help="output directory (default .)")
        p.add_argument("--format", choices=["json", "csv"], default=None,
                       help="path file format (default json)")
        p.add_argument("--paper-mode", action="store_const", const=True,
                       default=None, dest="paper_mode",
                       help="round presentation percentages to integers")

    p = sub.add_parser("solve", help="solve one penalized problem")
    p.add_argument("--problem", help="problem JSON document")
    common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("backtest", help="rolling annual construction exercise")
    p.add_argument("--data", help="monthly returns file (raw layout or canonical CSV)")
    p.add_argument("--assets", type=int, help="expected asset count (default: infer)")
    p.add_argument("--policy", choices=["no-short", "exact-k", "bin"])
    p.add_argument("--k", type=int, help="asset count for --policy exact-k")
    p.add_argument("--bin", help="K_MIN,K_MAX for --policy bin")
    p.add_argument("--start", help="first construction June, YYYY-MM")
    p.add_argument("--end", help="last construction June, YYYY-MM")
    p.add_argument("--training-months", type=int, dest="training_months")
    p.add_argument("--k-sweep", dest="k_sweep",
                   help="K_MIN,K_MAX exact-k Sharpe sweep CSV")
    common(p)
    p.set_defaults(func=cmd_backtest)

    p = sub.add_parser("track", help="sparse index-tracking path")
    p.add_argument("--panel", help="asset panel (canonical CSV or raw layout)")
    p.add_argument("--index", help="JSON array of index returns")
    p.add_argument("--spreads", help="JSON array of per-asset costs")
    common(p)
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("hedge", help="sparse scenario-hedging path")
    p.add_argument("--scenario", help="scenario JSON document")
    common(p)
    p.set_defaults(func=cmd_hedge)

    p = sub.add_parser("adjust", help="sparse adjustment of existing holdings")
    p.add_argument("--panel", help="asset panel (canonical CSV or raw layout)")
    p.add_argument("--current", help="JSON array of current holdings")
    p.add_argument("--target-return", type=float, dest="target_return")
    p.add_argument("--spreads", help="JSON array of adjustment costs")
    common(p)
    p.set_defaults(func=cmd_adjust)
    return top


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING,
                        format="%(message)s")
    args = _build_parser().parse_args(argv)
    try:
        args = _merge_config(args)
        if args.out is None:
            args.out = "."
        return args.func(args)
    except InputError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
