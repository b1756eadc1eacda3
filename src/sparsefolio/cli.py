"""Command-line front end.

Commands: solve, backtest, track, hedge, adjust. Every flag can also come
from a JSON config file (--config), with explicit flags taking precedence.
Machine outputs are byte-identical across runs on identical inputs: JSON via
the deterministic emitter, CSV floats at 17 significant digits.

Input files are read as UTF-8, with or without a byte-order mark. A
parsed JSON document is dropped as soon as its arrays are built, so it is
not held through the solve and the write.

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
    k_sweep,
    pct_cell,
    report_to_dict,
    run_exercise,
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
    """The file's text; a leading UTF-8 byte-order mark is dropped."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
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


def _floats(value, what: str, scalar: bool = False):
    """value as a float array (one float if scalar); bad input is an InputError."""
    try:
        return float(value) if scalar else np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        shape = "a number" if scalar else "a rectangular array of numbers"
        raise InputError(f"{what} must be {shape}")


def _ints(value, what: str) -> int:
    """value as an int: an int or a string of digits; else an InputError."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    text = value.strip() if isinstance(value, str) else ""
    if text.isascii() and text.isdigit():
        return int(text)
    raise InputError(f"{what} must be a whole number, got {value!r}")


def _require(args, name: str):
    value = getattr(args, name.replace("-", "_"), None)
    if value is None:
        raise InputError(f"missing required input --{name}")
    return value


# --- shared emitters ---

def _event_dict(event) -> dict:
    return {"kind": event.kind, "entered": event.entered, "left": event.left}


def _path_to_dict(path) -> dict:
    bps = []
    for bp in path.breakpoints:
        row = {"tau": float(bp.tau), "weights": bp.weights}
        if len(bp.multipliers):
            row["multipliers"] = bp.multipliers
        row["active_set"] = bp.active_set
        row["event"] = _event_dict(bp.event)
        bps.append(row)
    return {"tau_0": float(path.breakpoints[0].tau), "breakpoints": bps}


def _path_to_csv(path) -> str:
    n = len(path.breakpoints[0].weights)
    m = len(path.breakpoints[0].multipliers)
    header = ["tau", "event", "active_set"]
    header += [f"w{i}" for i in range(n)]
    header += [f"lambda{j}" for j in range(m)]
    lines = [",".join(header)]
    for bp in path.breakpoints:
        cells = [
            jsonio.format_float(bp.tau),
            bp.event.kind,
            ";".join(str(i) for i in bp.active_set),
            jsonio.format_numbers(bp.weights, ","),
        ]
        if m:
            cells.append(jsonio.format_numbers(bp.multipliers, ","))
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


def _emit_path(path, args, problem=None, per_period: bool = False) -> None:
    """Write the path file, then frontier.csv when problem is given.

    Every file's text is built before the first one is written, so a
    failure leaves no partial output.
    """
    if (args.format or "json") == "csv":
        files = [("path.csv", _path_to_csv(path))]
    else:
        files = [("path.json", jsonio.dumps(_path_to_dict(path)))]
    if problem is not None:
        files.append(("frontier.csv", _frontier_csv(path, problem, per_period)))
    for name, text in files:
        print(f"wrote {_write_text(args.out, name, text)}")


# --- commands ---

def _load_problem_doc(doc):
    if not isinstance(doc, dict):
        raise InputError("problem document must be a JSON object")
    for key in ("design", "target"):
        if key not in doc:
            raise InputError(f"problem document missing {key!r}")
    problem = PenalizedProblem(
        design=_floats(doc["design"], "design"),
        target=_floats(doc["target"], "target"),
        penalty_weights=(_floats(doc["penalty_weights"], "penalty_weights")
                         if doc.get("penalty_weights") is not None else None),
        tau_stop=_floats(doc.get("tau_stop", 0.0), "tau_stop", scalar=True),
    )
    block = doc.get("constraints")
    if block is not None and not isinstance(block, dict):
        raise InputError("constraints block must be a JSON object")
    matrix = _floats((block or {}).get("matrix", []), "constraints matrix")
    if not matrix.size:
        return problem, AffineConstraints(np.zeros((0, problem.n_assets)), np.zeros(0))
    if "rhs" not in block:
        raise InputError("constraints block missing 'rhs'")
    constraints = AffineConstraints(
        matrix=matrix, rhs=_floats(block["rhs"], "constraints rhs"))
    return problem, constraints


def cmd_solve(args) -> int:
    doc = _read_json(_require(args, "problem"))
    problem, constraints = _load_problem_doc(doc)
    del doc
    _emit_path(solve_constrained_path(problem, constraints), args)
    return 0


def _load_panel(path_arg: str, n_assets=None):
    """Read a canonical CSV panel or a raw-layout file.

    Either must have n_assets value columns; None takes the count from the
    file (the CSV header, or a raw file's first data row).
    """
    text = _read_text(path_arg)
    n = _ints(n_assets, "--assets") if n_assets is not None else None
    parse = panel_from_csv if text.lstrip().startswith("date,") else parse_ff_file
    return parse(text, n)


def cmd_backtest(args) -> int:
    panel = _load_panel(_require(args, "data"), args.assets)

    kind = args.policy or "no-short"
    if kind == "exact-k":
        policy = Policy.exact_k(_ints(_require(args, "k"), "--k"))
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
        training_months=(60 if args.training_months is None
                         else _ints(args.training_months, "--training-months")),
        policy=policy,
    )
    report = run_exercise(panel, config)
    paper = bool(args.paper_mode)
    _write_text(args.out, "report.json", jsonio.dumps(report_to_dict(report)))
    _write_text(args.out, "table.csv", stats_table_csv(report, paper_mode=paper))
    _write_text(args.out, "active_counts.csv", active_counts_csv(report))
    if args.k_sweep is not None:
        lo, hi = _parse_pair(args.k_sweep, "--k-sweep")
        _write_text(args.out, "sharpe_vs_k.csv",
                    sharpe_vs_k_csv(k_sweep(report, lo, hi)))
    full = report.stats[0]
    if full is not None:
        print(" ".join(pct_cell(v, paper)
                       for v in (full.mean_monthly, full.std_monthly, full.sharpe)))
    return 0


def cmd_track(args) -> int:
    panel = _load_panel(_require(args, "panel"))
    index = _floats(_read_json(_require(args, "index")), "--index")
    spreads = (_floats(_read_json(args.spreads), "--spreads")
               if args.spreads is not None else np.ones(panel.n_assets))
    problem = build_tracking_problem(index, panel, spreads)
    _emit_path(solve_path(problem), args, problem, per_period=True)
    return 0


def cmd_hedge(args) -> int:
    doc = _read_json(_require(args, "scenario"))
    if not isinstance(doc, dict):
        raise InputError("scenario document must be a JSON object")
    fields = ("pnl_existing", "pnl_unit", "probabilities", "spreads")
    for key in fields:
        if key not in doc:
            raise InputError(f"scenario document missing {key!r}")
    scenario = HedgingScenario(**{key: _floats(doc[key], key) for key in fields})
    del doc
    problem = build_hedging_problem(scenario)
    _emit_path(solve_path(problem), args, problem)
    return 0


def cmd_adjust(args) -> int:
    panel = _load_panel(_require(args, "panel"))
    current = _floats(_read_json(_require(args, "current")), "--current")
    if args.target_return is not None:
        rho = _floats(args.target_return, "--target-return", scalar=True)
    else:
        rho = float(panel.returns.mean(axis=1).mean())
    spreads = (_floats(_read_json(args.spreads), "--spreads")
               if args.spreads is not None else None)
    spec = MarkowitzSpec(target_return=rho, training_panel=panel,
                         penalty_weights=spreads)
    problem, constraints = build_adjustment_problem(current, spec)
    _emit_path(solve_portfolio_path(problem, constraints), args, problem)
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

    def path_format(p):
        p.add_argument("--format", choices=["json", "csv"], default=None,
                       help="path file format (default json)")

    p = sub.add_parser("solve", help="solve one penalized problem")
    p.add_argument("--problem", help="problem JSON document")
    path_format(p)
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
    p.add_argument("--paper-mode", action="store_const", const=True,
                   default=None, dest="paper_mode",
                   help="round presentation percentages to integers")
    common(p)
    p.set_defaults(func=cmd_backtest)

    p = sub.add_parser("track", help="sparse index-tracking path")
    p.add_argument("--panel", help="asset panel (canonical CSV or raw layout)")
    p.add_argument("--index", help="JSON array of index returns")
    p.add_argument("--spreads", help="JSON array of per-asset costs")
    path_format(p)
    common(p)
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("hedge", help="sparse scenario-hedging path")
    p.add_argument("--scenario", help="scenario JSON document")
    path_format(p)
    common(p)
    p.set_defaults(func=cmd_hedge)

    p = sub.add_parser("adjust", help="sparse adjustment of existing holdings")
    p.add_argument("--panel", help="asset panel (canonical CSV or raw layout)")
    p.add_argument("--current", help="JSON array of current holdings")
    p.add_argument("--target-return", type=float, dest="target_return")
    p.add_argument("--spreads", help="JSON array of adjustment costs")
    path_format(p)
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
