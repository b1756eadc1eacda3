"""Outcome counts of the near-equal-means pool, fully solved and as reported.

The pool is adversarial_exercise(seed, n, {"near-equal-means"}) from
test_backtest.py over seeds 0-399 and n in {3, 6}: 800 two-year exercises,
1600 construction years. Run from the root of a checkout:

    python3 tests/pool_report.py

It prints two blocks.

Fully solved: each year's problem is built and its whole path solved with
solve_portfolio_path. Printed are the build errors by class, the
SolverErrors by class and message (numbers masked), the paths returned, and
the paths whose every breakpoint passes perfbench/certify.violation with
the path's own multipliers.

Reported: run_exercise (no-short) and k_sweep over k = 1..n on the same
exercises, compared with the same selections read off the fully solved
paths. Printed are the failed years; the years and sweep cells that have a
value only in the report, or only on the fully solved paths; the values
that differ; and how many cells that gained a value use a chosen
breakpoint that fails the certificate.

This file is a script, not a test module; pytest does not collect it.
"""
from __future__ import annotations

import os
import re
import sys
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
for _dir in ("src", "tests", "perfbench"):
    sys.path.insert(0, os.path.join(HERE, os.pardir, _dir))

import numpy as np  # noqa: E402
from certify import violation  # noqa: E402
from sparsefolio import (  # noqa: E402
    InputError,
    MarkowitzSpec,
    MonthlySeries,
    SolverError,
    add_months,
    build_markowitz_problem,
    compute_stats,
    k_sweep,
    run_exercise,
    select_no_short,
    solve_portfolio_path,
    window,
)
from test_backtest import adversarial_exercise  # noqa: E402

SEEDS = range(400)
SIZES = (3, 6)


def _masked(message: str) -> str:
    return re.sub(r"(?<!/)[-+]?\b\d[\d.]*(e[-+]?\d+)?", "#", message)


def _worst(problem, constraints, bp) -> float:
    return violation(problem.design, problem.target, problem.penalty_weights,
                     bp.tau, bp.weights, constraints.matrix, constraints.rhs,
                     bp.multipliers)


def _first_with(breakpoints, k):
    """The first breakpoint with exactly k assets, or None."""
    for bp in breakpoints:
        if np.count_nonzero(bp.weights) == k:
            return bp
    return None


def _solved_years(panel, config):
    """Per year: (problem, constraints, whole path or its error), or the
    build error."""
    out = []
    for year in range(config.first_construction[0],
                      config.last_construction[0] + 1):
        train = window(panel, add_months((year, 6), 1 - config.training_months),
                       config.training_months)
        rho = float(train.returns.mean(axis=1).mean())
        try:
            problem, constraints = build_markowitz_problem(
                MarkowitzSpec(target_return=rho, training_panel=train))
        except InputError as exc:
            out.append(exc)
            continue
        try:
            path = solve_portfolio_path(problem, constraints)
        except SolverError as exc:
            path = exc
        out.append((problem, constraints, path))
    return out


def _whole_sweep(solved, report, k):
    """(picks, stats) of k on the whole paths; picks is None if a year
    lacks k, and stats None then or when the pooled statistics fail."""
    picks, months, values = [], [], []
    for built, lazy in zip(solved, report.constructions):
        if isinstance(built, Exception) or isinstance(built[2], Exception):
            return None, None
        bp = _first_with(built[2].breakpoints, k)
        if bp is None:
            return None, None
        picks.append(bp)
        months.extend(lazy[2].dates)
        values.extend(lazy[2].returns @ bp.weights)
    try:
        return picks, compute_stats(MonthlySeries(months, np.array(values)),
                                    report.evaluation_periods[0])
    except (InputError, SolverError):
        return picks, None


def main() -> int:
    builds, solver, c = Counter(), Counter(), Counter()
    for seed in SEEDS:
        for n in SIZES:
            panel, config = adversarial_exercise(seed, n, {"near-equal-means"})
            solved = _solved_years(panel, config)
            report = run_exercise(panel, config)
            sweep = dict(k_sweep(report, 1, n))
            for built, sel, lazy in zip(solved, report.selections,
                                        report.constructions):
                c["years"] += 1
                whole = None
                if isinstance(built, Exception):
                    builds[type(built).__name__] += 1
                elif isinstance(built[2], Exception):
                    solver[f"{type(built[2]).__name__}: {_masked(str(built[2]))}"] += 1
                else:
                    problem, constraints, path = built
                    c["returned"] += 1
                    worst = max(_worst(problem, constraints, bp)
                                for bp in path.breakpoints)
                    c["certified"] += worst <= 1.0
                    try:
                        whole = select_no_short(path, problem)
                    except SolverError:
                        pass
                if sel is None:
                    c["report failed"] += 1
                    c["failed only in report"] += whole is not None
                elif whole is None:
                    c["selected only in report"] += 1
                    worst = _worst(built[0], built[1], next(iter(lazy[1])))
                    c["of them, START fails certificate"] += worst > 1.0
                    c["worst such START (tolerances)"] = max(
                        c["worst such START (tolerances)"], worst)
                else:
                    c["selections that differ"] += not (
                        sel.tau == whole.tau
                        and np.array_equal(sel.weights, whole.weights))
            for k, stats in sweep.items():
                picks, whole_stats = _whole_sweep(solved, report, k)
                c["sweep cells"] += 1
                if stats is None:
                    c["cells with a value only on whole paths"] += (
                        whole_stats is not None)
                elif picks is None:
                    c["cells with a value only in report"] += 1
                    bad = any(_worst(b[0], b[1], _first_with(lazy[1], k)) > 1.0
                              for b, lazy in zip(solved, report.constructions))
                    c["of them, using an uncertified breakpoint"] += bad
                else:
                    c["cell values that differ"] += stats != whole_stats
    print("fully solved")
    print(f"  years: {c['years']}")
    for name, count in sorted(builds.items()):
        print(f"  {name}: {count}")
    for name, count in sorted(solver.items()):
        print(f"  {name}: {count}")
    print(f"  SolverError total: {sum(solver.values())}")
    print(f"  paths returned: {c['returned']}")
    print(f"  paths certified: {c['certified']}")
    print("reported (run_exercise no-short, k_sweep 1..n)")
    for name in ("report failed", "failed only in report",
                 "selected only in report", "of them, START fails certificate",
                 "worst such START (tolerances)", "selections that differ",
                 "sweep cells", "cells with a value only in report",
                 "of them, using an uncertified breakpoint",
                 "cells with a value only on whole paths",
                 "cell values that differ"):
        value = c[name]
        print(f"  {name}: {value:.3g}" if isinstance(value, float)
              else f"  {name}: {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
