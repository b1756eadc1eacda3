"""Paired timing of this checkout's path engine against another checkout's.

Loads this checkout's sparsefolio and the one under OTHER/src in one
process and times two blocks of benchmark problems, built with
perfbench/inputs.py. Each block is solved with each side in turn,
alternating which side goes first:

- `wide`: the two `wide` problems, the constrained `solve` and the
  weighted `track`;
- `backtest`: the 60 Markowitz problems of the `backtest` workload, one
  per construction June 1976-2005 on each of its 48- and 100-asset panels,
  trained on the trailing 60 months and solved by solve_portfolio_path, as
  the backtest solves them.

Run from the root of a checkout:

    python3 tests/engine_ab.py OTHER [--rounds 21] [--seed 0]

It prints, for each block and side, the min and median time of one round
(every problem of the block); the median of the paired ratio this/other
and the rounds this side won; and whether the two sides' paths agree: on
the block's problems and, last, on the 1600 paths of the engine_hash.py
pool (conftest.random_instance and markowitz_instance over seeds 0-399,
with and without their constraint rows), the breakpoint counts, active
sets and events, and the largest tau and weight difference, each relative
to its largest magnitude along the path. A problem that raises counts as
agreeing when both sides raise the same error class.

BLAS runs on one thread, as in perfbench/run.py. Pairing within one
process resolves differences of a few percent that separate harness runs,
which vary by tens of percent on a shared host, cannot.

This file is a script, not a test module; pytest does not collect it.
"""
from __future__ import annotations

import argparse
import gc
import importlib.util
import os
import sys
import tempfile
import time

# one BLAS thread, set before numpy loads, as perfbench/run.py does
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.join(HERE, os.pardir)
for _dir in ("src", "tests", "perfbench"):
    sys.path.insert(0, os.path.join(ROOT, _dir))

import numpy as np  # noqa: E402
import sparsefolio  # noqa: E402
from conftest import markowitz_instance, random_instance  # noqa: E402
from inputs import (  # noqa: E402
    FIRST_YEAR,
    LAST_YEAR,
    TRAINING_MONTHS,
    write_inputs,
)

POOL_SEEDS = range(400)


def load_other(checkout: str):
    """The sparsefolio package of another checkout, as sparsefolio_other."""
    pkg = os.path.join(os.path.abspath(checkout), "src", "sparsefolio")
    spec = importlib.util.spec_from_file_location(
        "sparsefolio_other", os.path.join(pkg, "__init__.py"),
        submodule_search_locations=[pkg])
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def wide_solvers(pkg, jobs):
    """One callable per `wide` job, solving its problem with pkg."""
    solvers = []
    for job in jobs:
        if job.matrix is None:
            problem = pkg.PenalizedProblem(design=job.design, target=job.target,
                                           penalty_weights=job.spreads)
            solvers.append(lambda p=problem: pkg.solve_path(p))
        else:
            problem = pkg.PenalizedProblem(design=job.design, target=job.target)
            cons = pkg.AffineConstraints(matrix=job.matrix, rhs=job.rhs)
            solvers.append(lambda p=problem, c=cons: pkg.solve_constrained_path(p, c))
    return solvers


def backtest_solvers(pkg, panels):
    """One callable per construction June of each panel's CSV text, solving
    its Markowitz problem with pkg; a solve that raises returns the error
    class name instead."""
    solvers = []
    for text in panels:
        panel = pkg.panel_from_csv(text)
        for year in range(FIRST_YEAR, LAST_YEAR + 1):
            train = pkg.window(panel, pkg.add_months((year, 6), 1 - TRAINING_MONTHS),
                               TRAINING_MONTHS)
            rho = float(train.returns.mean(axis=1).mean())
            problem, cons = pkg.build_markowitz_problem(
                pkg.MarkowitzSpec(target_return=rho, training_panel=train))
            solvers.append(lambda p=problem, c=cons:
                           guarded(pkg, pkg.solve_portfolio_path, p, c))
    return solvers


def guarded(pkg, solve, *args):
    """solve(*args), or the class name of the pkg error it raises."""
    try:
        return solve(*args)
    except pkg.SparsefolioError as exc:
        return type(exc).__name__


def timed(solvers):
    gc.collect()
    t0 = time.perf_counter()
    paths = [solve() for solve in solvers]
    return time.perf_counter() - t0, paths


def relative_gap(xs, ys) -> float:
    x, y = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    scale = max(float(np.abs(y).max(initial=0.0)), 1e-300)
    return float(np.abs(x - y).max(initial=0.0)) / scale


def compare(ours, theirs):
    """(structure agrees, tau gap, weight gap) of two paths."""
    a, b = ours.breakpoints, theirs.breakpoints
    if len(a) != len(b):
        return False, np.inf, np.inf
    same = all(p.active_set == q.active_set and repr(p.event) == repr(q.event)
               for p, q in zip(a, b))
    return (same, relative_gap([p.tau for p in a], [q.tau for q in b]),
            relative_gap([p.weights for p in a], [q.weights for q in b]))


def pool_paths(pkg):
    """The engine_hash.py pool's paths, or the error class each raised."""
    out = []
    for make in (random_instance, markowitz_instance):
        for seed in POOL_SEEDS:
            problem, cons = make(seed)
            p = pkg.PenalizedProblem(design=problem.design, target=problem.target,
                                     penalty_weights=problem.penalty_weights)
            c = pkg.AffineConstraints(matrix=cons.matrix, rhs=cons.rhs)
            for solve in (lambda: pkg.solve_constrained_path(p, c),
                          lambda: pkg.solve_path(p)):
                out.append(guarded(pkg, solve))
    return out


def report_agreement(label, ours, theirs) -> None:
    agree = 0
    tau_gap = weight_gap = 0.0
    for p, q in zip(ours, theirs):
        if isinstance(p, str) or isinstance(q, str):
            agree += p == q
            continue
        same, dt, dw = compare(p, q)
        agree += same
        tau_gap, weight_gap = max(tau_gap, dt), max(weight_gap, dw)
    print(f"{label}: {agree}/{len(ours)} paths with the same breakpoint count, "
          f"active sets and events; largest relative gap tau {tau_gap:.3g}, "
          f"weights {weight_gap:.3g}")


def run_block(label, sides, rounds) -> None:
    """Time one block's solvers on both sides, alternating which goes
    first, and print its times, paired ratio and path agreement."""
    times = {"this": [], "other": []}
    paths = {}
    for r in range(rounds):
        for name in (("this", "other") if r % 2 else ("other", "this")):
            elapsed, paths[name] = timed(sides[name])
            times[name].append(elapsed)
    print(f"{label} ({len(sides['this'])} problems)")
    for name, ts in times.items():
        print(f"{name:>5}: min {min(ts):.4f} s, median {np.median(ts):.4f} s "
              f"over {len(ts)} rounds")
    ratio = np.array(times["this"]) / np.array(times["other"])
    print(f"paired ratio this/other: median {np.median(ratio):.3f}, "
          f"this faster in {int(np.sum(ratio < 1.0))}/{len(ratio)}")
    report_agreement(label, paths["this"], paths["other"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", help="root of the checkout to compare against")
    parser.add_argument("--rounds", type=int, default=21)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    other = load_other(args.other)
    with tempfile.TemporaryDirectory() as workdir:
        jobs = write_inputs("wide", args.seed, workdir).jobs
        panels = []
        for job in write_inputs("backtest", args.seed, workdir).jobs:
            with open(job.argv[job.argv.index("--data") + 1], encoding="utf-8") as fh:
                panels.append(fh.read())
    run_block("wide", {"this": wide_solvers(sparsefolio, jobs),
                       "other": wide_solvers(other, jobs)}, args.rounds)
    run_block("backtest", {"this": backtest_solvers(sparsefolio, panels),
                           "other": backtest_solvers(other, panels)}, args.rounds)
    report_agreement("pool", pool_paths(sparsefolio), pool_paths(other))
    return 0


if __name__ == "__main__":
    sys.exit(main())
