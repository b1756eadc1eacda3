"""One digest of everything the path engine returns on the test instances.

Solves conftest.random_instance and conftest.markowitz_instance over seeds
0-399 with solve_constrained_path, solve_path (the same problem without its
constraint rows) and find_constrained_start, and prints one sha256 over
every breakpoint field (tau, active set, event, weights, generalized
residual, multipliers, each float by its exact bits) and over the class and
message of every error raised. Two checkouts that print the same digest
compute the same paths bit for bit. Run from the root of a checkout:

    python3 tests/engine_hash.py

This file is a script, not a test module; pytest does not collect it.
"""
from __future__ import annotations

import hashlib
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
for _dir in ("src", "tests"):
    sys.path.insert(0, os.path.join(HERE, os.pardir, _dir))

import numpy as np  # noqa: E402
from conftest import markowitz_instance, random_instance  # noqa: E402
from sparsefolio import (  # noqa: E402
    SparsefolioError,
    find_constrained_start,
    solve_constrained_path,
    solve_path,
)

SEEDS = range(400)


def _floats(digest, x) -> None:
    digest.update(np.asarray(x, dtype="<f8").tobytes())


def _breakpoint(digest, bp) -> None:
    _floats(digest, bp.tau)
    digest.update(repr((bp.active_set, bp.event)).encode())
    for field in (bp.weights, bp.generalized_residual, bp.multipliers):
        _floats(digest, field)


def _record(digest, solve) -> None:
    """Hash what solve() returns, a path or a START, or the error it raises."""
    try:
        out = solve()
    except SparsefolioError as exc:
        digest.update(f"{type(exc).__name__}: {exc}".encode())
        return
    breakpoints = out.breakpoints if hasattr(out, "breakpoints") else out[:1]
    digest.update(str(len(breakpoints)).encode())
    for bp in breakpoints:
        _breakpoint(digest, bp)


def main() -> int:
    digest = hashlib.sha256()
    for make in (random_instance, markowitz_instance):
        for seed in SEEDS:
            problem, constraints = make(seed)
            _record(digest, lambda: solve_constrained_path(problem, constraints))
            _record(digest, lambda: solve_path(problem))
            _record(digest, lambda: find_constrained_start(problem, constraints))
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
