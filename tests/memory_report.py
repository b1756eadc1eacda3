"""Traced peak memory of every CLI job of the benchmark workloads.

For one seed, the inputs of the three workloads of perfbench/inputs.py
(backtest, adjust, wide) are written to a temporary directory, and each
job's CLI call is run once to warm up and once under tracemalloc. Run from
the root of a checkout:

    python3 tests/memory_report.py [SEED]

For every job it prints the size of the input files it reads, the traced
peak of the call (memory allocated during the call and live at its peak)
and the phase in which that peak occurred. A phase is the stack of CLI
steps running at the time, such as ``_load_panel > panel_from_csv`` or
``_emit_path > dumps``; ``main`` is the call outside every named step.

This file is a script, not a test module; pytest does not collect it.
"""
from __future__ import annotations

import contextlib
import functools
import io
import os
import sys
import tempfile
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
for _dir in ("src", "perfbench"):
    sys.path.insert(0, os.path.join(HERE, os.pardir, _dir))

import inputs  # noqa: E402
from sparsefolio import cli, jsonio  # noqa: E402

# the CLI's steps, by module; a name a module lacks is skipped
PHASES = {
    cli: ("_read_json", "_read_text", "_load_panel", "panel_from_csv",
          "parse_ff_file", "_load_problem_doc", "_load_scenario_doc",
          "build_tracking_problem", "build_adjustment_problem",
          "build_hedging_problem", "run_exercise", "k_sweep", "solve_path",
          "solve_constrained_path", "solve_portfolio_path", "_emit_path",
          "_path_to_dict", "_path_to_csv", "_frontier_csv", "report_to_dict",
          "stats_table_csv", "active_counts_csv", "sharpe_vs_k_csv",
          "_write_text"),
    jsonio: ("dumps",),
}
MB = 1024.0 * 1024.0


class PeakTracker:
    """The largest traced peak seen, and the phase stack it was seen under."""

    def __init__(self):
        self.stack = ["main"]
        self.peak = 0
        self.phase = "main"

    def mark(self) -> None:
        """Close the current segment: keep its peak if largest, then reset."""
        peak = tracemalloc.get_traced_memory()[1]
        if peak > self.peak:
            self.peak = peak
            self.phase = " > ".join(self.stack[1:]) or "main"
        tracemalloc.reset_peak()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.mark()
            self.stack.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.mark()
                self.stack.pop()
        return traced


@contextlib.contextmanager
def phases_traced(tracker):
    """Wrap every named step in tracker for the duration of the block."""
    saved = [(mod, name, getattr(mod, name))
             for mod, names in PHASES.items() for name in names
             if hasattr(mod, name)]
    for mod, name, fn in saved:
        setattr(mod, name, tracker.wrap(name, fn))
    try:
        yield
    finally:
        for mod, name, fn in saved:
            setattr(mod, name, fn)


def input_bytes(job) -> int:
    """Total size of the files named in the job's arguments."""
    return sum(os.path.getsize(a) for a in job.argv if os.path.isfile(a))


def traced_call(argv):
    """(exit code, traced peak in bytes, phase) of one CLI call."""
    tracker = PeakTracker()
    with contextlib.redirect_stdout(io.StringIO()), phases_traced(tracker):
        tracemalloc.start()
        try:
            code = cli.main(argv)
            tracker.mark()
        finally:
            tracemalloc.stop()
    return code, tracker.peak, tracker.phase


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    seed = int(argv[0]) if argv else 0
    print(f"seed {seed}")
    with tempfile.TemporaryDirectory() as work:
        for name in inputs.SIZES:  # backtest, adjust, wide
            wl = inputs.write_inputs(name, seed, os.path.join(work, name))
            for job in wl.jobs:
                with contextlib.redirect_stdout(io.StringIO()):
                    cli.main(job.argv)  # warm-up: lazy imports and caches
                code, peak, phase = traced_call(job.argv)
                label = f"{name} {job.argv[0]} N={job.n_assets}"
                print(f"  {label:<22} input {input_bytes(job) / MB:5.2f} MB"
                      f"  peak {peak / MB:6.2f} MB ({peak / input_bytes(job):4.2f}x)"
                      f"  exit {code}  in {phase}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
