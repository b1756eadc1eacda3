"""Seeded inputs and CLI jobs of the three benchmark workloads.

Every panel follows one 3-factor recipe over monthly dates starting
1970-07: returns = 0.12 + f B^T + 0.2 eps, with factor volatilities
(0.16, 0.10, 0.08), loadings B = 1 + 0.3 N(0, 1) and standard normal
noise, drawn in that order from ``default_rng(seed)``. At seed 0 and
T = 432 this reproduces the 48- and 100-asset panels the roadmap baseline
was measured on.

``write_inputs`` writes the files one workload's jobs read and returns a
``Workload``: the CLI argument lists of one job plus the in-memory arrays
the certificate verifier recomputes from. Files are written by this module,
not by the library, so a change to the library's writers cannot change the
benchmark's inputs.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

FIRST_MONTH = (1970, 7)
FACTOR_VOLS = (0.16, 0.10, 0.08)

# (assets, months) of every panel a workload reads, full size and the tiny
# size used for the set-up warm-up call and the self-test
SIZES = {
    "backtest": {"full": [(48, 432), (100, 432)], "tiny": [(6, 432)]},
    "adjust": {"full": [(48, 432), (100, 432)], "tiny": [(6, 432)]},
    "wide": {"full": [(300, 600)], "tiny": [(12, 40)]},
}

TRAINING_MONTHS = 60
K_SWEEP = (1, 20)
# construction Junes 1976..2005, the CLI defaults
FIRST_YEAR, LAST_YEAR = 1976, 2005


def month_labels(n_months: int) -> list:
    """YYYY-MM labels of n_months consecutive months from FIRST_MONTH."""
    y, m = FIRST_MONTH
    out = []
    for _ in range(n_months):
        out.append(f"{y:04d}-{m:02d}")
        y, m = (y + 1, 1) if m == 12 else (y, m + 1)
    return out


def factor_panel(seed: int, n_assets: int, n_months: int) -> np.ndarray:
    """(n_months, n_assets) annualized decimal returns of the 3-factor recipe."""
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((n_months, 3)) * np.array(FACTOR_VOLS)
    loadings = 1.0 + 0.3 * rng.standard_normal((n_assets, 3))
    eps = rng.standard_normal((n_months, n_assets))
    return 0.12 + f @ loadings.T + 0.2 * eps


def panel_csv(returns: np.ndarray, labels: list) -> str:
    """Canonical panel CSV: a date,<names> header and repr floats."""
    names = [f"a{i:03d}" for i in range(returns.shape[1])]
    lines = ["date," + ",".join(names)]
    for label, row in zip(labels, returns):
        lines.append(label + "," + ",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


@dataclass
class Job:
    """One CLI call: its arguments, output directory and certificate inputs.

    kind says how the verifier reads the outputs: "backtest" (report.json,
    one path start per construction year), "path" (path.json, every
    breakpoint). design/target/spreads/matrix/rhs are the problem as this
    module generated it; labels are the panel's month labels.
    """

    kind: str
    argv: list
    out: str
    design: np.ndarray
    target: np.ndarray | None = None
    spreads: np.ndarray | None = None
    matrix: np.ndarray | None = None
    rhs: np.ndarray | None = None
    labels: list = field(default_factory=list)
    n_assets: int = 0

    @property
    def ops(self) -> int:
        """Ops one call attempts: a construction year or a CLI path."""
        if self.kind == "backtest":
            return LAST_YEAR - FIRST_YEAR + 1
        return 1


@dataclass
class Workload:
    name: str
    jobs: list

    @property
    def ops(self) -> int:
        return sum(job.ops for job in self.jobs)


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def write_inputs(name: str, seed: int, workdir: str, size: str = "full") -> Workload:
    """Write the input files of one workload under workdir."""
    os.makedirs(workdir, exist_ok=True)
    jobs = []
    for n_assets, n_months in SIZES[name][size]:
        returns = factor_panel(seed, n_assets, n_months)
        labels = month_labels(n_months)
        tag = f"n{n_assets}"
        out = os.path.join(workdir, "out", tag)
        if name == "backtest":
            data = os.path.join(workdir, f"panel_{tag}.csv")
            _write(data, panel_csv(returns, labels))
            jobs.append(Job(
                kind="backtest",
                argv=["backtest", "--data", data, "--out", out,
                      "--policy", "no-short",
                      "--k-sweep", f"{K_SWEEP[0]},{K_SWEEP[1]}"],
                out=out, design=returns, labels=labels, n_assets=n_assets))
        elif name == "adjust":
            # the trailing 60 months, rebalancing equal-weight holdings
            tail = returns[-TRAINING_MONTHS:]
            data = os.path.join(workdir, f"panel_{tag}.csv")
            _write(data, panel_csv(tail, labels[-TRAINING_MONTHS:]))
            current = np.full(n_assets, 1.0 / n_assets)
            cur = os.path.join(workdir, f"current_{tag}.json")
            _write(cur, json.dumps([float(v) for v in current]))
            rho = float(tail.mean(axis=1).mean())
            jobs.append(Job(
                kind="path",
                argv=["adjust", "--panel", data, "--current", cur, "--out", out],
                out=out, design=tail, target=rho - tail @ current,
                matrix=np.vstack([tail.mean(axis=0), np.ones(n_assets)]),
                rhs=np.zeros(2), n_assets=n_assets))
        else:
            jobs.extend(_wide_jobs(seed, returns, labels, workdir, out))
    return Workload(name, jobs)


def _wide_jobs(seed, returns, labels, workdir, out):
    """track with weighted spreads; solve with two nonzero-rhs rows."""
    n_months, n_assets = returns.shape
    rng = np.random.default_rng([seed, n_assets])
    mix = rng.uniform(0.0, 1.0, n_assets)
    index = returns @ (mix / mix.sum()) + 0.02 * rng.standard_normal(n_months)
    spreads = rng.uniform(0.5, 1.5, n_assets)
    panel = os.path.join(workdir, "wide_panel.csv")
    _write(panel, panel_csv(returns, labels))
    index_f = os.path.join(workdir, "wide_index.json")
    _write(index_f, json.dumps([float(v) for v in index]))
    spreads_f = os.path.join(workdir, "wide_spreads.json")
    _write(spreads_f, json.dumps([float(v) for v in spreads]))

    # constrained tracking: two random rows that the index's own mix meets,
    # so the start is a cheap two-asset vertex and continuation dominates
    matrix = rng.standard_normal((2, n_assets))
    rhs = matrix @ (mix / mix.sum())
    problem_f = os.path.join(workdir, "wide_problem.json")
    _write(problem_f, json.dumps({
        "design": returns.tolist(),
        "target": index.tolist(),
        "constraints": {"matrix": matrix.tolist(), "rhs": rhs.tolist()},
    }))
    track_out = os.path.join(out, "track")
    solve_out = os.path.join(out, "solve")
    return [
        Job(kind="path",
            argv=["track", "--panel", panel, "--index", index_f,
                  "--spreads", spreads_f, "--out", track_out],
            out=track_out, design=returns, target=index, spreads=spreads,
            n_assets=n_assets),
        Job(kind="path",
            argv=["solve", "--problem", problem_f, "--out", solve_out],
            out=solve_out, design=returns, target=index, matrix=matrix,
            rhs=rhs, n_assets=n_assets),
    ]
