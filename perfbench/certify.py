"""Independent stationarity certificate for the CLI's written outputs.

Every check starts from the generated inputs and the files the CLI wrote;
nothing the solver computed for itself (generalized residuals, active sets,
events) is read. At penalty level tau with weights w and multipliers lam the
residual is

    g = (R^T (y - R w) + A^T lam) / s

and w is optimal when g_i = sgn(w_i) tau/2 wherever w_i != 0 and
|g_i| <= tau/2 elsewhere, with A w = a. The tolerances are those of the
release criterion on KKT certificates, scaled the way the inputs are:
stationarity within STAT_TOL * max(1, max|R^T y / s|) and the constraint
residual within CONS_TOL * max(1, max|a|).

report.json holds only the selected weights of each year, not the
multipliers, so for a backtest year lam is the least-squares fit of the
equations on the nonzero weights; path.json carries lam and it is used.
"""
from __future__ import annotations

import json
import os

import numpy as np

from inputs import TRAINING_MONTHS

STAT_TOL = 1e-9
CONS_TOL = 1e-10


def violation(R, y, s, tau, w, A=None, a=None, lam=None) -> float:
    """Worst certificate residual of one point, in units of its tolerance.

    A value above 1 fails the certificate. lam=None with constraints fits
    the multipliers on the nonzero weights by least squares.
    """
    w = np.asarray(w, dtype=float)
    s = np.ones(w.shape[0]) if s is None else np.asarray(s, dtype=float)
    half = tau / 2.0
    nz = w != 0.0
    g0 = R.T @ (y - R @ w)
    worst = 0.0
    if A is not None:
        if lam is None:
            rhs = half * np.sign(w[nz]) * s[nz] - g0[nz]
            lam = np.linalg.lstsq(A[:, nz].T, rhs, rcond=None)[0]
        g0 = g0 + A.T @ np.asarray(lam, dtype=float)
        cons = float(np.max(np.abs(A @ w - a)))
        worst = cons / (CONS_TOL * max(1.0, float(np.max(np.abs(a)))))
    g = g0 / s
    on = np.abs(g[nz] - half * np.sign(w[nz]))
    off = np.abs(g[~nz]) - half
    stat = max(float(on.max(initial=0.0)), float(off.max(initial=0.0)), 0.0)
    scale = max(1.0, float(np.max(np.abs(R.T @ y / s))))
    return max(worst, stat / (STAT_TOL * scale))


def _load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def check_path_file(job, path_doc) -> float:
    """Worst violation over every breakpoint of one written path."""
    worst = 0.0
    for bp in path_doc["breakpoints"]:
        worst = max(worst, violation(
            job.design, job.target, job.spreads, bp["tau"], bp["weights"],
            job.matrix, job.rhs, bp.get("multipliers")))
    return worst


def check_report(job, report) -> list:
    """(year, worst violation) of every construction year that selected."""
    out = []
    months = job.labels
    for sel in report["selections"]:
        if sel["failed"]:
            continue
        year = sel["year"]
        end = months.index(f"{year:04d}-06") + 1
        R = job.design[end - TRAINING_MONTHS:end]
        rho = float(R.mean(axis=1).mean())
        A = np.vstack([R.mean(axis=0), np.ones(R.shape[1])])
        out.append((year, violation(
            R, np.full(R.shape[0], rho), None, sel["tau"], sel["weights"],
            A, np.array([rho, 1.0]))))
    return out


# an op whose weights differ from the stored reference by more than this fails
REFERENCE_TOL = 1e-8


def reference_mismatches(report, reference: dict) -> int:
    """Selected years whose weights differ from the stored reference.

    reference maps a year (as a string) to [[index, weight], ...] of its
    nonzero weights.
    """
    bad = 0
    for sel in report["selections"]:
        if sel["failed"]:
            continue
        w = np.asarray(sel["weights"], dtype=float)
        ref = np.zeros(w.shape[0])
        for i, v in reference.get(str(sel["year"]), []):
            ref[i] = v
        if str(sel["year"]) not in reference or np.max(np.abs(w - ref)) > REFERENCE_TOL:
            bad += 1
    return bad


def verify_job(job, reference=None) -> dict:
    """Certificates of every path one CLI call returned.

    Returns the ops that failed (a failed year, a year off the stored
    reference when one is given, or every op of a call whose outputs are
    missing) and, per returned path, its label and worst violation.
    """
    try:
        if job.kind == "backtest":
            report = _load(os.path.join(job.out, "report.json"))
            failed = sum(1 for sel in report["selections"] if sel["failed"])
            failed += job.ops - len(report["selections"])
            if reference is not None:
                failed += reference_mismatches(report, reference)
            paths = [(f"n{job.n_assets}/{y}", v) for y, v in check_report(job, report)]
        else:
            doc = _load(os.path.join(job.out, "path.json"))
            failed = 0
            paths = [(os.path.basename(job.out), check_path_file(job, doc))]
    except (OSError, ValueError, KeyError):
        return {"failed": job.ops, "paths": []}
    return {"failed": failed, "paths": paths}
