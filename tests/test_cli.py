"""End-to-end command-line checks run through a real subprocess."""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np

from sparsefolio import ReturnPanel, add_months
from sparsefolio.market_data import panel_to_csv

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def run_cli(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "sparsefolio.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
    )


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def identity_problem(**extra):
    doc = {"design": [[1.0, 0.0], [0.0, 1.0]], "target": [3.0, 1.0]}
    doc.update(extra)
    return doc


def synthetic_panel_csv(tmp_path, n=4, seed=0, months=48):
    rng = np.random.default_rng(seed)
    panel = ReturnPanel(
        returns=0.05 * rng.standard_normal((months, n)) + 0.01,
        dates=tuple(add_months((1976, 7), k) for k in range(months)),
        asset_names=tuple(f"A{k}" for k in range(n)),
    )
    dest = tmp_path / "panel.csv"
    dest.write_text(panel_to_csv(panel), encoding="utf-8")
    return str(dest), panel


# --- solve ---

def test_solve_identity_path(tmp_path):
    problem = write_json(tmp_path / "p.json", identity_problem())
    out = tmp_path / "out"
    proc = run_cli("solve", "--problem", problem, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert "path.json" in proc.stdout
    doc = json.loads((out / "path.json").read_text())
    assert doc["tau_0"] == 6.0
    assert [bp["tau"] for bp in doc["breakpoints"]] == [6.0, 2.0, 0.0]
    assert doc["breakpoints"][-1]["weights"] == [3.0, 1.0]
    assert doc["breakpoints"][0]["event"]["kind"] == "START"


def test_solve_empty_constraints_same_bytes(tmp_path):
    plain = write_json(tmp_path / "a.json", identity_problem())
    empty = write_json(tmp_path / "b.json", identity_problem(
        constraints={"matrix": [], "rhs": []}))
    out_a, out_b = tmp_path / "oa", tmp_path / "ob"
    assert run_cli("solve", "--problem", plain, "--out", str(out_a)).returncode == 0
    assert run_cli("solve", "--problem", empty, "--out", str(out_b)).returncode == 0
    assert (out_a / "path.json").read_bytes() == (out_b / "path.json").read_bytes()


def test_solve_csv_format(tmp_path):
    problem = write_json(tmp_path / "p.json", identity_problem())
    out = tmp_path / "out"
    proc = run_cli("solve", "--problem", problem, "--out", str(out),
                   "--format", "csv")
    assert proc.returncode == 0, proc.stderr
    lines = (out / "path.csv").read_text().splitlines()
    assert lines[0] == "tau,event,active_set,w0,w1"
    assert lines[1].split(",")[0] == "6"
    assert lines[1].split(",")[1] == "START"


def test_solve_constrained_writes_multipliers(tmp_path):
    problem = write_json(tmp_path / "p.json", identity_problem(
        constraints={"matrix": [[1.0, 1.0]], "rhs": [1.0]}))
    out = tmp_path / "out"
    proc = run_cli("solve", "--problem", problem, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((out / "path.json").read_text())
    for bp in doc["breakpoints"]:
        assert "multipliers" in bp
        assert abs(sum(bp["weights"]) - 1.0) <= 1e-10


def test_solve_infeasible_constraints_exit_3(tmp_path):
    problem = write_json(tmp_path / "p.json", identity_problem(
        constraints={"matrix": [[1.0, 0.0], [1.0, 0.0]], "rhs": [1.0, 2.0]}))
    proc = run_cli("solve", "--problem", problem, "--out", str(tmp_path))
    assert proc.returncode == 3
    assert "InfeasibleConstraints" in proc.stderr


def test_missing_file_exit_2(tmp_path):
    proc = run_cli("solve", "--problem", str(tmp_path / "nope.json"))
    assert proc.returncode == 2
    assert "InputError" in proc.stderr


# --- config file ---

def test_config_supplies_flags(tmp_path):
    problem = write_json(tmp_path / "p.json", identity_problem())
    out = tmp_path / "out"
    config = write_json(tmp_path / "cfg.json", {
        "problem": problem, "out": str(out), "format": "csv"})
    proc = run_cli("solve", "--config", config)
    assert proc.returncode == 0, proc.stderr
    assert (out / "path.csv").exists()


def test_explicit_flag_beats_config(tmp_path):
    problem = write_json(tmp_path / "p.json", identity_problem())
    out = tmp_path / "out"
    config = write_json(tmp_path / "cfg.json", {
        "problem": problem, "out": str(out), "format": "csv"})
    proc = run_cli("solve", "--config", config, "--format", "json")
    assert proc.returncode == 0, proc.stderr
    assert (out / "path.json").exists()
    assert not (out / "path.csv").exists()


def test_unknown_config_key_exit_2(tmp_path):
    config = write_json(tmp_path / "cfg.json", {"problemz": "x"})
    proc = run_cli("solve", "--config", config)
    assert proc.returncode == 2
    assert "problemz" in proc.stderr


# --- backtest ---

def test_backtest_outputs(tmp_path):
    data, panel = synthetic_panel_csv(tmp_path)
    out = tmp_path / "out"
    proc = run_cli("backtest", "--data", data, "--out", str(out),
                   "--start", "1978-06", "--end", "1979-06",
                   "--training-months", "24")
    assert proc.returncode == 0, proc.stderr
    report = json.loads((out / "report.json").read_text())
    assert report["years"] == [1978, 1979]
    assert report["policy"] == "no-short"
    table = (out / "table.csv").read_text().splitlines()
    assert table[0].startswith("period,")
    counts = (out / "active_counts.csv").read_text().splitlines()
    assert counts[0] == "year,active_count"
    assert len(counts) == 3
    # stdout carries the full-span percent cells
    cells = proc.stdout.strip().splitlines()[-1].split(" ")
    assert len(cells) == 3
    assert all("." in c for c in cells)


def test_backtest_byte_identical_reruns(tmp_path):
    data, _ = synthetic_panel_csv(tmp_path, seed=1)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        proc = run_cli("backtest", "--data", data, "--out", str(out),
                       "--start", "1978-06", "--end", "1979-06",
                       "--training-months", "24")
        assert proc.returncode == 0, proc.stderr
    for name in ("report.json", "table.csv", "active_counts.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_backtest_paper_mode_stdout(tmp_path):
    data, _ = synthetic_panel_csv(tmp_path, seed=2)
    out = tmp_path / "out"
    proc = run_cli("backtest", "--data", data, "--out", str(out),
                   "--start", "1978-06", "--end", "1979-06",
                   "--training-months", "24", "--paper-mode")
    assert proc.returncode == 0, proc.stderr
    cells = proc.stdout.strip().splitlines()[-1].split(" ")
    assert len(cells) == 3
    for c in cells:
        int(c)  # integers only in paper mode


def test_backtest_single_construction_year(tmp_path):
    data, _ = synthetic_panel_csv(tmp_path, seed=3)
    out = tmp_path / "out"
    proc = run_cli("backtest", "--data", data, "--out", str(out),
                   "--start", "1979-06", "--end", "1979-06",
                   "--training-months", "24")
    assert proc.returncode == 0, proc.stderr
    report = json.loads((out / "report.json").read_text())
    assert report["years"] == [1979]
    assert len(report["series"]["months"]) == 12


def test_backtest_k_sweep_file(tmp_path):
    data, _ = synthetic_panel_csv(tmp_path, seed=4)
    out = tmp_path / "out"
    proc = run_cli("backtest", "--data", data, "--out", str(out),
                   "--start", "1978-06", "--end", "1979-06",
                   "--training-months", "24", "--k-sweep", "1,4")
    assert proc.returncode == 0, proc.stderr
    lines = (out / "sharpe_vs_k.csv").read_text().splitlines()
    assert lines[0] == "k,sharpe"
    assert len(lines) == 5


def test_backtest_raw_layout_asset_count(tmp_path):
    # a raw monthly-percent file: the asset count is inferred, or checked
    # against --assets when given
    rng = np.random.default_rng(5)
    lines = ["Banner line", "      A0 A1 A2 A3"]
    for k in range(48):
        y, m = add_months((1976, 7), k)
        cells = " ".join(f"{v:.2f}" for v in 5.0 * rng.standard_normal(4) + 1.0)
        lines.append(f"{y:04d}{m:02d} {cells}")
    data = tmp_path / "raw.txt"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    reports = []
    for extra in ([], ["--assets", "4"]):
        out = tmp_path / f"out{len(extra)}"
        proc = run_cli("backtest", "--data", str(data), "--out", str(out),
                       "--start", "1978-06", "--end", "1979-06",
                       "--training-months", "24", *extra)
        assert proc.returncode == 0, proc.stderr
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]
    proc = run_cli("backtest", "--data", str(data), "--out", str(tmp_path / "bad"),
                   "--assets", "5")
    assert proc.returncode == 2
    assert "WrongColumnCount" in proc.stderr


# --- track / hedge / adjust ---

def test_track_exact_copy_reaches_zero(tmp_path):
    data, panel = synthetic_panel_csv(tmp_path, seed=5, n=3)
    index = write_json(tmp_path / "index.json",
                       [float(v) for v in panel.returns[:, 1]])
    out = tmp_path / "out"
    proc = run_cli("track", "--panel", data, "--index", index,
                   "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    rows = (out / "frontier.csv").read_text().splitlines()
    assert rows[0] == "tau,quadratic,l1_cost"
    last = rows[-1].split(",")
    assert float(last[0]) == 0.0
    assert float(last[1]) <= 1e-16  # the panel contains the index itself
    doc = json.loads((out / "path.json").read_text())
    endpoint = doc["breakpoints"][-1]["weights"]
    assert abs(endpoint[1] - 1.0) <= 1e-8


def test_hedge_zero_book_is_trivial(tmp_path):
    scenario = write_json(tmp_path / "s.json", {
        "pnl_existing": [0.0, 0.0, 0.0, 0.0],
        "pnl_unit": [[1.0, 0.5], [-0.3, 0.2], [0.4, -0.1], [0.0, 0.3]],
        "probabilities": [0.25, 0.25, 0.25, 0.25],
        "spreads": [1.0, 1.0],
    })
    out = tmp_path / "out"
    proc = run_cli("hedge", "--scenario", scenario, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    rows = (out / "frontier.csv").read_text().splitlines()
    assert rows[1:] == ["0,0,0"]  # nothing to hedge


def test_adjust_starts_from_zero_trades(tmp_path):
    data, panel = synthetic_panel_csv(tmp_path, seed=6)
    current = write_json(tmp_path / "w.json", [0.25, 0.25, 0.25, 0.25])
    out = tmp_path / "out"
    proc = run_cli("adjust", "--panel", data, "--current", current,
                   "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    rows = (out / "frontier.csv").read_text().splitlines()
    first = rows[1].split(",")
    assert first[2] == "0"  # no trades at the start of the path
    doc = json.loads((out / "path.json").read_text())
    assert doc["breakpoints"][0]["weights"] == [0.0, 0.0, 0.0, 0.0]
