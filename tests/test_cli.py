"""End-to-end command-line checks run through a real subprocess."""

import json
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from sparsefolio import ReturnPanel, add_months, backtest, cli
from sparsefolio.market_data import panel_to_csv

from conftest import degenerate_1979_panel, factor_panel

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


def raw_layout_file(tmp_path, banner="Banner line"):
    """A raw monthly-percent file of 4 assets over 48 months from 1976-07."""
    rng = np.random.default_rng(5)
    lines = [banner, "      A0 A1 A2 A3"]
    for k in range(48):
        y, m = add_months((1976, 7), k)
        cells = " ".join(f"{v:.2f}" for v in 5.0 * rng.standard_normal(4) + 1.0)
        lines.append(f"{y:04d}{m:02d} {cells}")
    data = tmp_path / "raw.txt"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(data)


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


MALFORMED_NUMBERS = {
    "index-object": ("track", "--index", {"a": 1.0}),
    "index-strings": ("track", "--index", ["x"] * 48),
    "current-strings": ("adjust", "--current", ["a", "b", "c", "d"]),
    "spreads-ragged": ("track", "--spreads", [[1.0, 1.0], [1.0]]),
    "design-ragged": ("solve", "design", [[1.0, 0.0], [1.0]]),
    "constraints-list": ("solve", "constraints", [[1.0, 1.0]]),
    "tau_stop-oversized-int": ("solve", "tau_stop", 10**400),
    "index-oversized-int": ("track", "--index", [10**400] * 48),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_NUMBERS))
def test_malformed_numeric_input_exit_2(tmp_path, capsys, case):
    command, field, bad = MALFORMED_NUMBERS[case]
    if command == "solve":
        doc = identity_problem(**{field: bad})
        argv = ["--problem", write_json(tmp_path / "p.json", doc)]
    else:
        data, panel = synthetic_panel_csv(tmp_path)
        inputs = {"--index": [0.01] * len(panel.returns), "--spreads": [1.0] * 4}
        if command == "adjust":
            inputs = {"--current": [0.25] * 4}
        inputs[field] = bad
        argv = ["--panel", data]
        for flag, value in inputs.items():
            argv += [flag, write_json(tmp_path / f"{flag[2:]}.json", value)]
    code = cli.main([command, *argv, "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("InputError") and field in err


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


@pytest.mark.parametrize("command,flag,value", [
    ("solve", "--paper-mode", None),
    ("backtest", "--format", "csv"),
])
def test_flag_the_command_does_not_use_exit_2(tmp_path, command, flag, value):
    # --paper-mode only shapes backtest tables, --format only path files
    argv = [flag] if value is None else [flag, value]
    proc = run_cli(command, *argv, "--out", str(tmp_path))
    assert proc.returncode == 2
    assert flag in proc.stderr
    key = flag[2:].replace("-", "_")
    config = write_json(tmp_path / "cfg.json", {key: value or True})
    proc = run_cli(command, "--config", config)
    assert proc.returncode == 2
    assert "unknown config key" in proc.stderr


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


def test_backtest_k_sweep_solves_each_path_once(tmp_path, monkeypatch):
    data, _ = synthetic_panel_csv(tmp_path, seed=4)
    calls = []
    start = backtest._portfolio_path

    def counted(*args):
        calls.append(args)
        return start(*args)

    monkeypatch.setattr(backtest, "_portfolio_path", counted)
    code = cli.main(["backtest", "--data", data, "--out", str(tmp_path / "out"),
                     "--start", "1978-06", "--end", "1979-06",
                     "--training-months", "24", "--k-sweep", "1,4"])
    assert code == 0
    assert len(calls) == 2  # one path per construction year


def test_backtest_failed_construction_year_exit_0(tmp_path):
    data = tmp_path / "panel.csv"
    data.write_text(panel_to_csv(degenerate_1979_panel()), encoding="utf-8")
    out = tmp_path / "out"
    proc = run_cli("backtest", "--data", str(data), "--out", str(out),
                   "--start", "1978-06", "--end", "1979-06",
                   "--training-months", "24", "--k-sweep", "1,3")
    assert proc.returncode == 0, proc.stderr
    report = json.loads((out / "report.json").read_text())
    assert [(f["year"], f["error"]) for f in report["failures"]] == [
        (1979, "DegeneratePanel")]
    assert [row["failed"] for row in report["selections"]] == [False, True]
    sweep = (out / "sharpe_vs_k.csv").read_text().splitlines()
    assert sweep == ["k,sharpe", "1,", "2,", "3,"]


def test_backtest_raw_layout_asset_count(tmp_path):
    # a raw monthly-percent file: the asset count is inferred, or checked
    # against --assets when given
    data = raw_layout_file(tmp_path)
    reports = []
    for extra in ([], ["--assets", "4"]):
        out = tmp_path / f"out{len(extra)}"
        proc = run_cli("backtest", "--data", data, "--out", str(out),
                       "--start", "1978-06", "--end", "1979-06",
                       "--training-months", "24", *extra)
        assert proc.returncode == 0, proc.stderr
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]
    proc = run_cli("backtest", "--data", data, "--out", str(tmp_path / "bad"),
                   "--assets", "5")
    assert proc.returncode == 2
    assert "WrongColumnCount" in proc.stderr


def test_backtest_csv_asset_count(tmp_path):
    # --assets is checked against a canonical CSV panel as against a raw file
    data, _ = synthetic_panel_csv(tmp_path)
    for assets, code in (("4", 0), ("5", 2)):
        proc = run_cli("backtest", "--data", data, "--out", str(tmp_path / assets),
                       "--start", "1978-06", "--end", "1979-06",
                       "--training-months", "24", "--assets", assets)
        assert proc.returncode == code, proc.stderr
    assert "WrongColumnCount" in proc.stderr


def test_backtest_raw_preamble_with_a_six_digit_token(tmp_path):
    # 000000 is no month: the data rows, not this preamble line, set the count
    reports = []
    for banner in ("Banner line", "000000 rows below are monthly percent"):
        out = tmp_path / f"out{len(banner)}"
        proc = run_cli("backtest", "--data", raw_layout_file(tmp_path, banner),
                       "--out", str(out), "--start", "1978-06", "--end", "1979-06",
                       "--training-months", "24")
        assert proc.returncode == 0, proc.stderr
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]


BAD_CONFIG_INTS = {
    "training-months-text": ("--training-months", {"training_months": "abc"}),
    "training-months-fraction": ("--training-months", {"training_months": 2.5}),
    "k-text": ("--k", {"policy": "exact-k", "k": "abc"}),
    "k-bool": ("--k", {"policy": "exact-k", "k": True}),
    "assets-text": ("--assets", {"assets": "abc"}),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIG_INTS))
def test_backtest_config_non_integer_exit_2(tmp_path, capsys, case):
    flag, doc = BAD_CONFIG_INTS[case]
    config = write_json(tmp_path / "cfg.json", {
        "data": raw_layout_file(tmp_path), "out": str(tmp_path / "out"),
        "start": "1978-06", "end": "1979-06", "training_months": 24, **doc})
    assert cli.main(["backtest", "--config", config]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"InputError: {flag} must be a whole number")


def test_backtest_zero_training_months_exit_2(tmp_path, capsys):
    # 0 is a value, not "unset": it used to fall back to the 60-month default
    code = cli.main(["backtest", "--data", raw_layout_file(tmp_path),
                     "--out", str(tmp_path / "out"), "--training-months", "0"])
    assert code == 2
    assert "training_months must be at least 2" in capsys.readouterr().err


def test_backtest_config_digit_strings_equal_flags(tmp_path):
    data = raw_layout_file(tmp_path)
    config = write_json(tmp_path / "cfg.json", {
        "data": data, "out": str(tmp_path / "cfg"), "start": "1978-06",
        "end": "1979-06", "training_months": "24", "policy": "exact-k",
        "k": "2", "assets": "4"})
    assert cli.main(["backtest", "--config", config]) == 0
    assert cli.main(["backtest", "--data", data, "--out", str(tmp_path / "flags"),
                     "--start", "1978-06", "--end", "1979-06",
                     "--training-months", "24", "--policy", "exact-k",
                     "--k", "2", "--assets", "4"]) == 0
    assert ((tmp_path / "cfg" / "report.json").read_bytes()
            == (tmp_path / "flags" / "report.json").read_bytes())


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
    assert proc.stdout.splitlines() == [f"wrote {out / 'path.json'}",
                                        f"wrote {out / 'frontier.csv'}"]


def test_adjust_failing_frontier_leaves_no_partial_output(tmp_path):
    # a target return of 1e300 overflows the frontier's misfit; the path
    # file must not be written ahead of the failure
    data, _ = synthetic_panel_csv(tmp_path, seed=6)
    current = write_json(tmp_path / "w.json", [0.25, 0.25, 0.25, 0.25])
    out = tmp_path / "out"
    proc = run_cli("adjust", "--panel", data, "--current", current,
                   "--target-return", "1e300", "--out", str(out))
    assert proc.returncode != 0
    assert not out.exists() or not any(out.iterdir())


def test_adjust_reads_byte_order_marked_inputs(tmp_path, capsys):
    """A UTF-8 byte-order mark on the panel and the JSON inputs changes nothing."""
    data, _ = synthetic_panel_csv(tmp_path, seed=6)
    inputs = {"panel": pathlib.Path(data).read_text(encoding="utf-8"),
              "current": json.dumps([0.25, 0.25, 0.25, 0.25]),
              "spreads": json.dumps([1.0, 0.5, 2.0, 1.5])}
    written = []
    for bom in ("", "\ufeff"):
        argv = ["adjust"]
        for flag, text in inputs.items():
            dest = tmp_path / f"{flag}{len(bom)}"
            dest.write_text(bom + text, encoding="utf-8")
            argv += [f"--{flag}", str(dest)]
        out = tmp_path / f"out{len(bom)}"
        assert cli.main(argv + ["--out", str(out)]) == 0, capsys.readouterr().err
        written.append({name: (out / name).read_bytes()
                        for name in ("path.json", "frontier.csv")})
    assert (tmp_path / "panel1").read_bytes().startswith(b"\xef\xbb\xbf")
    assert written[0] == written[1]


# --- memory: inputs are held as arrays, not as Python objects ---

# a traced peak above this multiple of the input file's size means the
# parsed input is held as Python objects or kept alive past its arrays
PEAK_PER_INPUT_BYTE = 3.2


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def wide_inputs(tmp_path, n_assets=200, n_months=600):
    """A canonical CSV panel and a two-row constrained problem on it."""
    returns = factor_panel(11, n_assets, n_months)
    panel = ReturnPanel(
        returns=returns,
        dates=tuple(add_months((1970, 7), k) for k in range(n_months)),
        asset_names=tuple(f"a{k:03d}" for k in range(n_assets)))
    csv = tmp_path / "panel.csv"
    csv.write_text(panel_to_csv(panel), encoding="utf-8")
    rng = np.random.default_rng(12)
    mix = rng.uniform(0.0, 1.0, n_assets)
    mix /= mix.sum()
    matrix = rng.standard_normal((2, n_assets))
    problem = write_json(tmp_path / "problem.json", {
        "design": returns.tolist(),
        "target": (returns @ mix + 0.02 * rng.standard_normal(n_months)).tolist(),
        "constraints": {"matrix": matrix.tolist(), "rhs": (matrix @ mix).tolist()},
    })
    return str(csv), problem


def test_input_peak_memory_is_bounded_by_the_file_size(tmp_path, capsys):
    csv, problem = wide_inputs(tmp_path)
    (tmp_path / "warm").mkdir()
    small_csv, small_problem = wide_inputs(tmp_path / "warm", 4, 12)
    # warm up on small inputs, so that no lazy import is counted
    cli._load_panel(small_csv)
    assert cli.main(["solve", "--problem", small_problem,
                     "--out", str(tmp_path / "warm" / "out")]) == 0

    panel_peak = traced_peak(cli._load_panel, csv)
    assert panel_peak < PEAK_PER_INPUT_BYTE * os.path.getsize(csv)
    solve_peak = traced_peak(cli.main, ["solve", "--problem", problem,
                                        "--out", str(tmp_path / "out")])
    assert solve_peak < PEAK_PER_INPUT_BYTE * os.path.getsize(problem)
    assert (tmp_path / "out" / "path.json").exists(), capsys.readouterr().err
