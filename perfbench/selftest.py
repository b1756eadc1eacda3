"""Self-test of the benchmark's checks, on tiny inputs.

Run from the root of a checkout, either directly or through pytest:

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py

Every workload runs twice at its tiny size and must come out with no failed
op, every certificate passing and byte-identical outputs. Then a path with
one weight moved by 1e-6 must be flagged by the certificate, and a CLI call
forced to exit 2 must be counted as failed ops. The file name keeps the
repository's own test run from collecting it.
"""
from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.getcwd(), "src")]

import inputs  # noqa: E402
import run  # noqa: E402
from sparsefolio import cli  # noqa: E402

SEED = 3
WORK = os.path.join(os.getcwd(), ".perfbench_work", f"selftest-{os.getpid()}")


def tiny(name: str):
    return inputs.write_inputs(name, SEED, os.path.join(WORK, name), "tiny")


def checked_rep(wl):
    _, _, codes, _ = run.run_rep(cli, wl)
    return codes, run.check_rep(wl, codes, {})


def failing_paths(check) -> list:
    return [label for label, v in check["paths"] if v > 1.0]


def test_tiny_workloads_pass_every_check():
    for name in run.WORKLOADS:
        wl = tiny(name)
        hashes = []
        for _ in range(2):
            codes, check = checked_rep(wl)
            assert codes == [0] * len(wl.jobs), (name, codes)
            assert check["failed"] == 0 and check["ops"] == wl.ops, (name, check)
            assert check["paths"] and not failing_paths(check), (name, check)
            hashes.append(run.hash_outputs(wl, WORK))
        assert hashes[0] and hashes[0] == hashes[1], name


def _perturb_first_weight(weights) -> None:
    i = next(k for k, v in enumerate(weights) if v != 0.0)
    weights[i] += 1e-6


def test_perturbed_weight_fails_certificate():
    # the track path is unconstrained: only stationarity can catch it there
    for name, filename in (("adjust", "path.json"), ("wide", "path.json"),
                           ("backtest", "report.json")):
        wl = tiny(name)
        codes, check = checked_rep(wl)
        assert not failing_paths(check), name
        job = wl.jobs[0]
        path = os.path.join(job.out, filename)
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        rows = doc["selections"] if name == "backtest" else doc["breakpoints"]
        _perturb_first_weight(rows[-1]["weights"])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        check = run.check_rep(wl, codes, {})
        assert len(failing_paths(check)) == 1, (name, check)


def test_forced_exit_counts_failed_ops():
    wl = tiny("backtest")
    data = wl.jobs[0].argv[wl.jobs[0].argv.index("--data") + 1]
    with open(data, "w", encoding="utf-8") as fh:
        fh.write("date,a000\n1970-07,not-a-number\n")
    codes, check = checked_rep(wl)
    assert codes[0] == 2, codes
    assert check["failed"] == wl.jobs[0].ops > 0, check
    assert not check["paths"]


def teardown_module():
    shutil.rmtree(WORK, ignore_errors=True)
    with contextlib.suppress(OSError):
        os.rmdir(os.path.dirname(WORK))


def main() -> int:
    tests = [test_tiny_workloads_pass_every_check,
             test_perturbed_weight_fails_certificate,
             test_forced_exit_counts_failed_ops]
    try:
        for test in tests:
            test()
            print(f"{test.__name__}: PASS")
    finally:
        teardown_module()
    return 0


if __name__ == "__main__":
    sys.exit(main())
