"""Benchmark of the sparsefolio CLI: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload backtest|adjust|wide --seed N \\
        --seconds S --trace 0|1

Each run writes the workload's inputs from the seed, then calls
``sparsefolio.cli.main(argv)`` in this process, one call at a time (a closed
loop with one caller), repeating the workload's jobs while the next
repetition is expected to end within S seconds, and at least twice (once
with --trace 1). With --trace 1 each
repetition is followed by a replay of the same jobs through the library's
public functions with a span around every call (see tracer.py).

After every repetition the written outputs are checked: exit codes, failed
construction years, the stored reference weights at seed 0, the
independent certificate of every returned path (certify.py), and the
sha256 of every output file, which must not change between repetitions.

Output: a JSON record of everything measured (environment, output hashes,
certificates, every metric), then as the last line the result
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics of BENCHMARK.json (--trace 0) or its per-layer metrics (--trace 1).
The run exits 2 without a result when the checkout has no sources.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

# one caller and one BLAS thread, set before numpy loads: a second OpenBLAS
# thread spins on the solvers' small products, doubling CPU use and spread
THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("backtest", "adjust", "wide")
DEFAULT_SEED = 0
# set-up is measured here and in this many fresh processes; the median counts
SETUP_PROBES = 4
MIN_REPS = 2
# a certificate residual this many tolerances out makes the run incorrect;
# anything above one tolerance is counted in cert_fail
GROSS_VIOLATION = 1e3
END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", metavar="DIR",
                   help="only set up in DIR and print the seconds it took")
    return p.parse_args(argv)


def source_root() -> str:
    """The checkout's src directory; exits 2 when the sources are missing."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "sparsefolio", "cli.py")):
        print("perfbench: no src/sparsefolio here; run from the checkout root",
              file=sys.stderr)
        raise SystemExit(2)
    return src


def call_cli(cli, argv) -> int:
    """One CLI call; its exit code, or -1 when it raised."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc(file=sys.stderr)
            return -1


def setup(src, workload, seed, workdir):
    """Import, input generation and one warm-up call on the tiny size.

    Returns (seconds, the workload's jobs, the cli module). The imports are
    inside the timed region on purpose, so nothing is imported before it.
    """
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    from sparsefolio import cli
    import inputs

    wl = inputs.write_inputs(workload, seed, workdir)
    warm = inputs.write_inputs(workload, seed, os.path.join(workdir, "warmup"), "tiny")
    call_cli(cli, warm.jobs[0].argv)
    return time.perf_counter() - t0, wl, cli


def probe_setups(workload, seed, workdir) -> list:
    """Set-up seconds of SETUP_PROBES fresh processes, one after another."""
    out = []
    for k in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--setup-probe", os.path.join(workdir, f"probe{k}")],
            capture_output=True, text=True, timeout=170, check=True)
        out.append(float(done.stdout.strip().splitlines()[-1]))
    return out


def hash_outputs(wl, base) -> dict:
    """sha256 of every file the jobs wrote, keyed by path under base."""
    out = {}
    for job in wl.jobs:
        for folder, _, files in os.walk(job.out):
            for name in sorted(files):
                path = os.path.join(folder, name)
                with open(path, "rb") as fh:
                    out[os.path.relpath(path, base)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(out.items()))


def run_rep(cli, wl, replay=False):
    """One repetition of the workload's jobs: (wall seconds, tracer, codes, texts).

    Every CLI call runs in a cli.main span of the returned tracer, which is
    its timing. With replay, each call is followed by its traced replay
    (texts holds the replayed JSON documents) and the wall time covers both.
    """
    import tracer as tracing

    for job in wl.jobs:
        shutil.rmtree(job.out, ignore_errors=True)
    tr = tracing.Tracer()
    codes, texts = [], []
    t0 = time.perf_counter()
    for job in wl.jobs:
        with tr.span("cli.main") as root:
            codes.append(call_cli(cli, job.argv))
        if replay:
            texts.append(tracing.replay(tr, root["id"], job.argv))
    return time.perf_counter() - t0, tr, codes, texts


def replayed_as_written(job, text) -> bool:
    """Whether the replay serialized the same document the CLI wrote."""
    name = "report.json" if job.kind == "backtest" else "path.json"
    try:
        with open(os.path.join(job.out, name), "r", encoding="utf-8") as fh:
            return fh.read() == text
    except OSError:
        return False


def check_rep(wl, codes, reference) -> dict:
    """Ops, failures and certificates of one repetition's outputs."""
    import certify

    ops = failed = 0
    paths = []
    for job, code in zip(wl.jobs, codes):
        ops += job.ops
        if code != 0:
            failed += job.ops
            continue
        res = certify.verify_job(job, reference.get(str(job.n_assets)))
        failed += res["failed"]
        paths += res["paths"]
    return {"ops": ops, "failed": failed, "paths": paths}


def load_reference(workload, seed) -> dict:
    """Stored yearly weights of the backtest at the default seed, else {}."""
    if workload != "backtest" or seed != DEFAULT_SEED:
        return {}
    with open(os.path.join(HERE, "reference_seed0.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def _git_head(root):
    """Commit of the checkout read from .git, or None outside a git tree."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), "r", encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.isfile(loose):
            with open(loose, "r", encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), "r", encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(src) -> str:
    h = hashlib.sha256()
    for folder, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(folder, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(src, seed) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "commit": _git_head(os.path.dirname(src)),
        "src_sha256": _source_digest(src),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": THREADS,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "seed": seed,
    }


def measure(args, src, workdir) -> tuple:
    """Set up, repeat the jobs, check every repetition: (record, result)."""
    setup_s, wl, cli = setup(src, args.workload, args.seed, workdir)
    setup_samples = [setup_s] + probe_setups(args.workload, args.seed, workdir)
    reference = load_reference(args.workload, args.seed)
    base = os.path.join(workdir, "out")

    import tracer as tracing

    walls, call_s, checks, hashes = [], [], [], []
    layer_reps, spans, replay_matches = [], [], []
    min_reps = 1 if args.trace else MIN_REPS
    # stop before a repetition that would likely end past the time budget
    while len(walls) < min_reps or sum(walls) + statistics.median(walls) <= args.seconds:
        wall, tr, codes, texts = run_rep(cli, wl, replay=bool(args.trace))
        walls.append(wall)
        call_s.append([sp["t1"] - sp["t0"] for sp in tr.spans if sp["name"] == "cli.main"])
        if args.trace:
            layer_reps.append(tracing.layer_metrics(tr.spans, wall))
            spans += tr.spans
            replay_matches += [replayed_as_written(job, text)
                               for job, text in zip(wl.jobs, texts)]
        checks.append(check_rep(wl, codes, reference))
        hashes.append(hash_outputs(wl, base))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = sum(c["ops"] for c in checks)
    failed = sum(c["failed"] for c in checks)
    paths = [p for c in checks for p in c["paths"]]
    failing = sorted({label for label, v in paths if v > 1.0})
    worst = max((v for _, v in paths), default=0.0)
    changed = sorted({name for h in hashes[1:] for name in set(h) | set(hashes[0])
                      if h.get(name) != hashes[0].get(name)})
    end_to_end = {
        # each CLI call's median over the repetitions, summed over the calls
        "run_s": sum(statistics.median(c) for c in zip(*call_s)),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_rss_mb,
    }
    metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
               for name, value in end_to_end.items()}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(src, args.seed),
        "repetitions": len(walls),
        "end_to_end": {
            **metrics,
            "ops_failed": {"value": failed / attempted, "unit": "share"},
            "cert_fail": {"value": sum(1 for _, v in paths if v > 1.0) / len(paths)
                          if paths else 0.0, "unit": "share"},
        },
        "samples": {"call_s": call_s, "setup_s": setup_samples},
        "ops": {"attempted": attempted, "failed": failed},
        "certificates": {"paths": len(paths), "worst_in_tolerances": worst,
                         "failing": failing},
        "determinism": {"identical": not changed, "changed": changed},
        "outputs_sha256": hashes[0],
    }
    if args.trace:
        metrics = tracing.summarize(layer_reps, spans)
        record["per_layer"] = metrics
        record["replay_matches_cli"] = all(replay_matches)
    result = {
        "correct": bool(failed == 0 and not changed and paths
                        and worst <= GROSS_VIOLATION),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in metrics.items()},
    }
    return record, result


def main(argv=None) -> int:
    args = parse_args(argv)
    src = source_root()
    if args.setup_probe:
        print(setup(src, args.workload, args.seed, args.setup_probe)[0])
        return 0
    work_root = os.path.join(os.getcwd(), ".perfbench_work")
    workdir = os.path.join(work_root, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        record, result = measure(args, src, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(work_root)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
