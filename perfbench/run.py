"""labelforge benchmark: one workload, measured in fresh child processes.

    python3 perfbench/run.py --workload paired-sweep --seed 0 --seconds 30 --trace 0

Run it from anywhere; it finds the program in ``src/`` next to this
directory. Workloads (see BENCHMARK.json for why each was chosen):

* ``paired-sweep``  the acceptance regime, 2-32-4 for 200 epochs, seven runs
                    per training seed; bound by Python dispatch.
* ``wide-mlp``      784-128-10 on 4800 synthetic rows; bound by matmuls.
* ``cli-pipeline``  gen-data, train, distill twice and analyze through
                    ``labelforge.cli.main`` at 784 dimensions; bound by RNG
                    and I/O.

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics. Their times, except set-up, are host-normalised: seconds at a fixed
reference speed of the host, measured alongside the program by probes (see
hostspeed.py), so that a shared host's swings in speed largely cancel out.
The wall-clock figures are in the context line under "raw". Set-up (process
start, imports, inputs) stays wall-clock, the median over eleven children:
its time tracks the probes too loosely to normalise. With ``--trace 1`` the
last line carries the per-layer split of a traced run, whose spans wrap
labelforge's functions from outside the package (see tracer.py). The
line before it is a JSON context record: versions, BLAS threads, host drift
probe, per-pass figures and any failure reasons.

``--record-digests`` (workload seed 0 only) runs every training seed once
and writes the sha256 of each run's metrics.csv and cmatrix.csv into
baseline.json. A change that alters those bytes says why and re-records.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("paired-sweep", "wide-mlp", "cli-pipeline")
# Set-up-only children, besides the measuring child's own set-up. Half run
# before the measuring child and half after, so that the median spans the
# run's whole window rather than one phase of a shared host's load.
SETUP_PROBES = 10
BLAS_THREADS = 1  # fixed, and no higher than any host's core count
DEADLINE_S = 170.0  # the whole command must end within 180 s

UNITS = {
    "setup_s": "s", "wall_s": "s", "samples_per_s": "1/s", "step_us": "us",
    "run_s_p50": "s", "run_s_max": "s", "peak_rss_mb": "MB", "test_acc": "1",
}


def per_layer_unit(name: str) -> str:
    if name.endswith((".self_s", ".wall_s", ".uncovered_s")):
        return "s"
    if name.endswith(".flops"):
        return "flop"
    if name.endswith(".bytes"):
        return "B"
    if ".rows." in name:
        return "rows"
    if name.endswith("_frac"):
        return "1"
    return "count"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(args, workdir: Path, timeout: float, *extra) -> dict:
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir), "--spawned-at", repr(time.monotonic()), *extra,
    ]
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"benchmark child exited with code {proc.returncode}")
    if proc.stderr:
        sys.stderr.write(proc.stderr[-4000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args, measured) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": measured["numpy"],
        "blas": measured["blas"],
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "commit": git_commit(),
    }


def record_digests(workload: str, digests: dict) -> None:
    path = HERE / "baseline.json"
    doc = json.loads(path.read_text())
    doc["workloads"][workload]["digests"] = dict(sorted(digests.items()))
    path.write_text(json.dumps(doc, indent=2) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="labelforge benchmark", formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "labelforge" / "__init__.py").is_file():
        print(f"perfbench: no labelforge package under {SRC}", file=sys.stderr)
        return 2
    if args.record_digests and (args.seed != 0 or args.trace):
        print("perfbench: --record-digests needs --seed 0 --trace 0", file=sys.stderr)
        return 2

    started = time.monotonic()
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        probe_setups = 0 if args.trace or args.record_digests else SETUP_PROBES // 2
        setups = [run_child(args, workdir, 60, "--setup-only")["setup_s"]
                  for _ in range(probe_setups)]
        if args.record_digests:
            measured = run_child(args, workdir, None, "--min-passes", "5")
            record_digests(args.workload, measured["digests"])
        else:
            measured = run_child(args, workdir, DEADLINE_S - (time.monotonic() - started))
        setups += [run_child(args, workdir, 60, "--setup-only")["setup_s"]
                   for _ in range(probe_setups)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()

    context = environment(args, measured)
    failures = measured["failures"]
    problems = measured["problems"]
    attempted = measured["attempted"]
    if args.trace:
        metrics = {
            name: {"value": value, "unit": per_layer_unit(name)}
            for name, value in measured["per_layer"].items()
        }
        context["traced_pairs"] = measured["pairs"]
    else:
        setups.append(measured["setup_s"])
        values = dict(measured["metrics"], setup_s=statistics.median(setups))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}
        context["pass_wall_s"] = measured["pass_wall_s"]
        context["setup_s_each"] = setups
        context["raw"] = measured["raw"]
        context["host.factor_each"] = measured["host_factors"]
        context["run_s_each"] = measured["run_s_each"]
        context["test_acc_min"] = measured["test_acc_min"]
    context.update({
        "host.probe_s": statistics.median(measured["probe_s"]),
        "host.probe_s_each": measured["probe_s"],
        "failed_frac": len(failures) / attempted,
        "failures": failures[:20],
        "problems": problems,
        "digests_compared": measured["digests_compared"],
        "train.digest_mismatches": measured["digest_mismatches"],
    })
    print(json.dumps({"context": context}))
    bad = [name for name, m in metrics.items() if not math.isfinite(m["value"])]
    if bad:
        print(f"perfbench: no value for {bad}; see failures above", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
