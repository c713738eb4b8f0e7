"""One benchmark child process: set a workload up, run timed passes, check them.

Started by ``run.py``; not meant to be run by hand. It prints one JSON object
as the last line of its standard output.

A pass is a fixed sequence of program calls ("runs"). Passes repeat while
they fit in ``--seconds``, and the figures cover all of them. With
``--trace 1`` passes come in pairs on the same training seed, untraced then
traced; the traced ones give the per-layer split.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import labelforge.cli as lf_cli
import labelforge.labelreg as lf_labelreg
import labelforge.train as lf_train
from labelforge.dataio import Dataset, GaussianSpec, generate_gaussian
from labelforge.train import TrainConfig

from hostspeed import HostMeter
from tracer import COUNTERS, TARGETS, Tracer

BASELINE = json.loads(Path(__file__).with_name("baseline.json").read_text())

# Pass i trains with seed TRAIN_SEEDS[i % 5] + 100 * workload seed, so a run
# covers several seeds of one shape. At workload seed 0 these are the
# acceptance suite's seeds.
TRAIN_SEEDS = (1, 2, 3, 4, 5)


@dataclass
class Run:
    """One program call inside a pass and what the checks made of it."""

    name: str
    seconds: float  # wall time; host-normalised once measure() converts it
    started: float = 0.0  # time.perf_counter() at the call
    samples: int = 0  # training samples through forward + backward
    steps: int = 0
    test_acc: float | None = None
    ols_fallbacks: int = 0
    error: str | None = None
    digests: dict = field(default_factory=dict)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _steps(epochs: int, rows: int, batch: int) -> int:
    return epochs * math.ceil(rows / batch)


def _nonfinite(values) -> bool:
    return not all(math.isfinite(float(v)) for v in values)


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop plus a fixed small-NumPy loop."""
    started = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc = (acc + i * i) % 1_000_003
    a = np.linspace(-1.0, 1.0, 64).reshape(8, 8)
    for _ in range(1500):
        a = np.tanh(a @ a.T + 0.5)
    return time.perf_counter() - started


@contextlib.contextmanager
def _traced(tracer: Tracer | None):
    if tracer is None:
        yield
        return
    tracer.install()
    try:
        yield
    finally:
        tracer.remove()


def _timed_calls(plan, tracer):
    """Call each (name, fn) in order; returns (wall ns, runs, outputs).

    fn receives the outputs of the earlier calls. A call that raises is a
    failed run, not a failed pass.
    """
    outputs, runs = {}, []
    with _traced(tracer):
        started = time.perf_counter_ns()
        for name, call in plan:
            t0 = time.perf_counter()
            try:
                outputs[name] = call(outputs)
                error = None
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
            runs.append(Run(name, time.perf_counter() - t0, t0, error=error))
        wall_ns = time.perf_counter_ns() - started
    return wall_ns, runs, outputs


class Workload:
    name: str

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.floor = BASELINE["workloads"][self.name]["test_acc_floor"]

    def train_seed(self, index: int) -> int:
        return TRAIN_SEEDS[index % len(TRAIN_SEEDS)] + 100 * self.seed


# -- library workloads: paired-sweep and wide-mlp -------------------------------


class LibraryWorkload(Workload):
    """Calls labelforge.train's library entry points on in-memory data."""

    base: dict

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.train_set, self.test_set = self.make_data(seed)

    def make_data(self, seed):
        raise NotImplementedError

    def plan(self, cfg):
        raise NotImplementedError

    def run_pass(self, index: int, tracer: Tracer | None = None):
        cfg = dict(self.base, seed=self.train_seed(index))
        wall_ns, runs, outputs = _timed_calls(self.plan(cfg), tracer)
        self.check(runs, outputs, cfg)
        return wall_ns, runs

    def check(self, runs, outputs, cfg):
        n = len(self.train_set)
        steps = _steps(cfg["epochs"], n, cfg["batch_size"])
        scratch = self.workdir / "check"
        scratch.mkdir(exist_ok=True)
        metrics_bytes = {}
        for run in runs:
            if run.error:
                continue
            out = outputs[run.name]
            report = out.report
            run.samples, run.steps = cfg["epochs"] * n, steps
            run.test_acc = report.final_test_accuracy
            run.ols_fallbacks = report.ols_fallbacks
            lf_train.write_metrics_csv(report, scratch / "metrics.csv")
            metrics_bytes[run.name] = (scratch / "metrics.csv").read_bytes()
            run.digests["metrics.csv"] = hashlib.sha256(metrics_bytes[run.name]).hexdigest()
            if out.cmatrix is not None:
                lf_labelreg.export_cmatrix(out.cmatrix, scratch / "cmatrix.csv")
                run.digests["cmatrix.csv"] = _sha256(scratch / "cmatrix.csv")
            finals = [
                report.final_train_accuracy, report.final_test_accuracy,
                report.final_train_nll, report.final_test_nll,
                report.final_train_max_prob, report.final_test_max_prob,
            ]
            for row in report.epoch_stats:
                finals += [row.train_accuracy, row.test_accuracy, row.train_loss,
                           row.mean_max_prob]
            run.error = _verdict(run, finals, self.floor, report.teacher_forward_calls, steps)
        if "sce_ours" in metrics_bytes and "lspp" in metrics_bytes:
            if metrics_bytes["sce_ours"] != metrics_bytes["lspp"]:
                for run in runs:
                    if run.name == "sce_ours":
                        run.error = "sce_ours metrics.csv differs from lspp"


def _verdict(run: Run, finals, floor: float, teacher_calls: int, steps: int) -> str | None:
    """Why a finished training run fails its output check, or None."""
    if _nonfinite(finals):
        return "non-finite metric"
    if run.test_acc < floor:
        return f"test_acc {run.test_acc} below floor {floor}"
    if run.name == "proxy_distill" and teacher_calls != 0:
        return f"proxy_distill made {teacher_calls} teacher forwards"
    if run.name == "distill" and teacher_calls != steps:
        return f"distill made {teacher_calls} teacher forwards for {steps} steps"
    return None


def _teacher(outputs, attr):
    if "lspp" not in outputs:
        raise RuntimeError("teacher run lspp did not finish")
    return getattr(outputs["lspp"], attr)


def _strategy_plan(cfg, tr, te, names):
    """Plan entries for plain strategies, then both distillations from lspp."""

    def strategy(name):
        return lambda _: lf_train.train(TrainConfig(strategy=name, **cfg), tr, te)

    return [(name, strategy(name)) for name in names] + [
        ("proxy_distill", lambda o: lf_train.distill(
            TrainConfig(**cfg), _teacher(o, "cmatrix"), tr, te)),
        ("distill", lambda o: lf_train.distill(
            TrainConfig(**cfg), _teacher(o, "model"), tr, te)),
    ]


class PairedSweep(LibraryWorkload):
    name = "paired-sweep"
    base = dict(epochs=200, batch_size=32, layer_sizes=(2, 32, 4))
    means = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 10.0], [11.0, 10.0]])

    def make_data(self, seed):
        # at workload seed 0 these are the acceptance fixture's data seeds
        tr = generate_gaussian(GaussianSpec(self.means, 0.5, 200, seed=101 + 1000 * seed))
        te = generate_gaussian(GaussianSpec(self.means, 0.5, 500, seed=202 + 1000 * seed))
        return tr, te

    def plan(self, cfg):
        tr, te = self.train_set, self.test_set

        def ablation(loss):
            return lambda _: lf_train.train_ablation(
                TrainConfig(strategy="ablation", ablation_loss=loss, **cfg), tr, te)

        return [
            ("sce_ours", ablation("sce_ours")),
            ("sce_original", ablation("sce_original")),
        ] + _strategy_plan(cfg, tr, te, ("lspp", "onehot", "ols"))


class WideMlp(LibraryWorkload):
    name = "wide-mlp"
    base = dict(epochs=3, batch_size=32, layer_sizes=(784, 128, 10))
    classes, dim, signal = 10, 784, 0.1

    def make_data(self, seed):
        # NumPy's own generator keeps set-up cheap; a weak class signal under
        # unit noise keeps test accuracy well below 1.0
        rng = np.random.default_rng(seed)
        centers = self.signal * rng.standard_normal((self.classes, self.dim))

        def draw(rows):
            labels = rng.permutation(np.arange(rows) % self.classes)
            features = centers[labels] + rng.standard_normal((rows, self.dim))
            return Dataset(features, labels, self.classes)

        return draw(4800), draw(1000)

    def plan(self, cfg):
        return _strategy_plan(cfg, self.train_set, self.test_set, ("onehot", "lspp", "ols"))


# -- cli-pipeline ---------------------------------------------------------------


class CliPipeline(Workload):
    """gen-data, train, two distills and analyze through labelforge.cli.main."""

    name = "cli-pipeline"
    classes, dim, per_class, signal, std = 10, 784, 80, 0.25, 1.0
    epochs, batch, layers = 3, 32, "784,128,10"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        rng = np.random.default_rng(seed)
        means = self.signal * rng.standard_normal((self.classes, self.dim))
        self.means = ";".join(",".join(repr(float(v)) for v in row) for row in means)
        # the CLI's stratified 0.8 split, rounded per class as dataio documents
        per_class_train = min(max(int(0.8 * self.per_class + 0.5), 1), self.per_class - 1)
        self.train_rows = self.classes * per_class_train

    def run_pass(self, index: int, tracer: Tracer | None = None):
        d = self.workdir / f"pass{index}"
        data = str(d / "data.csv")
        lspp = d / "lspp"
        flags = ["--data", data, "--epochs", str(self.epochs),
                 "--batch-size", str(self.batch), "--layer-sizes", self.layers,
                 "--seed", str(self.train_seed(index))]
        argvs = {
            # "--means=" keeps a leading minus sign from reading as a flag
            "gen-data": ["gen-data", f"--means={self.means}", "--std", str(self.std),
                         "--per-class", str(self.per_class), "--seed", str(self.seed),
                         "--out", data],
            "lspp": ["train", *flags, "--strategy", "lspp", "--out", str(lspp)],
            "proxy_distill": ["distill", *flags, "--teacher-cmatrix",
                              str(lspp / "cmatrix.csv"), "--out", str(d / "proxy_distill")],
            "distill": ["distill", *flags, "--teacher-checkpoint",
                        str(lspp / "checkpoint.json"), "--out", str(d / "distill")],
            "analyze": ["analyze", "--data", data, "--checkpoint",
                        str(lspp / "checkpoint.json"), "--cmatrix",
                        str(lspp / "cmatrix.csv"), "--out", str(d / "analyze")],
        }

        def command(argv):
            def call(_):
                code = lf_cli.main(argv)
                if code != 0:
                    raise RuntimeError(f"exit code {code}")
            return call

        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            wall_ns, runs, _ = _timed_calls(
                [(name, command(argv)) for name, argv in argvs.items()], tracer)
        try:
            for run in runs:
                if not run.error:
                    self.check(run, d)
        finally:
            shutil.rmtree(d, ignore_errors=True)
        if any(run.error for run in runs):
            print(sink.getvalue()[-2000:], file=sys.stderr)
        return wall_ns, runs

    def check(self, run: Run, d: Path):
        try:
            run.error = self._verdict(run, d)
        except (OSError, ValueError, KeyError) as exc:
            run.error = f"output check: {type(exc).__name__}: {exc}"

    def _verdict(self, run: Run, d: Path) -> str | None:
        run_dir = d / run.name
        if run.name == "gen-data":
            with open(d / "data.csv", "rb") as f:
                lines = sum(1 for _ in f)
            if lines != self.classes * self.per_class + 1:
                return f"data.csv has {lines} lines"
            return None
        if run.name == "analyze":
            doc = json.loads((run_dir / "analysis.json").read_text())
            values = [v for tag in ("train", "test") for v in doc[tag].values()]
            missing = [
                f"{stem}_{tag}.csv"
                for stem in ("class_mean_probs", "center_distance")
                for tag in ("train", "test")
                if not (run_dir / f"{stem}_{tag}.csv").is_file()
            ]
            if missing:
                return f"analyze wrote no {missing}"
            if _nonfinite(values + doc["c_row_entropy"]):
                return "non-finite analysis value"
            return None
        report = json.loads((run_dir / "report.json").read_text())
        steps = _steps(self.epochs, self.train_rows, self.batch)
        run.samples, run.steps = self.epochs * self.train_rows, steps
        run.test_acc = report["final_test_accuracy"]
        run.ols_fallbacks = report["ols_fallbacks"]
        for name in ("metrics.csv", "cmatrix.csv"):
            if (run_dir / name).is_file():
                run.digests[name] = _sha256(run_dir / name)
        finals = [v for k, v in report.items() if k.startswith("final_")]
        finals += [v for row in report["epochs"] for k, v in row.items() if k != "epoch"]
        return _verdict(run, finals, self.floor, report["teacher_forward_calls"], steps)


WORKLOADS = {cls.name: cls for cls in (PairedSweep, WideMlp, CliPipeline)}


# -- measurement ----------------------------------------------------------------


def _pass_digests(index: int, workload: Workload, runs) -> dict:
    return {
        f"{workload.train_seed(index)}/{run.name}/{name}": digest
        for run in runs
        for name, digest in run.digests.items()
    }


def _digest_mismatches(workload: str, seed: int, seen: dict) -> tuple[int, int]:
    """(files compared, files whose sha256 differs from baseline.json).

    Only workload seed 0 has recorded digests; other seeds compare nothing.
    """
    if seed != 0:
        return 0, 0
    golden = BASELINE["workloads"][workload]["digests"]
    compared = [key for key in seen if key in golden]
    return len(compared), sum(seen[key] != golden[key] for key in compared)


class Window:
    """Decides whether another pass fits in the --seconds measuring window.

    A pass starts only if one more pass as long as the longest so far still
    ends inside the window, so a run never measures much past --seconds;
    --min-passes passes always run.
    """

    def __init__(self, args):
        self.seconds = args.seconds
        self.min_passes = args.min_passes
        self.started = time.perf_counter()
        self.longest = 0.0
        self.passes = 0

    def more(self) -> bool:
        elapsed = time.perf_counter() - self.started
        return self.passes < self.min_passes or elapsed + self.longest <= self.seconds

    def done(self, seconds: float) -> None:
        self.passes += 1
        self.longest = max(self.longest, seconds)


def _failures(index: int, runs) -> list:
    return [f"pass {index} {run.name}: {run.error}" for run in runs if run.error]


def _timings(pass_s, runs) -> dict:
    """The timing metrics of a window, from per-pass and per-run seconds."""
    by_name = {}
    for run in runs:
        by_name.setdefault(run.name, []).append(run.seconds)
    wall = sum(pass_s)
    steps = sum(run.steps for run in runs)
    return {
        "wall_s": wall / len(pass_s),
        "samples_per_s": sum(run.samples for run in runs) / wall,
        "step_us": 1e6 * sum(run.seconds for run in runs) / steps if steps else math.nan,
        "run_s_p50": statistics.median(run.seconds for run in runs),
        "run_s_max": max(statistics.median(times) for times in by_name.values()),
    }


def measure(args, workload: Workload) -> dict:
    """Untraced passes for --seconds (at least --min-passes of them).

    Every time is host-normalised by a HostMeter (see hostspeed.py); the
    wall-clock figures are kept as "raw". Wall time, throughput and time per
    step are totals over every pass of the window. Per-run figures are medians:
    over all runs for run_s_p50, and over the passes of each run name, then
    the slowest name, for run_s_max.
    """
    pass_wall_s, spans, runs, failures, probes, seen = [], [], [], [], [], {}
    meter = HostMeter()
    meter.burst(1)
    window = Window(args)
    meter.start()
    try:
        while window.more():
            index = len(pass_wall_s)
            t0 = time.perf_counter()
            probes.append(host_probe())
            wall_ns, pass_runs = workload.run_pass(index)
            window.done(time.perf_counter() - t0)
            pass_wall_s.append(wall_ns * 1e-9)
            last = pass_runs[-1]
            spans.append((pass_runs[0].started, last.started + last.seconds))
            seen.update(_pass_digests(index, workload, pass_runs))
            failures += _failures(index, pass_runs)
            runs += pass_runs
    finally:
        meter.stop()
    raw = _timings(pass_wall_s, runs)
    for run in runs:
        run.seconds = meter.seconds(run.started, run.started + run.seconds)
    pass_s = [meter.seconds(a, b) for a, b in spans]
    test_accs = [run.test_acc for run in runs if run.test_acc is not None]
    compared, mismatches = _digest_mismatches(args.workload, args.seed, seen)
    return {
        "metrics": {
            **_timings(pass_s, runs),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "test_acc": statistics.fmean(test_accs) if test_accs else math.nan,
        },
        "raw": raw,
        "pass_wall_s": pass_wall_s,
        "host_factors": [meter.factor(a, b) for a, b in spans],
        "run_s_each": {name: [run.seconds for run in runs if run.name == name]
                       for name in dict.fromkeys(run.name for run in runs)},
        "probe_s": probes,
        "attempted": len(runs),
        "failures": failures,
        "problems": [],
        "test_acc_min": min(test_accs, default=math.nan),
        "digests": seen,
        "digests_compared": compared,
        "digest_mismatches": mismatches,
    }


def measure_traced(args, workload: Workload) -> dict:
    """Pairs of passes on one training seed each: untraced, then traced.

    Per-layer values are per traced pass: totals divided by the pair count.
    """
    tracer = Tracer()
    plain_ns = traced_ns = 0
    failures, problems, probes, seen = [], [], [], {}
    steps = fallbacks = attempted = 0
    pairs = 0
    window = Window(args)
    while window.more():
        t0 = time.perf_counter()
        probes.append(host_probe())
        wall_ns, plain = workload.run_pass(pairs)
        plain_ns += wall_ns
        wall_ns, traced = workload.run_pass(pairs, tracer)
        traced_ns += wall_ns
        digests = _pass_digests(pairs, workload, plain)
        if _pass_digests(pairs, workload, traced) != digests:
            problems.append(f"pass {pairs}: traced digests differ from untraced")
        seen.update(digests)
        failures += _failures(pairs, plain) + _failures(pairs, traced)
        attempted += len(plain) + len(traced)
        steps += sum(run.steps for run in traced)
        fallbacks += sum(run.ols_fallbacks for run in traced)
        pairs += 1
        window.done(time.perf_counter() - t0)

    uncovered_ns = traced_ns - tracer.covered_ns()
    if not 0 <= uncovered_ns <= 0.05 * traced_ns:
        problems.append(f"trace.uncovered_s is {uncovered_ns / traced_ns:.2%} of traced wall")
    compared, mismatches = _digest_mismatches(args.workload, args.seed, seen)
    metrics = {}
    for name in TARGETS:
        metrics[f"{name}.calls"] = tracer.calls[name] / pairs
        metrics[f"{name}.self_s"] = tracer.self_ns[name] * 1e-9 / pairs
    for name in COUNTERS:
        metrics[name] = tracer.counters[name] / pairs
    metrics.update({
        "labelreg.ols_fallbacks": fallbacks / pairs,
        "train.steps": steps / pairs,
        "train.digest_mismatches": mismatches,
        "trace.wall_s": traced_ns * 1e-9 / pairs,
        "trace.uncovered_s": uncovered_ns * 1e-9 / pairs,
        "trace.overhead_frac": traced_ns / plain_ns - 1.0,
    })
    return {
        "pairs": pairs,
        "attempted": attempted,
        "failures": failures,
        "problems": problems,
        "probe_s": probes,
        "digests": seen,
        "digests_compared": compared,
        "digest_mismatches": mismatches,
        "per_layer": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="the parent's time.monotonic() just before it started this child")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--min-passes", type=int, default=1)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, Path(args.workdir))
    result = {"setup_s": time.monotonic() - args.spawned_at}
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result.update(numpy=np.__version__, blas=f"{blas.get('name')} {blas.get('version')}")
    if not args.setup_only:
        result.update(measure_traced(args, workload) if args.trace else measure(args, workload))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
