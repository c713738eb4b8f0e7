"""Span tracer that wraps labelforge's public functions from outside the package.

Each traced function is patched at every place a labelforge module bound it
(``labelforge.train.sgd_step`` as well as ``labelforge.model.sgd_step``) and,
for methods, on the class. A span's self time is its duration minus the time
its traced children took, so over one traced window

    sum(self_ns of every span) + uncovered_ns == window wall time

holds exactly in integer nanoseconds. Counters (rows, flops, bytes, draws) are
computed from call arguments inside the span, so their cost lands in the
traced function's own self time and never in ``uncovered``.
"""

from __future__ import annotations

import math
import os
import time
import weakref
from collections import defaultdict

import labelforge.analysis as lf_analysis
import labelforge.cli as lf_cli
import labelforge.dataio as lf_dataio
import labelforge.labelreg as lf_labelreg
import labelforge.model as lf_model
import labelforge.numerics as lf_numerics
import labelforge.train as lf_train

MODULES = (lf_numerics, lf_model, lf_labelreg, lf_train, lf_dataio, lf_analysis, lf_cli)

# span name -> (owner, attribute). Owner is a module (the defining one) or a
# class; module functions are also patched wherever another module imported them.
TARGETS = {
    "numerics.permutation": (lf_numerics.Rng, "permutation"),
    "numerics.normals": (lf_numerics.Rng, "normals"),
    "numerics.uniforms": (lf_numerics.Rng, "uniforms"),
    "numerics.softmax_rows": (lf_numerics, "softmax_rows"),
    "numerics.log_softmax_rows": (lf_numerics, "log_softmax_rows"),
    "model.forward": (lf_model.Mlp, "forward"),
    "model.backward": (lf_model.Mlp, "backward"),
    "model.sgd_step": (lf_model, "sgd_step"),
    "model.init_model": (lf_model, "init_model"),
    "model.save_checkpoint": (lf_model, "save_checkpoint"),
    "model.load_checkpoint": (lf_model, "load_checkpoint"),
    "labelreg.target_table": (lf_labelreg, "target_table"),
    "labelreg.ols_accumulate": (lf_labelreg, "ols_accumulate"),
    "labelreg.export_cmatrix": (lf_labelreg, "export_cmatrix"),
    "labelreg.load_cmatrix": (lf_labelreg, "load_cmatrix"),
    "train.run": (lf_train, "_run"),
    "train.evaluate": (lf_train, "evaluate"),
    "train.write_run_artifacts": (lf_train, "write_run_artifacts"),
    "dataio.generate_gaussian": (lf_dataio, "generate_gaussian"),
    "dataio.save_csv": (lf_dataio, "save_csv"),
    "dataio.load_csv": (lf_dataio, "load_csv"),
    "dataio.split": (lf_dataio, "split"),
    "analysis.class_mean_probs": (lf_analysis, "class_mean_probs"),
    "analysis.class_centers": (lf_analysis, "class_centers"),
    "analysis.center_distance_matrix": (lf_analysis, "center_distance_matrix"),
    "cli.main": (lf_cli, "main"),
}

# Counters the traced run reports besides <span>.calls and <span>.self_s.
COUNTERS = (
    "numerics.rng_draws",
    "model.forward.flops",
    "model.forward.rows.train",
    "model.forward.rows.eval",
    "model.forward.rows.teacher",
    "model.backward.flops",
    "model.sgd_step.bytes",
    "model.save_checkpoint.bytes",
    "dataio.save_csv.bytes",
    "dataio.load_csv.bytes",
)

_EVAL_PARENTS = {
    "train.evaluate",
    "analysis.class_mean_probs",
    "analysis.class_centers",
}


def _size(shape) -> int:
    return math.prod(int(s) for s in shape)


def _matmul_flops(rows: int, sizes) -> int:
    return sum(2 * rows * a * b for a, b in zip(sizes, sizes[1:]))


class Tracer:
    """Patches every TARGETS entry on `install`, restores them on `remove`."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.counters = defaultdict(int)
        self.root_ns = 0
        self._stack = []  # [span name, ns covered by traced children]
        self._student = None  # weakref to the model init_model built last
        self._patched = []  # (owner, attribute, original)

    # -- patching -----------------------------------------------------------
    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for name, (owner, attr) in TARGETS.items():
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original)
            owners = [owner] if isinstance(owner, type) else [
                m for m in MODULES if m.__dict__.get(attr) is original
            ]
            for target in owners:
                self._patched.append((target, attr, original))
                setattr(target, attr, wrapper)

    def remove(self) -> None:
        """Restore every patched name and confirm nothing traced remains."""
        for target, attr, original in reversed(self._patched):
            setattr(target, attr, original)
        leftovers = [
            f"{getattr(target, '__name__', target)}.{attr}"
            for target, attr, original in self._patched
            if target.__dict__.get(attr) is not original
        ]
        for owner in (*MODULES, lf_numerics.Rng, lf_model.Mlp):
            leftovers += [
                f"{owner.__name__}.{attr}"
                for attr, value in vars(owner).items()
                if getattr(value, "__perfbench_span__", None)
            ]
        self._patched = []
        if leftovers:
            raise RuntimeError(f"tracer left patched names behind: {leftovers}")

    # -- spans ----------------------------------------------------------------
    def _wrap(self, name, fn):
        count = getattr(self, "_count_" + name.replace(".", "_"), None)
        stack = self._stack
        clock = time.perf_counter_ns

        def span(*args, **kwargs):
            frame = [name, 0]
            stack.append(frame)
            started = clock()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(args, kwargs, result)
                return result
            finally:
                elapsed = clock() - started
                stack.pop()
                self.calls[name] += 1
                self.self_ns[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                else:
                    self.root_ns += elapsed

        span.__perfbench_span__ = name
        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", name)
        return span

    def _parent(self) -> str | None:
        return self._stack[-2][0] if len(self._stack) > 1 else None

    # -- counters (run inside the span they belong to) -------------------------
    def _count_numerics_permutation(self, args, kwargs, result):
        self.counters["numerics.rng_draws"] += max(int(args[1]) - 1, 0)

    def _count_numerics_normals(self, args, kwargs, result):
        # Box-Muller: one 64-bit draw per normal on average (pairs of two)
        self.counters["numerics.rng_draws"] += _size(args[1])

    def _count_numerics_uniforms(self, args, kwargs, result):
        self.counters["numerics.rng_draws"] += _size(args[1])

    def _count_model_forward(self, args, kwargs, result):
        model = args[0]
        rows = int(result.inputs.shape[0])
        self.counters["model.forward.flops"] += _matmul_flops(rows, model.layer_sizes)
        if self._parent() in _EVAL_PARENTS:
            kind = "eval"
        elif self._student is not None and self._student() is model:
            kind = "train"
        else:
            kind = "teacher"
        self.counters["model.forward.rows." + kind] += rows

    def _count_model_backward(self, args, kwargs, result):
        model, cache = args[0], args[1]
        rows = int(cache.inputs.shape[0])
        sizes = model.layer_sizes
        # weight gradients for every layer, delta propagation below the top
        flops = _matmul_flops(rows, sizes) + _matmul_flops(rows, sizes[1:])
        self.counters["model.backward.flops"] += flops

    def _count_model_sgd_step(self, args, kwargs, result):
        model = args[0]
        params = sum(w.size + b.size for w, b in zip(model.weights, model.biases))
        # read velocity, gradient, parameter; write velocity, parameter
        self.counters["model.sgd_step.bytes"] += 5 * 8 * params

    def _count_model_init_model(self, args, kwargs, result):
        # a training run builds its student first; any other model it runs
        # outside evaluation is a teacher
        self._student = weakref.ref(result)

    def _count_model_save_checkpoint(self, args, kwargs, result):
        self.counters["model.save_checkpoint.bytes"] += os.path.getsize(args[1])

    def _count_dataio_save_csv(self, args, kwargs, result):
        self.counters["dataio.save_csv.bytes"] += os.path.getsize(args[1])

    def _count_dataio_load_csv(self, args, kwargs, result):
        self.counters["dataio.load_csv.bytes"] += os.path.getsize(args[0])

    # -- report ---------------------------------------------------------------
    def covered_ns(self) -> int:
        """Sum of self times; equals the summed duration of the root spans."""
        total = sum(self.self_ns.values())
        if total != self.root_ns:
            raise RuntimeError(
                f"span accounting broken: self times {total} ns, roots {self.root_ns} ns"
            )
        return total
