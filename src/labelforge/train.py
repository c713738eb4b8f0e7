"""Training orchestration: epochs, batches, gradient routing, evaluation,
and run artifacts.

One loop serves every strategy. Per batch it builds targets, steps the
network from the forward cross-entropy gradient, and (when a learnable
logit table is in play) steps the table from whichever direction the
configured loss routes to it. Network and table updates within a batch are
simultaneous: both gradients are computed from pre-step values before
either parameter set moves. What depends on the labels alone or on a frozen
teacher, the epoch's label order, a fixed table's or a teacher network's
target rows and a learned table's gather and scatter indices, is computed
once per epoch and sliced per batch; ``ols`` stores an epoch's predictions
and adds them to its per-class sums once the epoch ends, in step order. An
epoch's shuffle depends only on the seed, the epoch and the row count, so
runs that share a seed share their shuffles: `epoch_order` computes each
once per process, up to ``ORDER_CAP`` indices.

Strategies:

* ``onehot``        one-hot targets.
* ``ls``            fixed smoothing over the non-target classes only
                    (a frozen uniform logit table; the exact no-learning
                    limit of ``lspp``).
* ``lspp``          learnable smoothing: a logit table over the non-target
                    classes, trained under the ``ablation_loss`` routing.
* ``ols``           targets from the previous epoch's mean predictions
                    mixed with one-hot; epoch 0 uses one-hot.
* ``distill``       per-sample targets from a teacher network's forward
                    passes, one per batch, stacked per epoch
                    (`teacher_targets`).
* ``proxy_distill`` per-class targets from a teacher's frozen logit table;
                    never runs a teacher forward pass.
* ``ablation``      ``lspp`` under the name the ``ablate`` command records.

``ablation_loss`` routes a learned table's loss terms (the forward term
always trains the network): ``sce_ours`` is the split rule, the reverse term
alone training the table; ``ce`` feeds both parameter sets from the forward
term, ``sce_original`` from the sum of both terms.

A run stops with ``ValueError("training diverged: ...")`` when a step's
loss is NaN or Inf, or when an epoch's mean training loss exceeds
``DIVERGED_LOSS_FACTOR * ln K``. A network that predicts uniformly scores
ln K against any targets, and the best attainable loss, the targets' own
entropy, is at most ln K; a mean a thousand times that means the logits have
run away, though every number is still finite.

Run directory layout: config.json, metrics.csv (epoch, train_acc, test_acc,
train_loss, mean_max_prob), cmatrix.csv (+ .json sidecar) when a table was
learned, checkpoint.json with its parsed sidecar checkpoint.json.parsed.npz,
report.json.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .analysis import c_row_entropy
from .dataio import Dataset, exact_int, write_csv, write_json
from .labelreg import (
    CMatrix,
    TableTargets,
    cross_entropy,
    export_cmatrix,
    label_indices,
    network_dlogits,
    ols_accumulate,
    ols_table,
    reverse_cross_entropy,
    table_logit_grad,
    target_table,
)
from .model import (
    Mlp,
    OptState,
    _checked_sizes,
    central_difference_error,
    init_model,
    save_checkpoint,
    sgd_step,
)
from .numerics import ORDER_CAP, STACK_CAP, Rng, checked_seed, derive_seed, row_max

STRATEGIES = ("onehot", "ls", "lspp", "ols", "distill", "proxy_distill", "ablation")
ABLATION_LOSSES = ("ce", "sce_original", "sce_ours")
LEARNED_TABLE = ("lspp", "ablation")  # the strategies that learn a logit table
DIVERGED_LOSS_FACTOR = 1000.0  # epoch mean loss bound, in units of ln K

# Which loss direction feeds which parameter set beyond the forward term,
# which always trains the network, per ablation_loss:
# (network gets reverse, table gets forward, table gets reverse)
_ROUTING = {
    "ce": (False, True, False),
    "sce_original": (True, True, True),
    "sce_ours": (False, False, True),
}

# The strategies that read each strategy-specific key; any other keeps its
# default. proxy_distill's alpha is its teacher table's (`check_teacher`).
_READERS = {"alpha": ("ls", *LEARNED_TABLE, "proxy_distill"), "ablation_loss": LEARNED_TABLE,
            "ols_mix": ("ols",), "ols_correct_only": ("ols",)}

# The teacher kind each distillation strategy trains from; no other takes one
TEACHERS = {"distill": Mlp, "proxy_distill": CMatrix}


def _pinning_error(subject: str, bound: str, alpha: float, needs: str) -> ValueError:
    return ValueError(
        f"alpha must be below {bound} for {subject}, got {alpha}: the argmax-pinning "
        f"invariant (every target's argmax is its true class) needs {needs}"
    )


@dataclass(frozen=True)
class TrainConfig:
    strategy: str = "onehot"
    alpha: float = 0.1
    epochs: int = 50
    batch_size: int = 32
    lr: float = 0.02
    momentum: float = 0.9
    weight_decay: float = 0.0
    c_lr: float | None = None  # defaults to lr when unset
    seed: int = 0
    layer_sizes: tuple[int, ...] | None = None  # derived (D, 32, K) when unset
    ols_mix: float = 0.5
    ols_correct_only: bool = False
    ablation_loss: str = "sce_ours"

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, config_value(f.name, getattr(self, f.name)))
        checked_seed(self.seed)
        if self.layer_sizes is not None:
            _checked_sizes(self.layer_sizes, "layer_sizes")
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {self.strategy!r}; choose from {STRATEGIES}"
            )
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"alpha must be in [0, 1), got {self.alpha}")
        if self.strategy in (*LEARNED_TABLE, "proxy_distill") and self.alpha >= 0.5:
            # a learned or a teacher's table row can put up to alpha on one
            # class, which outranks the pinned 1 - alpha once alpha >= 0.5
            raise _pinning_error(f"strategy {self.strategy!r}", "0.5", self.alpha,
                                 "1 - alpha > alpha")
        if self.epochs < 0:
            raise ValueError(f"epochs must be nonnegative, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        # NaN fails every comparison, so each rule is stated as what passes
        if not 0.0 < self.lr < math.inf:
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if not 0.0 <= self.weight_decay < math.inf:
            raise ValueError(
                f"weight_decay must be nonnegative and finite, got {self.weight_decay}")
        if self.c_lr is not None and not 0.0 <= self.c_lr < math.inf:
            raise ValueError(f"c_lr must be nonnegative and finite, got {self.c_lr}")
        if not 0.0 <= self.ols_mix <= 1.0:
            raise ValueError(f"ols_mix must be in [0, 1], got {self.ols_mix}")
        if self.ablation_loss not in ABLATION_LOSSES:
            raise ValueError(
                f"unknown ablation_loss {self.ablation_loss!r}; "
                f"choose from {ABLATION_LOSSES}"
            )

    def resolved(self, input_dim: int, num_classes: int) -> "TrainConfig":
        """Materialize every default against a concrete dataset. Raises
        ValueError for a key the strategy does not read set off its default."""
        for key, readers in _READERS.items():
            value = getattr(self, key)  # a dataclass keeps each default as a class attribute
            if self.strategy not in readers and value != getattr(TrainConfig, key):
                raise ValueError(f"strategy {self.strategy!r} does not read {key}, got "
                                 f"{key}={value!r}; only {', '.join(readers)} do")
        sizes = self.layer_sizes or (input_dim, 32, num_classes)
        if sizes[0] != input_dim or sizes[-1] != num_classes:
            raise ValueError(
                f"layer_sizes {sizes} do not match data with {input_dim} features "
                f"and {num_classes} classes"
            )
        if self.strategy == "ls" and self.alpha >= (num_classes - 1) / num_classes:
            # ls spreads alpha evenly over the K - 1 other classes
            raise _pinning_error(f"strategy 'ls' with {num_classes} classes",
                                 f"(K-1)/K = {(num_classes - 1) / num_classes:g}",
                                 self.alpha, "1 - alpha > alpha / (K-1)")
        return replace(
            self,
            layer_sizes=tuple(sizes),
            c_lr=self.lr if self.c_lr is None else self.c_lr,
        )


# The kind of each config key, from its TrainConfig annotation (a string:
# the module postpones annotation evaluation); an annotation missing here
# fails at import. The command line parses its text by the same kinds.
_KINDS = {"str": str, "int": int, "float": float, "bool": bool, "tuple[int, ...]": tuple}
CONFIG_KINDS = {f.name: _KINDS[f.type.partition(" | ")[0]] for f in fields(TrainConfig)}


def config_value(key: str, value):
    """``value`` as config key ``key``'s kind, as `TrainConfig` and a JSON
    config file read it: an int or an integral float for an int
    (`exact_int`), a real number but not a bool for a float, a sequence of
    those ints (not a str) for a tuple, a bool or a str as itself, and None
    (unset) only where it is the key's default. Any other value raises a
    ValueError naming the key: float() would read True as 1.0, and bool()
    "no" as True."""
    kind = CONFIG_KINDS[key]
    if value is None and getattr(TrainConfig, key) is None:
        return None
    try:
        if kind is int:
            return exact_int(value, key)
        if kind is tuple and not isinstance(value, str):
            return tuple(exact_int(v, key) for v in value)
        if kind is float and isinstance(value, numbers.Real) and not isinstance(value, bool):
            return float(value)
        if kind in (bool, str) and isinstance(value, kind):
            return value
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"config key {key!r}: cannot parse {value!r} as {kind.__name__}")


@dataclass
class EpochStats:
    epoch: int
    train_accuracy: float
    test_accuracy: float
    train_loss: float
    mean_max_prob: float  # on the training set


@dataclass
class TrainReport:
    epoch_stats: list = field(default_factory=list)
    final_train_accuracy: float = 0.0
    final_test_accuracy: float = 0.0
    final_train_nll: float = 0.0
    final_test_nll: float = 0.0
    final_train_max_prob: float = 0.0
    final_test_max_prob: float = 0.0
    wall_time_sec: float = 0.0
    teacher_forward_calls: int = 0
    ols_fallbacks: int = 0


class TrainOutput(NamedTuple):
    model: Mlp
    report: TrainReport
    cmatrix: CMatrix | None


def evaluate(model: Mlp, dataset: Dataset) -> dict:
    """Top-1 accuracy (argmax ties -> lowest index), mean negative
    log-likelihood (probabilities clamped at 1e-12), and mean max
    probability."""
    if model.num_classes != dataset.num_classes:
        raise ValueError(
            f"model has {model.num_classes} outputs but dataset has "
            f"{dataset.num_classes} classes"
        )
    # each mean is np.mean's sum and division, without its Python wrapper
    n = len(dataset)
    probs = model.predict(dataset.features)
    hits = np.argmax(probs, axis=1) == dataset.labels
    accuracy = float(np.add.reduce(hits, dtype=np.float64) / n)
    # one flat take on the C-ordered rows: row i's label sits at i * K + label
    row_starts = np.arange(0, probs.size, probs.shape[1])
    p_true = np.maximum(probs.take(row_starts + dataset.labels), 1e-12)
    mean_nll = float(np.add.reduce(-np.log(p_true)) / n) + 0.0
    mean_max_prob = float(np.add.reduce(row_max(probs)) / n)
    return {"accuracy": accuracy, "mean_nll": mean_nll, "mean_max_prob": mean_max_prob}


# The epoch orders of the latest (seed, n) a run asked for: that key and a
# dict of epoch -> read-only row. A new key replaces the pair as a whole, so
# a reader that took the pair never sees another key's rows.
_epoch_orders: tuple = (None, {})


def epoch_order(seed: int, epoch: int, n: int) -> np.ndarray:
    """The shuffle of epoch ``epoch`` in a run of ``seed`` on ``n`` rows,
    ``Rng(derive_seed(seed, 1 + epoch)).permutation(n)``, as a read-only
    int32 row (int64 from n = 2**31).

    The rows of the latest ``(seed, n)`` are kept as they are asked for,
    up to ``ORDER_CAP`` indices in all; rows past that are computed on
    every call and not kept.
    """
    global _epoch_orders
    key, rows = _epoch_orders
    if key != (seed, n):
        rows = {}
        _epoch_orders = (seed, n), rows
    row = rows.get(epoch)
    if row is None:
        perm = Rng(derive_seed(seed, 1 + epoch)).permutation(n)
        row = perm.astype(np.int32 if n < 1 << 31 else np.int64, copy=False)
        row.flags.writeable = False
        if (len(rows) + 1) * n <= ORDER_CAP:
            rows[epoch] = row
    return row


def teacher_targets(teacher: Mlp, features: np.ndarray, order: np.ndarray,
                    batch_size: int) -> np.ndarray:
    """``teacher``'s probabilities for the rows ``order`` of ``features``,
    each batch of ``batch_size`` rows equal bit for bit to
    ``teacher.predict`` of that batch alone.

    The full batches go to `Mlp.predict` as (S, B, D) stacks of at most
    ``STACK_CAP`` gathered values (one batch at least), a partial last batch
    as one 2-D call, so the teacher counts one forward pass per batch.
    """
    n, width = len(order), features.shape[1]
    full = n - n % batch_size
    chunk = max(1, STACK_CAP // (batch_size * width)) * batch_size
    out = np.empty((n, teacher.num_classes), dtype=np.float64)
    for start in range(0, full, chunk):
        stop = min(start + chunk, full)
        stack = features.take(order[start:stop], axis=0).reshape(-1, batch_size, width)
        out[start:stop] = teacher.predict(stack).reshape(stop - start, -1)
    if full < n:
        out[full:] = teacher.predict(features.take(order[full:], axis=0))
    return out


def _run(config: TrainConfig, train_set: Dataset, test_set: Dataset,
         teacher: Mlp | CMatrix | None) -> TrainOutput:
    started = time.perf_counter()
    k = train_set.num_classes
    config = config.resolved(train_set.num_features, k)
    strategy = config.strategy
    model = init_model(config.layer_sizes, config.seed)
    opt = OptState.for_model(model, config.lr, config.momentum, config.weight_decay)
    grads = Mlp(model.layer_sizes, np.empty_like(model.params))  # backward's buffer
    net_rev, c_fwd, c_rev = _ROUTING[config.ablation_loss]
    teacher_model = teacher if strategy == "distill" else None

    # the target source: every strategy but distill reads table[labels];
    # a learned table is rebuilt from its logits every step, ols from the
    # previous epoch's mean predictions every epoch, and a teacher network
    # gives an epoch's targets in a few stacked calls
    cmatrix: CMatrix | None = None
    learned: TableTargets | None = None
    table = np.eye(k, dtype=np.float64)  # onehot, and ols in epoch 0
    if strategy in LEARNED_TABLE:
        cmatrix = CMatrix.zeros(k, config.alpha)
        learned = TableTargets(cmatrix)
    elif strategy == "ls":
        table = target_table(CMatrix.zeros(k, config.alpha))
    elif strategy == "proxy_distill":
        table = target_table(teacher)

    teacher_calls_before = teacher_model.forward_count if teacher_model else 0
    features, labels = train_set.features, train_set.labels
    n = len(train_set)
    batch_size = config.batch_size
    # ols reads an epoch's predictions once it ends, stored here in step order
    ols_probs = np.empty((n, k), dtype=np.float64) if strategy == "ols" else None
    report = TrainReport()

    for epoch in range(config.epochs):
        perm = epoch_order(config.seed, epoch, n)
        loss_sum = 0.0
        # what depends on the labels alone or on a frozen teacher is gathered
        # once per epoch, and each step reads its rows as a slice
        y_epoch = labels.take(perm)
        if learned is not None:
            cells_epoch, slots_epoch = label_indices(y_epoch, k, batch_size)
        elif teacher_model is not None:
            targets_epoch = teacher_targets(teacher_model, features, perm, batch_size)
        else:
            targets_epoch = table.take(y_epoch, axis=0)

        for batch, start in enumerate(range(0, n, batch_size)):
            stop = start + batch_size
            # take() gathers rows as indexing does, at a third of its cost
            xb = features.take(perm[start:stop], axis=0)
            b = len(xb)

            cache = model.forward(xb)
            probs, log_probs = cache.probs, cache.log_probs
            if learned is not None:
                targets = learned.update().take(y_epoch[start:stop], axis=0)
            else:
                targets = targets_epoch[start:stop]

            # the one finiteness check of the step: a NaN or Inf in the
            # table, the targets or the log-probabilities reaches the loss
            step_loss = cross_entropy(targets, log_probs)
            if not math.isfinite(step_loss):
                raise ValueError(
                    f"training diverged: loss is {step_loss} at epoch {epoch}, batch {batch}"
                )
            loss_sum += step_loss

            dlogits = network_dlogits(probs, targets, b, net_rev)
            sgd_step(model, model.backward(cache, dlogits, grads), opt)
            if learned is not None:
                cgrad = table_logit_grad(learned.row_probs, cmatrix.alpha,
                                         cells_epoch[start:stop], slots_epoch[start:stop],
                                         probs, log_probs, forward=c_fwd, reverse=c_rev)
                # c_lr * (cgrad / b), subtracted from the logits in place
                cgrad /= b
                cgrad *= config.c_lr
                cmatrix.logits -= cgrad
            if ols_probs is not None:
                ols_probs[start:stop] = probs

        train_loss = loss_sum / n
        if train_loss > DIVERGED_LOSS_FACTOR * math.log(k):
            raise ValueError(
                f"training diverged: mean loss {train_loss!r} in epoch {epoch} exceeds "
                f"{DIVERGED_LOSS_FACTOR:g} * ln {k}"
            )

        if ols_probs is not None:
            kept = (np.argmax(ols_probs, axis=1) == y_epoch if config.ols_correct_only
                    else slice(None))
            means = ols_accumulate(ols_probs[kept], y_epoch[kept], k)
            table, fallbacks = ols_table(means, config.ols_mix)
            report.ols_fallbacks += fallbacks

        train_eval = evaluate(model, train_set)
        test_eval = evaluate(model, test_set)
        report.epoch_stats.append(
            EpochStats(
                epoch=epoch,
                train_accuracy=train_eval["accuracy"],
                test_accuracy=test_eval["accuracy"],
                train_loss=train_loss,
                mean_max_prob=train_eval["mean_max_prob"],
            )
        )

    # the model has not moved since the last epoch's evaluation, so the
    # final report reuses it; only a run of no epochs evaluates here
    if config.epochs == 0:
        train_eval = evaluate(model, train_set)
        test_eval = evaluate(model, test_set)
    report.final_train_accuracy = train_eval["accuracy"]
    report.final_test_accuracy = test_eval["accuracy"]
    report.final_train_nll = train_eval["mean_nll"]
    report.final_test_nll = test_eval["mean_nll"]
    report.final_train_max_prob = train_eval["mean_max_prob"]
    report.final_test_max_prob = test_eval["mean_max_prob"]
    if teacher_model is not None:
        report.teacher_forward_calls = teacher_model.forward_count - teacher_calls_before
    report.wall_time_sec = time.perf_counter() - started
    return TrainOutput(model, report, cmatrix)


def train(config: TrainConfig, train_set: Dataset, test_set: Dataset,
          teacher=None) -> TrainOutput:
    """Train one model under ``config.strategy`` and nothing else: ``distill``
    needs a teacher `Mlp`, ``proxy_distill`` a teacher `CMatrix` and any other
    strategy none (`check_teacher`), that fits ``train_set`` (`check_fit`).
    `distill` picks the strategy by teacher."""
    if test_set.num_classes != train_set.num_classes:
        raise ValueError("train and test sets disagree on the class count")
    check_teacher(config, teacher)
    if teacher is not None:
        check_fit(teacher, train_set, "teacher")
    return _run(config, train_set, test_set, teacher)


def check_teacher(config: TrainConfig, teacher) -> None:
    """Raise ValueError, naming the strategy, unless ``teacher`` is the kind
    `TEACHERS` gives ``config.strategy`` (None for the others), a `CMatrix`
    with ``config.alpha`` as its alpha, the one its targets carry."""
    kind = TEACHERS.get(config.strategy)
    if kind is None:
        if teacher is not None:
            raise ValueError(f"strategy {config.strategy!r} takes no teacher, "
                             f"got a {type(teacher).__name__}")
        return
    if not isinstance(teacher, kind):
        got = "none" if teacher is None else f"a {type(teacher).__name__}"
        raise ValueError(f"strategy {config.strategy!r} requires a teacher "
                         f"{kind.__name__}, got {got}")
    if kind is CMatrix and teacher.alpha != config.alpha:
        raise ValueError(f"strategy {config.strategy!r} trains at its teacher table's "
                         f"alpha {teacher.alpha!r}, got alpha={config.alpha!r}")


def check_fit(artifact: Mlp | CMatrix, dataset: Dataset, name: str) -> None:
    """Raise ValueError, naming the artifact ``name``, unless a network or a
    logit table has the data's class count and a network its input width."""
    k = dataset.num_classes
    if artifact.num_classes != k:
        raise ValueError(f"{name} has {artifact.num_classes} outputs, task has {k} classes")
    if isinstance(artifact, Mlp) and artifact.input_dim != dataset.num_features:
        raise ValueError(
            f"{name} takes {artifact.input_dim} inputs, the data has "
            f"{dataset.num_features} features"
        )


def train_ablation(config: TrainConfig, train_set: Dataset,
                   test_set: Dataset) -> TrainOutput:
    """Train a learned table under config.ablation_loss, recorded as the
    ``ablation`` strategy."""
    return train(replace(config, strategy="ablation"), train_set, test_set)


def distill(student_config: TrainConfig, teacher, train_set: Dataset,
            test_set: Dataset) -> TrainOutput:
    """Distill a student from a teacher network (``distill``) or a frozen
    logit table (``proxy_distill``): the teacher's kind picks the strategy,
    and a table its alpha, whatever ``student_config`` names."""
    strategy = next((s for s, kind in TEACHERS.items() if isinstance(teacher, kind)), None)
    if strategy is None:
        raise ValueError(f"teacher must be an Mlp or a CMatrix, got {type(teacher)}")
    alpha = teacher.alpha if strategy == "proxy_distill" else student_config.alpha
    config = replace(student_config, strategy=strategy, alpha=alpha)
    return train(config, train_set, test_set, teacher)


def gradient_check(num_classes: int, seed: int, hidden_sizes=(8,),
                   batch_size: int = 8, step: float = 1e-5) -> dict:
    """Verify both gradient pathways on one random instance with the
    functions training calls, against central finite differences.

    Network side: `network_dlogits` through `Mlp.backward` against the
    batch-mean `cross_entropy` over every weight and bias (targets from a
    random logit table, held fixed). Table side: `table_logit_grad` against
    the batch-mean `reverse_cross_entropy` over every table logit, with the
    predictions held fixed. Returns the worst relative error for each side.
    """
    rng = Rng(derive_seed(seed, 9000))
    input_dim = 3
    sizes = [input_dim, *[int(h) for h in hidden_sizes], num_classes]
    model = init_model(sizes, seed)
    # central differences are only valid away from rectifier kinks: redraw
    # the probe batch until every hidden pre-activation clears a margin that
    # dwarfs the default step sizes (steps near or above it are on their own)
    margin = 1e-3
    for _ in range(200):
        batch = rng.uniforms((batch_size, input_dim), -1.0, 1.0)
        pre = model.forward(batch).pre_activations[:-1]
        if not pre or min(np.abs(z).min() for z in pre) > margin:
            break
    else:
        raise RuntimeError("could not find a kink-free probe batch")
    labels = np.array([rng.next_below(num_classes) for _ in range(batch_size)])
    cmatrix = CMatrix(rng.uniforms((num_classes, num_classes - 1), -2.0, 2.0), 0.1)

    targets = target_table(cmatrix)[labels]
    cache = model.forward(batch)
    probs = cache.probs
    dlogits = network_dlogits(probs, targets, batch_size, reverse=False)
    network_err = central_difference_error(
        model.params, model.backward(cache, dlogits),
        lambda: cross_entropy(targets, model.forward(batch).log_probs) / batch_size, step)

    analytic = table_logit_grad(cmatrix.all_row_probs(), cmatrix.alpha,
                                *label_indices(labels, num_classes), probs, cache.log_probs,
                                forward=False, reverse=True) / batch_size
    cmatrix_err = central_difference_error(
        cmatrix.logits.reshape(-1), analytic.reshape(-1),
        lambda: reverse_cross_entropy(probs, target_table(cmatrix)[labels]) / batch_size, step)
    return {"network_max_rel_err": network_err, "cmatrix_max_rel_err": cmatrix_err}


def write_metrics_csv(report: TrainReport, path) -> None:
    table = np.array([[row.epoch, row.train_accuracy, row.test_accuracy, row.train_loss,
                       row.mean_max_prob] for row in report.epoch_stats],
                     dtype=np.float64).reshape(-1, 5)
    write_csv(path, ["epoch", "train_acc", "test_acc", "train_loss", "mean_max_prob"],
              table, int_columns=(0,))


def write_run_artifacts(run_dir, config: TrainConfig, result: TrainOutput) -> None:
    """Write config.json, metrics.csv, checkpoint.json, report.json, and
    (when a table was learned) cmatrix.csv with its sidecar."""
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    write_json(run_dir / "config.json", asdict(config))
    write_metrics_csv(result.report, run_dir / "metrics.csv")
    save_checkpoint(result.model, run_dir / "checkpoint.json")

    report_doc = asdict(result.report)
    report_doc["epochs"] = report_doc.pop("epoch_stats")
    if result.cmatrix is not None:
        export_cmatrix(
            result.cmatrix,
            run_dir / "cmatrix.csv",
            metadata={
                "strategy": config.strategy,
                "ablation_loss": config.ablation_loss,
                "seed": config.seed,
                "epochs": config.epochs,
            },
        )
        report_doc["c_row_entropy"] = [
            float(v) for v in c_row_entropy(result.cmatrix)
        ]
    write_json(run_dir / "report.json", report_doc)
