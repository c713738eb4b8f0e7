"""Training-label strategies: one-hot, smoothing, learnable smoothing, online
smoothing, and teacher-derived targets, with the losses and gradients that
train them.

The learnable variant keeps, for every class y, a row of K-1 logits whose
softmax says how the smoothing mass alpha is shared among the non-target
classes. The target for a sample of class y is then

    target[y] = 1 - alpha
    target[i] = alpha * softmax(row_y)[slot(i)]      for i != y

where slot(i) maps the non-target classes of y to 0..K-2 in increasing class
order. The ground-truth entry never depends on the learned row, so the
argmax of every target stays at y for alpha < 0.5.

Training uses a symmetric pair of cross-entropies with disjoint gradient
routes: the forward direction H(target, prediction) updates only the
network, and the reverse direction H(prediction, target) updates only the
logit table. Each loss and gradient lives here once, batched: the terms
`cross_entropy` and `reverse_cross_entropy`, the network's logit gradient
`network_dlogits` (`reverse_dlogits` serves the un-gated loss ablations) and
the table's `table_logit_grad`. Training and `gradient_check` call these
same functions; the tests check them against per-sample oracles.

What depends on the labels alone is built outside the step that reads it:
`label_indices` gives the gather and scatter indices of `table_logit_grad`,
which a training run builds once per epoch. `TableTargets` is the one
builder of a K x K target table: `target_table` is one update of a new one,
and a learned table keeps one, with its buffers, for the whole run.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .dataio import (
    DataFormatError,
    exact_int,
    export_matrix_csv,
    json_document,
    read_table,
    write_json,
)
from .numerics import require_finite, row_sum, softmax_probs_into, softmax_rows

LOG_CLAMP = 1e-12


def around_diagonal(off: np.ndarray, diagonal: float) -> np.ndarray:
    """K x K matrix whose row y holds row y of the K x (K-1) ``off`` at the
    columns other than y, in increasing order, and ``diagonal`` at column y."""
    k = off.shape[0]
    out = np.empty((k, k), dtype=np.float64)
    _off_cells(out)[...] = off.reshape(k - 1, k)
    out.reshape(-1)[:: k + 1] = diagonal
    return out


def off_diagonal(full: np.ndarray) -> np.ndarray:
    """Inverse of around_diagonal: the K x (K-1) off-diagonal cells of a
    K x K matrix, row y listing the columns other than y in increasing order."""
    k = full.shape[0]
    return _off_cells(full).reshape(k, k - 1)


def _off_cells(full: np.ndarray) -> np.ndarray:
    """A (K-1) x K view of the off-diagonal cells of a C-ordered K x K
    matrix, which come in runs of K between its diagonal cells."""
    k = full.shape[0]
    return full.reshape(-1)[1:].reshape(k - 1, k + 1)[:, :k]


@functools.cache
def _off_slots(k: int) -> np.ndarray:
    """Read-only K x (K-1) table: row y lists the classes other than y."""
    slots = off_diagonal(np.tile(np.arange(k), (k, 1)))
    slots.flags.writeable = False
    return slots


@dataclass
class CMatrix:
    """K x (K-1) learnable logits; softmax per row shares alpha across
    the non-target classes of that row's class."""

    logits: np.ndarray
    alpha: float

    def __post_init__(self):
        logits = np.asarray(self.logits, dtype=np.float64)
        if logits.ndim != 2 or logits.shape[1] != logits.shape[0] - 1:
            raise ValueError(
                f"logits must have shape (K, K-1), got {logits.shape}"
            )
        if logits.shape[0] < 2:
            raise ValueError("need at least 2 classes")
        require_finite(logits, "logits")
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"alpha must be in [0, 1), got {self.alpha}")
        self.logits = logits

    @classmethod
    def zeros(cls, num_classes: int, alpha: float) -> "CMatrix":
        return cls(np.zeros((num_classes, num_classes - 1)), alpha)

    @property
    def num_classes(self) -> int:
        return self.logits.shape[0]

    def all_row_probs(self) -> np.ndarray:
        return softmax_rows(self.logits)

    def expanded_probs(self) -> np.ndarray:
        """K x K view with the per-row softmax scattered around an exact-0
        diagonal."""
        return around_diagonal(self.all_row_probs(), 0.0)


def target_table(c: CMatrix) -> np.ndarray:
    """All K class targets at once: row y is the target of class y."""
    return TableTargets(c).update()


class TableTargets:
    """The one builder of a K x K target table: 1 - alpha on the diagonal,
    alpha times the row softmax of ``cmatrix``'s logits around it. A run
    whose table learns keeps one, and so its buffers: ``row_probs`` holds
    the row softmax and ``table`` the targets, whose diagonal is written
    here once. `update` rewrites the rest from the logits as they stand."""

    def __init__(self, c: CMatrix):
        self.cmatrix = c
        self.row_probs = np.zeros_like(c.logits)
        self.table = around_diagonal(self.row_probs, 1.0 - c.alpha)
        # the table's off-diagonal cells, and row_probs laid out as they are
        self._cells = _off_cells(self.table)
        self._row_cells = self.row_probs.reshape(self._cells.shape)

    def update(self) -> np.ndarray:
        """Softmax the logits into ``row_probs``, write alpha times it around
        the diagonal of ``table`` and return the table."""
        softmax_probs_into(self.cmatrix.logits, self.row_probs)
        np.multiply(self._row_cells, self.cmatrix.alpha, out=self._cells)
        return self.table


def cross_entropy(targets: np.ndarray, log_probs: np.ndarray) -> float:
    """The forward term H(target, prediction) = -sum targets * log_probs,
    summed over a batch."""
    return float(-np.add.reduce(targets * log_probs, axis=None))


def reverse_cross_entropy(probs: np.ndarray, targets: np.ndarray) -> float:
    """The reverse term H(prediction, target) = -sum probs * log(targets),
    summed over a batch; targets are clamped at LOG_CLAMP as in `reverse_dlogits`."""
    return float(-(probs * np.log(np.maximum(targets, LOG_CLAMP))).sum())


def network_dlogits(probs: np.ndarray, targets: np.ndarray, b: int,
                    reverse: bool) -> np.ndarray:
    """Network logit gradient of the batch-mean loss for frozen targets:
    (probs - targets) / b, plus `reverse_dlogits` / b when ``reverse``
    (``sce_original``). Dividing their sum once would round differently."""
    dlogits = (probs - targets) / b
    if reverse:
        dlogits += reverse_dlogits(probs, targets) / b
    return dlogits


def reverse_dlogits(probs: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per-sample gradient of the reverse cross-entropy H(prediction, target)
    w.r.t. the network logits, for a batch of frozen targets (clamped at
    LOG_CLAMP before the log). Only the un-gated loss ablations use it.

    d/dz_j = -probs_j * (log t_j - sum_i probs_i log t_i) per row.
    """
    log_t = np.log(np.maximum(targets, LOG_CLAMP))
    inner = row_sum(probs * log_t)
    return -probs * (log_t - inner)


def label_indices(labels: np.ndarray, k: int,
                  batch_size: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The index arrays `table_logit_grad` reads for samples of ``labels``,
    taken in batches of ``batch_size`` (one batch when None). Row i of
    ``cells`` holds the flat indices of sample i's K-1 non-target classes,
    in increasing order, into its batch's B x K predictions; row i of
    ``slots`` the flat indices y*(K-1)+j of the K x (K-1) table row it
    feeds. A training run builds both once per epoch and slices them per
    batch."""
    labels = np.asarray(labels)
    rows = np.arange(len(labels))
    if batch_size is not None:
        rows %= batch_size
    cells = _off_slots(k).take(labels, axis=0)
    cells += (rows * k)[:, None]
    slots = labels[:, None] * (k - 1) + np.arange(k - 1)
    return cells, slots


def table_logit_grad(row_probs: np.ndarray, alpha: float, cells: np.ndarray,
                     slots: np.ndarray, probs: np.ndarray, log_probs: np.ndarray, *,
                     forward: bool, reverse: bool) -> np.ndarray:
    """Gradient w.r.t. the K x (K-1) logit table of the selected loss terms,
    summed (not averaged) over a batch; each sample feeds only the row of its
    label. ``row_probs`` is the table's row softmax, ``probs``/``log_probs``
    the batch's predictions, ``cells`` and ``slots`` the batch's
    `label_indices`. With p = row_probs[y] over the non-target slots:

    reverse term H(prediction, target): g_j = -(probs_j - p_j * S), where S
    is the predicted mass off the target class; alpha cancels, since it only
    shifts the log additively.

    forward term H(target, prediction): g_j = -alpha * p_j * (log_probs_j -
    sum_i p_i * log_probs_i). Descent on it concentrates the row on the class
    the network already scores highest, collapsing the row's entropy.

    One `np.bincount` adds the reverse rows, then the forward rows, each in
    batch order, to a table of zeros, as `np.add.at` into a zeroed table adds
    them, so repeated labels sum as a loop over the batch would sum them. A
    zero term's sign is lost in 0.0 + -0.0, so the reverse rows are formed as
    p * S - probs_j, one negation fewer.
    """
    p = row_probs.take(slots)
    terms = []
    if reverse:
        off_target = probs.take(cells)
        terms.append(p * row_sum(off_target) - off_target)
    if forward:
        off_logp = log_probs.take(cells)
        inner = row_sum(p * off_logp)
        terms.append(-alpha * p * (off_logp - inner))
    if len(terms) == 1:
        weights, index = terms[0], slots
    else:
        weights, index = np.concatenate(terms), np.concatenate((slots, slots))
    grad = np.bincount(index.ravel(), weights.ravel(), minlength=row_probs.size)
    return grad.reshape(row_probs.shape)


def ols_accumulate(probs: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """The K x C mean row per class of B x C ``probs`` with B ``labels``:
    row y sums the rows of class y from zero in row order, as a loop over
    them would, and divides by their count. A class with no rows keeps an
    all-zero row. A training run passes an epoch's predictions, stored in
    step order, in one call; `analysis` passes predictions or features."""
    means = np.zeros((k, probs.shape[1]), dtype=np.float64)
    np.add.at(means, labels, probs)
    counts = np.bincount(labels, minlength=k)
    seen = counts > 0
    means[seen] /= counts[seen, None]
    return means


def ols_table(class_means: np.ndarray, mix: float) -> tuple[np.ndarray, int]:
    """The K x K online-smoothing table: row y is one-hot at y pulled toward
    class y's mean prediction by `mix`, plus the number of fallback rows.

    Computed as onehot + mix * (mean - onehot), which is exact when the mean
    itself is one-hot (the collapse case) for every mix. A class whose mean
    row is all-zero (never observed) falls back to plain one-hot, and counts
    as a fallback. Rows are renormalized only when their sum drifts from 1
    by more than 1e-9.
    """
    if not 0.0 <= mix <= 1.0:
        raise ValueError(f"mix must be in [0, 1], got {mix}")
    class_means = np.asarray(class_means, dtype=np.float64)
    onehot = np.eye(class_means.shape[0])
    table = onehot + mix * (class_means - onehot)
    unseen = class_means.sum(axis=1) == 0.0
    table[unseen] = onehot[unseen]
    total = table.sum(axis=1)
    drift = np.abs(total - 1.0) > 1e-9
    table[drift] /= total[drift, None]
    return table, int(unseen.sum())


def export_cmatrix(c: CMatrix, csv_path, metadata: dict | None = None) -> None:
    """Write the expanded K x K probabilities as CSV (header = class
    indices, exact 0.0 diagonal) plus a JSON sidecar with alpha and K."""
    export_matrix_csv(c.expanded_probs(), csv_path)
    write_json(cmatrix_sidecar_path(csv_path),
               {"alpha": c.alpha, "num_classes": c.num_classes, "metadata": metadata or {}})


def cmatrix_sidecar_path(csv_path) -> str:
    """The JSON sidecar of a class table's CSV: its path with ``.csv``
    replaced by (or else followed by) ``.json``."""
    text = str(csv_path)
    return (text[: -len(".csv")] if text.endswith(".csv") else text) + ".json"


def load_cmatrix(csv_path) -> CMatrix:
    """Rebuild a CMatrix from its CSV export and JSON sidecar.

    Logits are recovered as log of the off-diagonal probabilities (softmax
    is shift-invariant, so any representative works); zero probabilities are
    clamped to keep the logits finite. Raises ValueError when the sidecar
    lacks a key, holds a value of the wrong type (a boolean or text alpha
    among them) or a class count that fails `dataio.exact_int`, when the CSV
    fails `dataio.read_table` (the data CSV's grammar and checks), or when it
    is not K x K for the sidecar's K; and a `DataFormatError` naming the
    first class row that `export_cmatrix` could not have written: one with a
    nonzero diagonal cell, a negative cell, or other cells whose sum is
    more than 1e-9 from 1.
    """
    sidecar_path = cmatrix_sidecar_path(csv_path)
    with json_document(sidecar_path, ("alpha", "num_classes")) as sidecar:
        alpha, k = sidecar["alpha"], sidecar["num_classes"]
        numbers = all(isinstance(v, (int, float)) for v in (alpha, k))
        if isinstance(alpha, bool) or not numbers:
            raise TypeError(f"alpha {alpha!r} and num_classes {k!r} must be numbers")
        k, alpha = exact_int(k, f"{sidecar_path}: num_classes"), float(alpha)
    _, expanded = read_table(csv_path)
    if expanded.shape != (k, k):
        raise ValueError(
            f"{csv_path}: sidecar says {k} classes, but the CSV has a "
            f"{expanded.shape[1]}-column header and {expanded.shape[0]} rows"
        )
    off = off_diagonal(expanded)
    sums = off.sum(axis=1)
    bad = (np.diagonal(expanded) != 0.0) | (off.min(axis=1) < 0.0) | (abs(sums - 1.0) > 1e-9)
    if bad.any():
        y = int(np.argmax(bad))
        raise DataFormatError(
            f"{csv_path}: class row {y} is not a probability row around a zero "
            f"diagonal: diagonal {float(expanded[y, y])!r}, smallest other cell "
            f"{float(off[y].min())!r}, other cells summing to {float(sums[y])!r}"
        )
    return CMatrix(np.log(np.maximum(off, 1e-300)), alpha)
