"""Reference forms the tests check `labelforge` against: the label math one
sample at a time, and a finite-difference check of a network's gradient.
Nothing in `labelforge` calls them; training and `gradient_check` use the
batched forms in `labelforge.labelreg`."""

import numpy as np

from labelforge.labelreg import LOG_CLAMP, CMatrix
from labelforge.model import central_difference_error
from labelforge.numerics import softmax_rows


def row_probs(c: CMatrix, y: int) -> np.ndarray:
    """The softmax of row y of a logit table."""
    return softmax_rows(c.logits[y : y + 1])[0]


def ls_target(y: int, num_classes: int, alpha: float) -> np.ndarray:
    """Classic smoothing: (1-alpha) on the one-hot plus alpha spread
    uniformly over all K classes (the target class included). alpha may be
    1.0 here (fully uniform target); training configs are stricter."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    if not 0 <= y < num_classes:
        raise ValueError(f"label {y} out of range for {num_classes} classes")
    target = np.full(num_classes, alpha / num_classes, dtype=np.float64)
    target[y] = 1.0 - alpha + alpha / num_classes
    return target


def lspp_target(c: CMatrix, y: int) -> np.ndarray:
    """Learnable smoothing target: exactly (1-alpha) at y, alpha shared over
    the other classes by the row-y softmax."""
    k = c.num_classes
    if not 0 <= y < k:
        raise ValueError(f"label {y} out of range for {k} classes")
    target = np.zeros(k, dtype=np.float64)
    target[np.arange(k) != y] = c.alpha * row_probs(c, y)
    target[y] = 1.0 - c.alpha
    return target


def cross_entropy(target, log_probs) -> float:
    """Cross-entropy -sum(target * log_probs) for one length-K sample."""
    target = np.asarray(target, dtype=np.float64)
    log_probs = np.asarray(log_probs, dtype=np.float64)
    if target.shape != log_probs.shape or target.ndim != 1:
        raise ValueError(
            f"cross_entropy length mismatch: target {target.shape} vs "
            f"log_probs {log_probs.shape}"
        )
    total = float(target.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"target is not a distribution (sums to {total!r})")
    return float(-np.dot(target, log_probs))


def sample_reverse_cross_entropy(c: CMatrix, y: int, probs: np.ndarray) -> float:
    """Scalar H(prediction, target) = -sum_i probs_i * log(target_i) for one
    sample of class y, with target entries clamped below at LOG_CLAMP before
    the log."""
    target = np.maximum(lspp_target(c, y), LOG_CLAMP)
    return float(-np.dot(probs, np.log(target)))


def finite_diff_check(model, batch: np.ndarray, scalar_loss_fn, step: float = 1e-5) -> float:
    """Worst relative error between analytic and central-difference gradients.

    `scalar_loss_fn(model, batch)` must return `(loss, gradient buffer)`, the
    buffer laid out like ``model.params``, and be deterministic. Every weight
    and bias entry is perturbed by +-step.
    """
    _, analytic = scalar_loss_fn(model, batch)
    return central_difference_error(model.params, analytic,
                                    lambda: scalar_loss_fn(model, batch)[0], step)
