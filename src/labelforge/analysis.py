"""Numeric counterparts of the usual training-diagnostics plots: class-wise
mean output probabilities, penultimate-feature cluster centers and their
normalized cosine distances, logit-table row entropies, and confidence
summaries. Everything is plain matrices, exportable as CSV."""

from __future__ import annotations

import numpy as np

from .dataio import Dataset
from .labelreg import CMatrix, around_diagonal, off_diagonal, ols_accumulate
from .model import Mlp


def class_mean_probs(model: Mlp, dataset: Dataset) -> np.ndarray:
    """K x K matrix; row i is the mean predicted distribution over the
    samples whose true class is i."""
    if model.num_classes != dataset.num_classes:
        raise ValueError("model and dataset disagree on the class count")
    return ols_accumulate(model.predict(dataset.features), dataset.labels,
                          dataset.num_classes)


def class_centers(model: Mlp, dataset: Dataset) -> np.ndarray:
    """K x H matrix of mean last-hidden-layer activations per class."""
    if model.num_layers < 2:
        raise ValueError("model has no hidden layer to take features from")
    return ols_accumulate(model.forward(dataset.features).hidden_activations[-1],
                          dataset.labels, dataset.num_classes)


def center_distance_matrix(centers: np.ndarray) -> np.ndarray:
    """Cosine distances 1 - cos(c_i, c_j), diagonal pinned to 0, each row's
    off-diagonal entries divided by their row sum.

    A row of identical centers (all distances 0) normalizes to a uniform
    off-diagonal row instead of erroring, so a finished run always yields a
    matrix.
    """
    centers = np.asarray(centers, dtype=np.float64)
    norms = np.linalg.norm(centers, axis=1)
    if (norms == 0).any():
        bad = np.flatnonzero(norms == 0).tolist()
        raise ValueError(f"zero-norm centers for classes {bad}")
    unit = centers / norms[:, None]
    off = off_diagonal(1.0 - unit @ unit.T)
    total = off.sum(axis=1, keepdims=True)
    # rows whose sum is not positive keep the uniform value, undivided
    uniform = np.full_like(off, 1.0 / off.shape[1])
    return around_diagonal(np.divide(off, total, out=uniform, where=total > 0.0), 0.0)


def c_row_entropy(c: CMatrix) -> np.ndarray:
    """Shannon entropy (nats) of each row's K-1 softmax probabilities."""
    probs = c.all_row_probs()
    logp = np.log(np.maximum(probs, 1e-300))
    return -(probs * logp).sum(axis=1)
