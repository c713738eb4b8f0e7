"""Numeric counterparts of the usual training-diagnostics plots: class-wise
mean output probabilities, penultimate-feature cluster centers and their
normalized cosine distances, logit-table row entropies, and confidence
summaries. Everything is plain matrices, exportable as CSV."""

from __future__ import annotations

import numpy as np

from .dataio import Dataset, write_csv
from .labelreg import CMatrix
from .model import Mlp


def class_mean_probs(model: Mlp, dataset: Dataset) -> np.ndarray:
    """K x K matrix; row i is the mean predicted distribution over the
    samples whose true class is i."""
    if model.num_classes != dataset.num_classes:
        raise ValueError("model and dataset disagree on the class count")
    probs = model.predict(dataset.features)
    k = dataset.num_classes
    out = np.empty((k, k), dtype=np.float64)
    for c in range(k):
        rows = dataset.labels == c
        if not rows.any():
            raise ValueError(f"class {c} has no samples")
        out[c] = probs[rows].mean(axis=0)
    return out


def class_centers(model: Mlp, dataset: Dataset) -> np.ndarray:
    """K x H matrix of mean last-hidden-layer activations per class."""
    if model.num_layers < 2:
        raise ValueError("model has no hidden layer to take features from")
    cache = model.forward(dataset.features)
    feats = cache.hidden_activations[-1]
    k = dataset.num_classes
    centers = np.empty((k, feats.shape[1]), dtype=np.float64)
    for c in range(k):
        rows = dataset.labels == c
        if not rows.any():
            raise ValueError(f"class {c} has no samples")
        centers[c] = feats[rows].mean(axis=0)
    return centers


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
    dist = 1.0 - unit @ unit.T
    k = centers.shape[0]
    np.fill_diagonal(dist, 0.0)
    off_diag = ~np.eye(k, dtype=bool)
    out = np.zeros_like(dist)
    for i in range(k):
        row = dist[i][off_diag[i]]
        total = row.sum()
        if total <= 0.0:
            out[i][off_diag[i]] = 1.0 / (k - 1)
        else:
            out[i][off_diag[i]] = row / total
    return out


def c_row_entropy(c: CMatrix) -> np.ndarray:
    """Shannon entropy (nats) of each row's K-1 softmax probabilities."""
    probs = c.all_row_probs()
    logp = np.log(np.maximum(probs, 1e-300))
    return -(probs * logp).sum(axis=1)


def export_matrix_csv(matrix: np.ndarray, path) -> None:
    """Write a K x C matrix as CSV with a class-index header row."""
    matrix = np.asarray(matrix, dtype=np.float64)
    write_csv(path, [str(i) for i in range(matrix.shape[1])], matrix.tolist())
