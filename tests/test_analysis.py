import math

import numpy as np
import pytest

from labelforge.analysis import (
    c_row_entropy,
    center_distance_matrix,
    class_centers,
    class_mean_probs,
)
from labelforge.dataio import Dataset, export_matrix_csv
from labelforge.labelreg import CMatrix
from labelforge.model import Mlp, init_model
from labelforge.numerics import Rng


def zero_model(sizes):
    weights = [np.zeros((a, b)) for a, b in zip(sizes, sizes[1:])]
    biases = [np.zeros(b) for b in sizes[1:]]
    return Mlp(sizes, np.concatenate([a.reshape(-1) for pair in zip(weights, biases)
                                      for a in pair]))


def dead_unit_model(sizes, seed):
    """`init_model` with the first hidden unit's bias pushed far below zero,
    so that its ReLU gives exact zeros for every input in [-1, 1]**D."""
    model = init_model(sizes, seed)
    model.biases[0][0] = -100.0
    return model


def random_dataset(seed, n_per_class=6, classes=3, dim=2):
    rng = Rng(seed)
    features = rng.uniforms((n_per_class * classes, dim), -1.0, 1.0)
    labels = np.repeat(np.arange(classes), n_per_class)
    return Dataset(features, labels, classes)


class TestClassMeanProbs:
    def test_uniform_predictor(self):
        data = random_dataset(1)
        out = class_mean_probs(zero_model([2, 4, 3]), data)
        assert np.abs(out - 1.0 / 3.0).max() < 1e-15

    def test_single_sample_rows(self):
        model = init_model([2, 5, 3], seed=2)
        data = Dataset(np.eye(3, 2), [0, 1, 2], 3)
        out = class_mean_probs(model, data)
        probs = model.forward(data.features).probs
        assert np.abs(out - probs).max() == 0.0

    def test_matches_accumulation_oracle(self):
        model = dead_unit_model([2, 6, 3], seed=3)
        data = random_dataset(4, n_per_class=11)
        out = class_mean_probs(model, data)
        probs = model.forward(data.features).probs
        expected = np.empty_like(out)
        for c in range(3):
            total = np.zeros(3)
            count = 0
            for i in range(len(data)):
                if data.labels[i] == c:
                    total += probs[i]
                    count += 1
            expected[c] = total / count
        assert out.tobytes() == expected.tobytes()

    def test_rows_sum_to_one(self):
        out = class_mean_probs(init_model([2, 4, 3], seed=5), random_dataset(6))
        assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-6


class TestClassCenters:
    def test_identical_samples_identical_centers(self):
        features = np.tile([0.3, -0.2], (9, 1))
        data = Dataset(features, [0, 1, 2] * 3, 3)
        centers = class_centers(init_model([2, 4, 3], seed=1), data)
        assert np.abs(centers - centers[0]).max() == 0.0

    def test_deterministic(self):
        model = init_model([2, 5, 3], seed=7)
        data = random_dataset(8)
        assert np.array_equal(class_centers(model, data), class_centers(model, data))

    def test_matches_manual_oracle(self):
        model = dead_unit_model([2, 5, 3], seed=9)
        data = random_dataset(10, n_per_class=7)
        centers = class_centers(model, data)
        hidden = model.forward(data.features).hidden_activations[-1]
        assert (hidden[:, 0] == 0.0).all()
        manual = np.stack([hidden[data.labels == c].mean(axis=0) for c in range(3)])
        assert centers.tobytes() == manual.tobytes()

    def test_uses_last_hidden_layer(self):
        model = init_model([2, 5, 4, 3], seed=11)
        data = random_dataset(12)
        assert class_centers(model, data).shape == (3, 4)

    def test_no_hidden_layer_rejected(self):
        with pytest.raises(ValueError, match="hidden"):
            class_centers(init_model([2, 3], seed=0), random_dataset(13))


class TestCenterDistanceMatrix:
    def test_identical_centers_fall_back_to_uniform(self):
        centers = np.tile([1.0, 2.0], (4, 1))
        out = center_distance_matrix(centers)
        off = out[~np.eye(4, dtype=bool)]
        assert np.abs(off - 1.0 / 3.0).max() < 1e-15
        assert np.array_equal(np.diag(out), np.zeros(4))

    def test_orthogonal_centers(self):
        out = center_distance_matrix(np.eye(3))
        off = out[~np.eye(3, dtype=bool)]
        assert np.abs(off - 0.5).max() < 1e-12

    def test_matches_direct_formula(self):
        centers = Rng(21).uniforms((5, 4), 0.1, 2.0)
        out = center_distance_matrix(centers)
        k = 5
        raw = np.zeros((k, k))
        for i in range(k):
            for j in range(k):
                ci, cj = centers[i], centers[j]
                cos = np.dot(ci, cj) / (np.linalg.norm(ci) * np.linalg.norm(cj))
                raw[i, j] = 1.0 - cos
        for i in range(k):
            off = [j for j in range(k) if j != i]
            total = raw[i, off].sum()
            for j in off:
                assert abs(out[i, j] - raw[i, j] / total) < 1e-12
            assert out[i, i] == 0.0

    def test_row_normalization(self):
        centers = Rng(22).uniforms((6, 3), -1.0, 1.0)
        out = center_distance_matrix(centers)
        assert (out >= 0).all()
        assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-9

    def test_scale_invariance(self):
        centers = Rng(23).uniforms((4, 3), 0.1, 1.0)
        scaled = centers.copy()
        scaled[1] *= 7.0
        a = center_distance_matrix(centers)
        b = center_distance_matrix(scaled)
        assert np.abs(a - b).max() < 1e-12

    def test_zero_norm_center_rejected(self):
        centers = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="zero-norm"):
            center_distance_matrix(centers)


class TestCRowEntropy:
    def test_zero_logits_maximal(self):
        out = c_row_entropy(CMatrix.zeros(5, 0.1))
        assert np.abs(out - math.log(4.0)).max() < 1e-12

    def test_peaked_row_near_zero(self):
        logits = np.zeros((4, 3))
        logits[0, 0] = 50.0
        out = c_row_entropy(CMatrix(logits, 0.1))
        assert out[0] < 1e-12
        assert abs(out[1] - math.log(3.0)) < 1e-12

    def test_matches_direct_formula(self):
        c = CMatrix(Rng(31).uniforms((5, 4), -2.0, 2.0), 0.1)
        out = c_row_entropy(c)
        probs = c.all_row_probs()
        direct = np.array([-(p * np.log(p)).sum() for p in probs])
        assert np.abs(out - direct).max() < 1e-12

    def test_zero_logits_strictly_dominate(self):
        rng = Rng(32)
        top = math.log(4.0)
        for _ in range(20):
            logits = rng.uniforms((5, 4), -3.0, 3.0)
            assert c_row_entropy(CMatrix(logits, 0.1)).max() < top


class TestExportMatrixCsv:
    def test_header_and_round_trip(self, tmp_path):
        m = Rng(41).uniforms((3, 3), -1.0, 1.0)
        path = tmp_path / "m.csv"
        export_matrix_csv(m, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "0,1,2"
        parsed = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.array_equal(parsed, m)
