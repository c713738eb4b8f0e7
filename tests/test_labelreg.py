import json
import math

import numpy as np
import pytest

from labelforge.labelreg import (
    CMatrix,
    OlsState,
    export_cmatrix,
    load_cmatrix,
    ols_accumulate,
    ols_table,
    reverse_dlogits,
    table_logit_grad,
    target_table,
    targets_from_row_probs,
)
from labelforge.numerics import (
    Rng,
    log_softmax_rows,
    softmax_pair,
    softmax_probs_inplace,
    softmax_rows,
)

from oracles import cross_entropy, ls_target, lspp_target, row_probs, sample_reverse_cross_entropy


def random_probs(rng, k):
    row = rng.uniforms((k,), 0.05, 1.0)
    return row / row.sum()


def random_cmatrix(rng, k, alpha=0.1):
    return CMatrix(rng.uniforms((k, k - 1), -2.0, 2.0), alpha)


def c_logit_grad(c, y, probs):
    """Reverse-term gradient on row y for one sample: a batch of one
    through the batched table gradient."""
    grad = table_logit_grad(c.all_row_probs(), c.alpha, np.array([y]),
                            np.asarray(probs)[None], None, forward=False, reverse=True)
    return grad[y]


def c_logit_grad_forward(c, y, log_probs):
    """Forward-term gradient on row y for one sample, batched as above."""
    grad = table_logit_grad(c.all_row_probs(), c.alpha, np.array([y]), None,
                            np.asarray(log_probs)[None], forward=True, reverse=False)
    return grad[y]


class TestLsTarget:
    def test_pinned_values(self):
        t = ls_target(1, 4, 0.1)
        assert np.abs(t - [0.025, 0.925, 0.025, 0.025]).max() < 1e-12

    def test_alpha_zero_is_onehot(self):
        assert np.array_equal(ls_target(2, 5, 0.0), np.eye(5)[2])

    def test_alpha_one_is_uniform(self):
        assert np.abs(ls_target(0, 4, 1.0) - 0.25).max() < 1e-15

    def test_range_errors(self):
        with pytest.raises(ValueError):
            ls_target(0, 4, -0.1)
        with pytest.raises(ValueError):
            ls_target(0, 4, 1.5)


class TestCMatrix:
    def test_row_probs_are_distributions(self):
        c = random_cmatrix(Rng(1), 6)
        for y in range(6):
            p = row_probs(c, y)
            assert p.shape == (5,)
            assert (p >= 0).all()
            assert abs(p.sum() - 1.0) < 1e-12

    def test_expanded_diagonal_exactly_zero(self):
        c = random_cmatrix(Rng(2), 5)
        expanded = c.expanded_probs()
        assert np.array_equal(np.diag(expanded), np.zeros(5))
        assert np.abs(expanded.sum(axis=1) - 1.0).max() < 1e-12

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            CMatrix(np.zeros((4, 4)), 0.1)
        with pytest.raises(ValueError):
            CMatrix(np.zeros((4, 3)), 1.0)


class TestLsppTarget:
    def test_zero_logits_pinned(self):
        c = CMatrix.zeros(4, 0.1)
        t = lspp_target(c, 0)
        assert np.abs(t - [0.9, 0.1 / 3, 0.1 / 3, 0.1 / 3]).max() < 1e-12

    def test_explicit_row_probabilities(self):
        logits = np.zeros((4, 3))
        logits[0] = np.log([0.5, 0.3, 0.2])
        t = lspp_target(CMatrix(logits, 0.1), 0)
        assert np.abs(t - [0.9, 0.05, 0.03, 0.02]).max() < 1e-12

    def test_target_slot_fixed_regardless_of_logits(self):
        rng = Rng(3)
        for _ in range(20):
            c = random_cmatrix(rng, 5, alpha=0.1)
            y = rng.next_below(5)
            t = lspp_target(c, y)
            assert t[y] == 1.0 - 0.1
            assert abs(t[y] - 0.9) < 1e-12

    def test_targets_are_distributions_with_argmax_at_label(self):
        rng = Rng(4)
        for k in (2, 3, 5, 10):
            c = random_cmatrix(rng, k, alpha=0.3)
            for y in range(k):
                t = lspp_target(c, y)
                assert (t >= 0).all()
                assert abs(t.sum() - 1.0) < 1e-9
                assert np.argmax(t) == y

    def test_table_matches_per_class_calls(self):
        c = random_cmatrix(Rng(5), 6)
        table = target_table(c)
        for y in range(6):
            assert np.abs(table[y] - lspp_target(c, y)).max() < 1e-15

    def test_table_rows_bit_identical_to_lspp_target(self):
        rng = np.random.default_rng(6)
        for k in range(2, 21):
            for alpha in (0.0, 0.1, 0.45):
                c = CMatrix(rng.uniform(-30.0, 30.0, size=(k, k - 1)), alpha)
                table = target_table(c)
                for y in range(k):
                    assert table[y].tobytes() == lspp_target(c, y).tobytes(), (k, y)

    def test_expanded_probs_match_row_scatter(self):
        rng = np.random.default_rng(7)
        for k in range(2, 21):
            c = CMatrix(rng.uniform(-5.0, 5.0, size=(k, k - 1)), 0.1)
            expected = np.zeros((k, k))
            probs = softmax_rows(c.logits)
            for y in range(k):
                expected[y, np.arange(k) != y] = probs[y]
            assert c.expanded_probs().tobytes() == expected.tobytes(), k

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            lspp_target(CMatrix.zeros(3, 0.1), 3)


def fd_over_row(scalar_fn, c, y, step=1e-6):
    """Central differences of scalar_fn() over row y of the table logits."""
    k1 = c.logits.shape[1]
    numeric = np.empty(k1)
    for j in range(k1):
        original = c.logits[y, j]
        c.logits[y, j] = original + step
        plus = scalar_fn()
        c.logits[y, j] = original - step
        minus = scalar_fn()
        c.logits[y, j] = original
        numeric[j] = (plus - minus) / (2 * step)
    return numeric


class TestCLogitGrad:
    def test_symmetric_stationary_point(self):
        k = 4
        c = CMatrix.zeros(k, 0.1)
        uniform = np.full(k, 1.0 / k)
        g = c_logit_grad(c, 0, uniform)
        assert np.abs(g).max() < 1e-15

    def test_pinned_three_class_case(self):
        c = CMatrix.zeros(3, 0.1)
        g = c_logit_grad(c, 0, np.array([0.6, 0.3, 0.1]))
        assert np.abs(g - [-0.1, 0.1]).max() < 1e-12

    def test_three_class_case_against_finite_differences(self):
        c = CMatrix.zeros(3, 0.1)
        probs = np.array([0.6, 0.3, 0.1])
        numeric = fd_over_row(lambda: sample_reverse_cross_entropy(c, 0, probs), c, 0)
        assert np.abs(numeric - c_logit_grad(c, 0, probs)).max() < 1e-8

    def test_invariant_to_alpha(self):
        rng = Rng(7)
        logits = rng.uniforms((5, 4), -2.0, 2.0)
        probs = random_probs(rng, 5)
        low = c_logit_grad(CMatrix(logits, 0.05), 2, probs)
        high = c_logit_grad(CMatrix(logits, 0.2), 2, probs)
        assert np.abs(low - high).max() < 1e-15

    @pytest.mark.parametrize("k", [3, 5, 10])
    def test_matches_finite_differences_random_instances(self, k):
        rng = Rng(100 + k)
        for _ in range(5):
            c = random_cmatrix(rng, k, alpha=0.1)
            y = rng.next_below(k)
            probs = random_probs(rng, k)
            analytic = c_logit_grad(c, y, probs)
            numeric = fd_over_row(lambda: sample_reverse_cross_entropy(c, y, probs), c, y)
            for a, n in zip(analytic, numeric):
                rel = abs(a - n) / max(1e-8, abs(a) + abs(n))
                assert rel < 1e-6

    def test_other_rows_receive_no_gradient(self):
        c = random_cmatrix(Rng(8), 4)
        probs = random_probs(Rng(9), 4)
        numeric = fd_over_row(lambda: sample_reverse_cross_entropy(c, 1, probs), c, 3)
        assert np.abs(numeric).max() == 0.0


class TestCLogitGradForward:
    def test_matches_finite_differences_of_live_target_loss(self):
        rng = Rng(10)
        for k in (3, 5):
            c = random_cmatrix(rng, k, alpha=0.1)
            y = rng.next_below(k)
            log_probs = log_softmax_rows(rng.uniforms((1, k), -2.0, 2.0))[0]

            def scalar():
                return cross_entropy(lspp_target(c, y), log_probs)

            analytic = c_logit_grad_forward(c, y, log_probs)
            numeric = fd_over_row(scalar, c, y)
            assert np.abs(analytic - numeric).max() < 1e-8

    def test_descends_toward_most_predicted_class(self):
        # repeated steps against a fixed peaked prediction concentrate the
        # row and its entropy falls monotonically
        c = CMatrix.zeros(4, 0.1)
        log_probs = np.log(np.array([0.4, 0.3, 0.2, 0.1]))
        entropies = []
        for _ in range(100):
            p = row_probs(c, 0)
            entropies.append(float(-(p * np.log(p)).sum()))
            c.logits[0] -= 2.0 * c_logit_grad_forward(c, 0, log_probs)
        assert all(b <= a + 1e-12 for a, b in zip(entropies, entropies[1:]))
        assert entropies[-1] < entropies[0] - 0.3


class TestNetworkLogitGradReverse:
    def test_matches_finite_differences(self):
        rng = Rng(11)
        k = 4
        c = random_cmatrix(rng, k, alpha=0.1)
        y = 2
        logits = rng.uniforms((k,), -1.5, 1.5)

        def scalar(z):
            return sample_reverse_cross_entropy(c, y, softmax_rows(z[None])[0])

        probs = softmax_rows(logits[None])[0]
        analytic = reverse_dlogits(probs[None], lspp_target(c, y)[None])[0]
        step = 1e-6
        for j in range(k):
            z = logits.copy()
            z[j] += step
            plus = scalar(z)
            z[j] -= 2 * step
            minus = scalar(z)
            numeric = (plus - minus) / (2 * step)
            assert abs(numeric - analytic[j]) < 1e-8


class TestGatingDisjointness:
    """The two loss directions drive disjoint parameter sets: each pathway's
    scalar, evaluated the way the training loop evaluates it (with the other
    side's contribution frozen), has exactly zero sensitivity to the gated
    parameters."""

    def test_forward_pathway_ignores_table_logits(self):
        rng = Rng(12)
        k = 4
        c = random_cmatrix(rng, k)
        y = 1
        log_probs = log_softmax_rows(rng.uniforms((1, k), -2.0, 2.0))[0]
        frozen_target = lspp_target(c, y)

        def scalar():
            return cross_entropy(frozen_target, log_probs)

        numeric = fd_over_row(scalar, c, y, step=1e-4)
        assert np.abs(numeric).max() == 0.0

    def test_reverse_pathway_ignores_network_outputs(self):
        rng = Rng(13)
        k = 4
        c = random_cmatrix(rng, k)
        y = 0
        logits = rng.uniforms((k,), -2.0, 2.0)
        frozen_probs = softmax_rows(logits[None])[0]

        def scalar(z):
            # the pathway consumes the frozen prediction snapshot, not z
            return sample_reverse_cross_entropy(c, y, frozen_probs)

        step = 1e-4
        for j in range(k):
            z = logits.copy()
            z[j] += step
            plus = scalar(z)
            z[j] -= 2 * step
            minus = scalar(z)
            assert (plus - minus) == 0.0


class TestOls:
    def test_single_sample_mean(self):
        state = OlsState.zeros(3)
        probs = np.array([0.2, 0.5, 0.3])
        ols_accumulate(state, probs, 1)
        assert np.array_equal(state.class_means()[1], probs)

    def test_two_sample_average(self):
        state = OlsState.zeros(3)
        a = np.array([0.2, 0.5, 0.3])
        b = np.array([0.6, 0.2, 0.2])
        ols_accumulate(state, a, 0)
        ols_accumulate(state, b, 0)
        assert np.abs(state.class_means()[0] - (a + b) / 2).max() < 1e-12

    def test_hundred_samples_against_brute_force(self):
        rng = Rng(14)
        state = OlsState.zeros(4)
        per_class = {c: [] for c in range(4)}
        for _ in range(100):
            y = rng.next_below(4)
            p = random_probs(rng, 4)
            per_class[y].append(p)
            ols_accumulate(state, p, y)
        means = state.class_means()
        for c in range(4):
            expected = np.mean(per_class[c], axis=0)
            assert np.abs(means[c] - expected).max() < 1e-10

    def test_batch_update_matches_sequential_updates(self):
        rng = np.random.default_rng(15)
        k = 4
        probs = softmax_rows(rng.uniform(-4.0, 4.0, size=(64, k)))
        labels = rng.integers(0, k - 1, size=64)  # class 3 never seen, 0-2 repeated
        batched = ols_accumulate(OlsState.zeros(k), probs, labels)
        one_by_one = OlsState.zeros(k)
        in_place = OlsState.zeros(k)
        for p, y in zip(probs, labels.tolist()):
            ols_accumulate(one_by_one, p, y)
            in_place.sums[y] += p
            in_place.counts[y] += 1
        for state in (one_by_one, in_place):
            assert batched.sums.tobytes() == state.sums.tobytes()
            assert np.array_equal(batched.counts, state.counts)
        assert batched.counts[3] == 0

    def test_unseen_class_mean_is_zero_row(self):
        state = OlsState.zeros(3)
        ols_accumulate(state, np.array([0.9, 0.05, 0.05]), 0)
        assert np.array_equal(state.class_means()[2], np.zeros(3))


class TestOlsTarget:
    def test_onehot_means_collapse_for_every_mix(self):
        for mix in (0.0, 0.25, 0.3, 0.5, 0.77, 0.9, 1.0):
            table, fallbacks = ols_table(np.eye(4), mix)
            assert fallbacks == 0
            assert np.array_equal(table, np.eye(4))

    def test_mix_zero_is_onehot(self):
        table, _ = ols_table(np.full((4, 4), 0.25), 0.0)
        assert np.array_equal(table, np.eye(4))

    def test_uniform_mean_half_mix(self):
        table, _ = ols_table(np.full((4, 4), 0.25), 0.5)
        assert np.abs(table[1] - [0.125, 0.625, 0.125, 0.125]).max() < 1e-15

    def test_empty_class_falls_back_flagged(self):
        means = np.zeros((3, 3))
        means[0] = [0.8, 0.1, 0.1]
        table, fallbacks = ols_table(means, 0.5)
        assert fallbacks == 2
        assert np.array_equal(table[1:], np.eye(3)[1:])

    def test_mix_out_of_range(self):
        with pytest.raises(ValueError):
            ols_table(np.eye(3), 1.5)


class TestTeacherTargets:
    def test_proxy_equals_learnable_target(self):
        c = random_cmatrix(Rng(16), 5)
        for y in range(5):
            assert np.array_equal(target_table(c)[y], lspp_target(c, y))

    def test_proxy_is_per_class(self):
        c = random_cmatrix(Rng(17), 4)
        assert np.array_equal(target_table(c)[2], target_table(c)[2])

    def test_zero_logit_teacher_reduces_to_uniform_nontarget_smoothing(self):
        c = CMatrix.zeros(5, 0.1)
        t = target_table(c)[3]
        expected = np.full(5, 0.1 / 4)
        expected[3] = 0.9
        assert np.abs(t - expected).max() < 1e-12


class TestAsymmetry:
    def test_no_symmetry_is_imposed(self):
        # a learnable table trained on asymmetric geometry develops
        # asymmetric rows; here simply verify the representation allows it
        logits = np.zeros((3, 2))
        logits[0] = [2.0, 0.0]
        c = CMatrix(logits, 0.1)
        expanded = c.expanded_probs()
        assert abs(expanded[0, 1] - expanded[1, 0]) > 0.1


class TestExport:
    def test_round_trip(self, tmp_path):
        c = random_cmatrix(Rng(18), 5, alpha=0.2)
        path = tmp_path / "cmatrix.csv"
        export_cmatrix(c, path, metadata={"note": "unit"})
        loaded = load_cmatrix(path)
        assert loaded.alpha == 0.2
        assert np.abs(loaded.expanded_probs() - c.expanded_probs()).max() < 1e-12

    def test_diagonal_written_as_exact_zero(self, tmp_path):
        c = random_cmatrix(Rng(19), 4)
        path = tmp_path / "cmatrix.csv"
        export_cmatrix(c, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "0,1,2,3"
        for i, line in enumerate(lines[1:]):
            assert line.split(",")[i] == "0.0"

    def test_sidecar_written(self, tmp_path):
        c = random_cmatrix(Rng(20), 3)
        export_cmatrix(c, tmp_path / "cm.csv")
        assert (tmp_path / "cm.json").exists()

    def _exported_lines(self, tmp_path):
        path = tmp_path / "cm.csv"
        export_cmatrix(random_cmatrix(Rng(21), 3), path)
        return path, path.read_text().splitlines()

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_rejected(self, tmp_path, cell):
        path, lines = self._exported_lines(tmp_path)
        cells = lines[2].split(",")
        cells[2] = cell
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"cm\.csv:3: non-finite cell"):
            load_cmatrix(path)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_data_csv_grammar_loads_same_logits(self, tmp_path, newline):
        # the loader reads the data CSV's grammar: quoted, padded cells and
        # blank lines load to the bits of the file as exported
        path, lines = self._exported_lines(tmp_path)
        exact = load_cmatrix(path).logits
        rows = [",".join(f'"  {cell}\t"' for cell in line.split(",")) for line in lines]
        path.write_bytes(newline.join([rows[0], "", *rows[1:], "", ""]).encode())
        assert load_cmatrix(path).logits.tobytes() == exact.tobytes()

    def test_underscore_cell_rejected(self, tmp_path):
        path, lines = self._exported_lines(tmp_path)
        lines[2] = "1_0," + lines[2].partition(",")[2]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"cm\.csv:3: non-numeric"):
            load_cmatrix(path)

    def test_row_width_rejected(self, tmp_path):
        path, lines = self._exported_lines(tmp_path)
        lines[3] += ",0.5"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"cm\.csv:4: expected 3 cells, got 4"):
            load_cmatrix(path)

    def test_sidecar_class_count_mismatch_rejected(self, tmp_path):
        path, _ = self._exported_lines(tmp_path)
        sidecar = tmp_path / "cm.json"
        doc = json.loads(sidecar.read_text())
        doc["num_classes"] = 2
        sidecar.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="sidecar says 2 classes"):
            load_cmatrix(path)

    @pytest.mark.parametrize("key,value,error", [
        ("num_classes", 4.5, r"cm\.json: num_classes: 4\.5 is not an integer"),
        ("num_classes", True, r"cm\.json: num_classes: True is not an integer"),
        ("alpha", True,
         r"cm\.json: a value has the wrong type: alpha True and num_classes 3 must be numbers"),
        ("alpha", "0.1",
         r"cm\.json: a value has the wrong type: alpha '0\.1' and num_classes 3 must be numbers"),
    ], ids=["fractional-class-count", "boolean-class-count", "boolean-alpha", "string-alpha"])
    def test_sidecar_value_of_the_wrong_kind_rejected(self, tmp_path, key, value, error):
        # int() would load 4.5 classes as 4, and float() a true alpha as 1.0
        path, _ = self._exported_lines(tmp_path)
        sidecar = tmp_path / "cm.json"
        doc = json.loads(sidecar.read_text())
        doc[key] = value
        sidecar.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=error):
            load_cmatrix(path)

    def test_sidecar_missing_key_rejected(self, tmp_path):
        path, _ = self._exported_lines(tmp_path)
        sidecar = tmp_path / "cm.json"
        doc = json.loads(sidecar.read_text())
        del doc["alpha"]
        sidecar.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"missing keys \['alpha'\]"):
            load_cmatrix(path)


class TestBufferedTableStep:
    """A training run's table step, with its buffers written in place every
    step, against the fresh forms of `targets_from_row_probs` and
    `table_logit_grad`, and those against the per-op form (a boolean mask
    over the batch, NumPy's own row sums), bit for bit."""

    @staticmethod
    def per_op_grad(row_probs, alpha, labels, probs, log_probs, forward, reverse):
        k = row_probs.shape[0]
        off = labels[:, None] != np.arange(k)
        p = row_probs[labels]
        grad = np.zeros_like(row_probs)
        if reverse:
            off_target = probs[off].reshape(p.shape)
            mass = off_target.sum(axis=1, keepdims=True)
            np.add.at(grad, labels, -(off_target - p * mass))
        if forward:
            off_logp = log_probs[off].reshape(p.shape)
            inner = (p * off_logp).sum(axis=1, keepdims=True)
            np.add.at(grad, labels, -alpha * p * (off_logp - inner))
        return grad

    @pytest.mark.parametrize("k", [4, 10])
    @pytest.mark.parametrize("forward,reverse", [(True, False), (True, True), (False, True)],
                             ids=["ce", "sce_original", "sce_ours"])
    def test_matches_fresh_and_per_op_forms(self, k, forward, reverse):
        rng = np.random.default_rng(k)
        alpha, lr = 0.2, 0.5
        logits = rng.uniform(-3.0, 3.0, size=(k, k - 1))
        fresh_logits = logits.copy()
        row_probs = np.empty_like(logits)
        table = targets_from_row_probs(row_probs, alpha)
        grad = np.full_like(logits, np.nan)
        for b in (32, 32, 5):  # every batch of 32 repeats labels
            labels = rng.integers(0, k, size=b)
            probs, log_probs = softmax_pair(rng.uniform(-5.0, 5.0, size=(b, k)))

            np.copyto(row_probs, logits)
            softmax_probs_inplace(row_probs)
            assert targets_from_row_probs(row_probs, alpha, out=table) is table
            table_logit_grad(row_probs, alpha, labels, probs, log_probs,
                             forward=forward, reverse=reverse, out=grad)

            fresh_probs = softmax_probs_inplace(fresh_logits.copy())
            fresh_table = targets_from_row_probs(fresh_probs, alpha)
            fresh_grad = table_logit_grad(fresh_probs, alpha, labels, probs, log_probs,
                                          forward=forward, reverse=reverse)
            per_op = self.per_op_grad(fresh_probs, alpha, labels, probs, log_probs,
                                      forward, reverse)
            assert table.tobytes() == fresh_table.tobytes()
            assert grad.tobytes() == fresh_grad.tobytes() == per_op.tobytes()

            logits -= lr * (grad / b)  # as the run steps its table
            fresh_logits -= lr * (fresh_grad / b)
            assert logits.tobytes() == fresh_logits.tobytes()
