import json
import math

import numpy as np
import pytest

from labelforge.labelreg import cross_entropy, network_dlogits
from labelforge.model import (
    Mlp,
    OptState,
    init_model,
    load_checkpoint,
    save_checkpoint,
    sgd_step,
)
from labelforge.numerics import Rng, log_softmax_rows, softmax_rows

from oracles import finite_diff_check


def packed(weights, biases):
    """One buffer laid out like `Mlp.params`: W0, b0, W1, b1, ..."""
    return np.concatenate([a.reshape(-1) for pair in zip(weights, biases) for a in pair])


def zero_model(sizes):
    weights = [np.zeros((a, b)) for a, b in zip(sizes, sizes[1:])]
    biases = [np.zeros(b) for b in sizes[1:]]
    return Mlp(sizes, packed(weights, biases))


class TestInit:
    def test_biases_zero(self):
        model = init_model([4, 8, 3], seed=0)
        for b in model.biases:
            assert np.array_equal(b, np.zeros_like(b))

    def test_same_seed_identical(self):
        a = init_model([4, 8, 3], seed=5)
        b = init_model([4, 8, 3], seed=5)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_weight_mean_within_three_sigma(self):
        model = init_model([128, 128], seed=11)
        w = model.weights[0]
        limit = math.sqrt(6.0 / 256.0)
        sigma_mean = (2.0 * limit) / math.sqrt(12.0 * w.size)
        assert abs(w.mean()) < 3.0 * sigma_mean
        assert np.abs(w).max() <= limit

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            init_model([], seed=0)
        with pytest.raises(ValueError):
            init_model([4], seed=0)
        with pytest.raises(ValueError):
            init_model([4, 0, 2], seed=0)


class TestForward:
    def test_zero_model_is_uniform(self):
        model = zero_model([3, 5, 4])
        cache = model.forward(np.random.default_rng(0).normal(size=(6, 3)))
        assert np.abs(cache.probs - 0.25).max() < 1e-15

    def test_single_linear_layer_matches_gemm_softmax(self):
        model = init_model([4, 3], seed=2)
        x = np.random.default_rng(1).normal(size=(5, 4))
        cache = model.forward(x)
        expected = softmax_rows(x @ model.weights[0] + model.biases[0])
        assert np.abs(cache.probs - expected).max() < 1e-15

    def test_probs_and_log_probs_match_checked_ops(self):
        for sizes, seed in (([6, 10, 7, 4], 3), ([5, 16, 10], 4), ([3, 8, 2], 5),
                            ([4, 12, 20], 6)):
            model = init_model(sizes, seed=seed)
            x = 40.0 * np.random.default_rng(seed).normal(size=(37, sizes[0]))
            cache = model.forward(x)
            assert cache.probs.tobytes() == softmax_rows(cache.logits).tobytes()
            assert cache.log_probs.tobytes() == log_softmax_rows(cache.logits).tobytes()

    def test_non_finite_logits_rejected(self):
        model = init_model([3, 4, 2], seed=1)
        model.biases[-1][1] = float("inf")
        with pytest.raises(ValueError, match="softmax input contains NaN or Inf"):
            model.forward(np.zeros((2, 3)))

    def test_probability_rows_sum_to_one(self):
        model = init_model([6, 10, 7, 4], seed=3)
        cache = model.forward(np.random.default_rng(2).normal(size=(9, 6)))
        assert np.abs(cache.probs.sum(axis=1) - 1.0).max() < 1e-9

    def test_deterministic(self):
        model = init_model([3, 8, 2], seed=4)
        x = np.random.default_rng(3).normal(size=(4, 3))
        assert np.array_equal(model.forward(x).probs, model.forward(x).probs)

    def test_dimension_mismatch(self):
        model = init_model([3, 2], seed=0)
        with pytest.raises(ValueError, match="input dimension"):
            model.forward(np.zeros((4, 5)))

    def test_zero_model_loss_is_log_k(self):
        model = zero_model([2, 6, 5])
        x = np.random.default_rng(4).normal(size=(7, 2))
        log_probs = log_softmax_rows(model.forward(x).logits)
        assert np.abs(-log_probs - math.log(5.0)).max() < 1e-12


class TestPredict:
    @pytest.mark.parametrize("sizes", [(2, 32, 4), (784, 128, 10), (5, 16, 12, 8, 3)])
    @pytest.mark.parametrize("rows", [1, 37])
    def test_bit_identical_to_forward_probs(self, sizes, rows):
        model = init_model(sizes, seed=len(sizes) + rows)
        x = 5.0 * np.random.default_rng(rows).normal(size=(rows, sizes[0]))
        probs = model.predict(x)
        assert probs.shape == (rows, sizes[-1])
        assert probs.tobytes() == model.forward(x).probs.tobytes()

    def test_nan_weight_rejected(self):
        model = init_model([3, 4, 2], seed=1)
        model.weights[0][1, 2] = np.nan
        with pytest.raises(ValueError, match="softmax input contains NaN or Inf"):
            model.predict(np.ones((2, 3)))

    def test_counts_as_a_forward_pass(self):
        model = init_model([3, 4, 2], seed=1)
        model.predict(np.zeros((2, 3)))
        model.forward(np.zeros((2, 3)))
        assert model.forward_count == 2

    def test_leaves_input_and_parameters_alone(self):
        model = init_model([3, 4], seed=2)
        x = np.random.default_rng(8).normal(size=(5, 3))
        x_before, params_before = x.copy(), model.params.copy()
        model.predict(x)
        assert np.array_equal(x, x_before)
        assert np.array_equal(model.params, params_before)

    def test_dimension_mismatch(self):
        model = init_model([3, 2], seed=0)
        with pytest.raises(ValueError, match="input dimension"):
            model.predict(np.zeros((4, 5)))


class TestFlatParameters:
    def test_layers_are_views_of_one_buffer_in_order(self):
        model = init_model([3, 5, 4, 2], seed=3)
        for w, b in zip(model.weights, model.biases):
            assert np.shares_memory(w, model.params)
            assert np.shares_memory(b, model.params)
        pieces = [a.reshape(-1) for pair in zip(model.weights, model.biases) for a in pair]
        assert model.params.tobytes() == np.concatenate(pieces).tobytes()
        model.params[0] = 7.0
        assert model.weights[0][0, 0] == 7.0

    def test_layers_cannot_be_rebound(self):
        model = init_model([3, 4, 2], seed=3)
        with pytest.raises(TypeError):
            model.weights[0] = np.zeros((3, 4))
        with pytest.raises(TypeError):
            model.biases[1] = np.zeros(2)

    def test_constructor_adopts_the_buffer(self):
        params = np.arange(21.0)
        model = Mlp([3, 4, 1], params)
        assert model.params is params
        assert model.weights[1].tolist() == [[16.0], [17.0], [18.0], [19.0]]
        with pytest.raises(ValueError, match="need 21 float64 parameters"):
            Mlp([3, 4, 1], np.zeros(16))
        with pytest.raises(ValueError, match="float64"):
            Mlp([3, 4, 1], np.zeros(21, dtype=np.float32))
        with pytest.raises(ValueError, match=r"got float64 \(3, 7\)"):
            Mlp([3, 4, 1], np.zeros((3, 7)))

    def test_gradients_fill_one_buffer(self):
        model = init_model([3, 6, 4], seed=6)
        cache = model.forward(np.random.default_rng(5).normal(size=(5, 3)))
        grads = model.backward(cache, np.ones_like(cache.logits))
        assert grads.dtype == np.float64 and grads.shape == model.params.shape
        # laid out like the parameters: the top bias gradient is the batch
        # sum of dlogits, the top weight gradient hidden^T @ dlogits
        views = Mlp(model.layer_sizes, grads)
        assert views.biases[1].tolist() == [5.0] * 4
        top = cache.hidden_activations[0].T @ np.ones_like(cache.logits)
        assert np.abs(views.weights[1] - top).max() < 1e-12


class TestBackward:
    def test_zero_dlogits_zero_grads(self):
        model = init_model([3, 6, 4], seed=6)
        cache = model.forward(np.random.default_rng(5).normal(size=(5, 3)))
        grads = model.backward(cache, np.zeros_like(cache.logits))
        assert np.array_equal(grads, np.zeros_like(model.params))

    def test_linearity_in_dlogits(self):
        model = init_model([3, 6, 4], seed=7)
        cache = model.forward(np.random.default_rng(6).normal(size=(5, 3)))
        d = np.random.default_rng(7).normal(size=cache.logits.shape)
        one = model.backward(cache, d)
        two = model.backward(cache, 2.0 * d)
        assert np.abs(2.0 * one - two).max() < 1e-12

    def test_matches_finite_differences_of_weighted_logit_sum(self):
        model = init_model([3, 8, 4], seed=8)
        batch = Rng(21).uniforms((6, 3), -1.0, 1.0)
        dlogits = Rng(22).uniforms((6, 4), -1.0, 1.0)

        def loss_fn(m, x):
            cache = m.forward(x)
            return float((dlogits * cache.logits).sum()), m.backward(cache, dlogits)

        assert finite_diff_check(model, batch, loss_fn, step=1e-5) < 1e-6

    def test_into_a_reused_buffer_matches_a_fresh_one(self):
        model = init_model([3, 8, 5, 4], seed=9)
        out = Mlp(model.layer_sizes, np.full_like(model.params, np.nan))
        rng = np.random.default_rng(8)
        for rows in (7, 1, 7):  # the buffer's old contents must not leak in
            cache = model.forward(rng.normal(size=(rows, 3)))
            d = rng.normal(size=cache.logits.shape)
            fresh = model.backward(cache, d)
            assert model.backward(cache, d, out) is out.params
            assert out.params.tobytes() == fresh.tobytes()

    def test_shape_mismatch(self):
        model = init_model([3, 4], seed=0)
        cache = model.forward(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            model.backward(cache, np.zeros((2, 5)))


class TestSgdStep:
    def make(self):
        model = init_model([2, 3], seed=9)
        grads = packed([np.full_like(model.weights[0], 0.5)],
                       [np.full_like(model.biases[0], -0.25)])
        return model, grads

    def test_zero_lr_is_identity(self):
        model, grads = self.make()
        before = [w.copy() for w in model.weights]
        sgd_step(model, grads, OptState.for_model(model, lr=0.0, momentum=0.9))
        for w, b in zip(model.weights, before):
            assert np.array_equal(w, b)

    def test_plain_sgd(self):
        model, grads = self.make()
        before = model.weights[0].copy()
        sgd_step(model, grads, OptState.for_model(model, lr=0.1))
        assert np.abs(model.weights[0] - (before - 0.1 * 0.5)).max() == 0.0

    def test_two_momentum_steps_match_hand_unrolled(self):
        model, grads = self.make()
        theta0 = model.weights[0].copy()
        g = Mlp(model.layer_sizes, grads).weights[0].copy()
        opt = OptState.for_model(model, lr=0.1, momentum=0.9)
        sgd_step(model, grads, opt)
        sgd_step(model, grads, opt)
        # v1 = g ; theta1 = theta0 - lr*v1 ; v2 = mu*v1 + g ; theta2 = theta1 - lr*v2
        v1 = g
        t1 = theta0 - 0.1 * v1
        v2 = 0.9 * v1 + g
        t2 = t1 - 0.1 * v2
        assert np.abs(model.weights[0] - t2).max() < 1e-12

    def test_fifty_steps_match_per_layer_reference(self):
        # the per-layer update the flat buffer replaced, kept as the oracle
        model = init_model([3, 7, 5, 4], seed=15)
        ref_w = [w.copy() for w in model.weights]
        ref_b = [b.copy() for b in model.biases]
        vel_w = [np.zeros_like(w) for w in ref_w]
        vel_b = [np.zeros_like(b) for b in ref_b]
        lr, mu, wd = 0.05, 0.9, 0.01
        opt = OptState.for_model(model, lr=lr, momentum=mu, weight_decay=wd)
        rng = np.random.default_rng(16)
        for _ in range(50):
            gw = [rng.normal(size=w.shape) for w in ref_w]
            gb = [rng.normal(size=b.shape) for b in ref_b]
            sgd_step(model, packed(gw, gb), opt)
            for theta, vel, grad in zip(ref_w + ref_b, vel_w + vel_b, gw + gb):
                vel *= mu
                vel += grad + wd * theta
                theta -= lr * vel
        for got, want in zip(model.weights + model.biases, ref_w + ref_b):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("mu", [0.9, 0.0])
    def test_zero_decay_steps_match_reference_with_decay_term(self, mu):
        # the zero-decay step leaves out "+ 0.0 * theta"; that term can only
        # turn a -0.0 gradient entry into +0.0, which reaches no parameter
        model = init_model([3, 7, 5, 4], seed=19)
        rng = np.random.default_rng(20)
        for b in model.biases:
            b[...] = rng.normal(size=b.shape)
        assert (model.params > 0).any() and (model.params < 0).any()
        ref_w = [w.copy() for w in model.weights]
        ref_b = [b.copy() for b in model.biases]
        vel_w = [np.zeros_like(w) for w in ref_w]
        vel_b = [np.zeros_like(b) for b in ref_b]
        lr = 0.05
        opt = OptState.for_model(model, lr=lr, momentum=mu)
        for _ in range(50):
            gw = [rng.normal(size=w.shape) for w in ref_w]
            gb = [rng.normal(size=b.shape) for b in ref_b]
            for g in gw + gb:
                flat = g.reshape(-1)
                flat[rng.random(flat.size) < 0.3] = -0.0
                flat[rng.random(flat.size) < 0.1] = 0.0
            sgd_step(model, packed(gw, gb), opt)
            for theta, vel, grad in zip(ref_w + ref_b, vel_w + vel_b, gw + gb):
                vel *= mu
                vel += grad + 0.0 * theta
                theta -= lr * vel
        for got, want in zip(model.weights + model.biases, ref_w + ref_b):
            assert got.tobytes() == want.tobytes()
        # the velocities agree in value; they may differ in the sign of a zero
        assert np.array_equal(opt.velocity, packed(vel_w, vel_b))

    def test_zero_decay_step_with_dead_relu_gradients(self):
        # a hidden unit that no input activates, with positive outgoing
        # weights and all-negative dlogits, back-propagates -0.0 to every
        # sample; its bias gradient is their batch sum, which keeps that sign
        # or not depending on how NumPy starts the reduction (NumPy 2.4
        # starts from +0.0), so only its being zero is asserted
        model = init_model([3, 6, 4], seed=21)
        model.biases[0][2] = -100.0
        model.weights[1][2] = np.abs(model.weights[1][2])
        x = np.random.default_rng(22).normal(size=(9, 3))
        ref = [a.copy() for a in model.weights + model.biases]
        vel = [np.zeros_like(a) for a in ref]
        opt = OptState.for_model(model, lr=0.1, momentum=0.9)
        for _ in range(50):
            # the reference steps with the model's gradients
            cache = model.forward(x)
            grads = model.backward(cache, -cache.probs)
            views = Mlp(model.layer_sizes, grads)
            assert views.biases[0][2] == 0.0
            sgd_step(model, grads, opt)
            for theta, v, grad in zip(ref, vel, views.weights + views.biases):
                v *= 0.9
                v += grad + 0.0 * theta
                theta -= 0.1 * v
        for got, want in zip(model.weights + model.biases, ref):
            assert got.tobytes() == want.tobytes()

    def test_shape_mismatch_names_both_shapes(self):
        model = init_model([2, 3, 4], seed=9)  # 6 + 3 + 12 + 4 parameters
        before = model.params.copy()
        opt = OptState.for_model(model, lr=0.1)
        with pytest.raises(ValueError, match=r"gradient \(24,\) and velocity \(25,\) "
                                             r"must each match the \(25,\) parameters"):
            sgd_step(model, np.ones(24), opt)
        opt.velocity = np.zeros(24)
        with pytest.raises(ValueError, match=r"gradient \(25,\) and velocity \(24,\)"):
            sgd_step(model, np.ones(25), opt)
        assert np.array_equal(model.params, before)

    def test_weight_decay_enters_velocity(self):
        model, grads = self.make()
        theta0 = model.weights[0].copy()
        sgd_step(model, grads, OptState.for_model(model, lr=0.1, weight_decay=0.01))
        expected = theta0 - 0.1 * (0.5 + 0.01 * theta0)
        assert np.abs(model.weights[0] - expected).max() < 1e-15


class TestFiniteDiffCheck:
    def test_quadratic_loss_is_nearly_exact(self):
        model = init_model([3, 2], seed=10)
        batch = Rng(31).uniforms((4, 3), -1.0, 1.0)
        target = Rng(32).uniforms((4, 2), -1.0, 1.0)

        def loss_fn(m, x):
            cache = m.forward(x)
            diff = cache.logits - target
            return float(0.5 * (diff * diff).sum()), m.backward(cache, diff)

        assert finite_diff_check(model, batch, loss_fn, step=1e-4) < 1e-8

    def test_cross_entropy_on_two_layer_net(self):
        model = init_model([3, 8, 4], seed=12)
        batch = Rng(33).uniforms((6, 3), -1.0, 1.0)
        targets = softmax_rows(Rng(34).uniforms((6, 4), -1.0, 1.0))

        def loss_fn(m, x):
            cache = m.forward(x)
            dlogits = network_dlogits(cache.probs, targets, 6, reverse=False)
            return cross_entropy(targets, cache.log_probs) / 6, m.backward(cache, dlogits)

        assert finite_diff_check(model, batch, loss_fn, 1e-5) < 1e-6

    def test_error_shrinks_quadratically_with_step(self):
        # quartic scalar directly on the parameters: rich third derivative,
        # so the central-difference error is dominated by the h^2 term
        model = init_model([2, 3], seed=13)
        batch = np.zeros((1, 2))

        def loss_fn(m, _):
            return float((m.params ** 4).sum()), 4.0 * m.params ** 3

        coarse = finite_diff_check(model, batch, loss_fn, step=1e-3)
        fine = finite_diff_check(model, batch, loss_fn, step=1e-5)
        assert fine < 1e-8
        assert coarse > 100.0 * fine


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        model = init_model([4, 7, 3], seed=14)
        path = tmp_path / "ck.json"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.layer_sizes == model.layer_sizes
        assert loaded.seed == model.seed
        for a, b in zip(loaded.weights, model.weights):
            assert np.array_equal(a, b)
        for a, b in zip(loaded.biases, model.biases):
            assert np.array_equal(a, b)
        x = Rng(35).uniforms((5, 4), -1.0, 1.0)
        assert np.array_equal(loaded.forward(x).probs, model.forward(x).probs)

    def _saved_doc(self, tmp_path):
        path = tmp_path / "ck.json"
        save_checkpoint(init_model([3, 4, 2], seed=1), path)
        return path, json.loads(path.read_text())

    @pytest.mark.parametrize("part,layer,value", [
        ("weights", 0, float("nan")),
        ("weights", 1, float("-inf")),
        ("biases", 1, float("inf")),
    ])
    def test_non_finite_parameter_rejected(self, tmp_path, part, layer, value):
        path, doc = self._saved_doc(tmp_path)
        doc[part][layer][1] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"layer {layer} has a NaN or Inf"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["layer_sizes", "weights", "biases"])
    def test_missing_key_rejected(self, tmp_path, key):
        path, doc = self._saved_doc(tmp_path)
        del doc[key]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"missing keys \\['{key}'\\]"):
            load_checkpoint(path)

    def test_layer_length_mismatch_rejected(self, tmp_path):
        path, doc = self._saved_doc(tmp_path)
        doc["biases"][0].append(0.0)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="layer 0 needs 12 weights and 4 biases, got 12 and 5"):
            load_checkpoint(path)

    def test_loaded_model_owns_one_buffer(self, tmp_path):
        path, doc = self._saved_doc(tmp_path)
        model = load_checkpoint(path)
        flat = [v for w, b in zip(doc["weights"], doc["biases"]) for v in w + b]
        assert model.params.tolist() == flat
        assert all(np.shares_memory(w, model.params) for w in model.weights)

    def test_layer_count_mismatch_rejected(self, tmp_path):
        path, doc = self._saved_doc(tmp_path)
        doc["weights"].pop()
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="need 2 weight and bias lists, got 1 and 2"):
            load_checkpoint(path)
