import json
import time
from dataclasses import asdict, replace

import numpy as np
import pytest

from labelforge.dataio import Dataset, GaussianSpec, generate_gaussian
from labelforge.labelreg import CMatrix
from labelforge import train as lf_train
from labelforge.model import Mlp, init_model
from labelforge.numerics import SEED_LIMIT, Rng, derive_seed
from labelforge.train import (
    EpochStats,
    TrainConfig,
    TrainOutput,
    TrainReport,
    distill,
    evaluate,
    gradient_check,
    train,
    train_ablation,
    write_metrics_csv,
    write_run_artifacts,
)
from labelforge.analysis import c_row_entropy

from oracles import lspp_target, ols_run, row_probs, sample_reverse_cross_entropy

PAIRED_MEANS = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 10.0], [11.0, 10.0]])


@pytest.fixture(scope="module")
def small_task():
    train_set = generate_gaussian(GaussianSpec(PAIRED_MEANS, 0.5, 40, seed=301))
    test_set = generate_gaussian(GaussianSpec(PAIRED_MEANS, 0.5, 20, seed=302))
    return train_set, test_set


def equality_cases(small_task):
    """(train set, test set, K, alpha, batch size) for the bit-for-bit
    strategy equalities: the small task at batch 32, then seeded tasks with
    K from 2 to 12 whose last batch is short."""
    cases = [(*small_task, 4, 0.1, 32)]
    for k, alpha, batch_size, seed in ((2, 0.3, 5, 41), (5, 0.15, 8, 42), (12, 0.05, 32, 43)):
        means = np.column_stack([np.arange(k), np.arange(k) % 3]).astype(np.float64)
        train_set = generate_gaussian(GaussianSpec(means, 0.4, 7, seed=seed))
        test_set = generate_gaussian(GaussianSpec(means, 0.4, 3, seed=seed + 100))
        assert len(train_set) % batch_size != 0
        cases.append((train_set, test_set, k, alpha, batch_size))
    return cases


def zero_model(sizes):
    weights = [np.zeros((a, b)) for a, b in zip(sizes, sizes[1:])]
    biases = [np.zeros(b) for b in sizes[1:]]
    return Mlp(sizes, np.concatenate([a.reshape(-1) for pair in zip(weights, biases)
                                      for a in pair]))


def metrics_bytes(tmp_path, result, name):
    path = tmp_path / name
    write_metrics_csv(result.report, path)
    return path.read_bytes()


class TestTrainConfig:
    def test_alpha_range(self):
        with pytest.raises(ValueError, match="alpha"):
            TrainConfig(alpha=1.5)
        with pytest.raises(ValueError, match="alpha"):
            TrainConfig(alpha=-0.1)

    @pytest.mark.parametrize("strategy", ["lspp", "ablation", "proxy_distill"])
    def test_learned_table_needs_alpha_below_half(self, strategy):
        assert TrainConfig(strategy=strategy, alpha=0.49).alpha == 0.49
        for alpha in (0.5, 0.7):
            with pytest.raises(ValueError, match="argmax-pinning invariant"):
                TrainConfig(strategy=strategy, alpha=alpha)

    def test_alpha_from_half_up_rejected_when_forced_to_ablation(self, small_task):
        train_set, test_set = small_task
        with pytest.raises(ValueError, match="argmax-pinning invariant"):
            train_ablation(TrainConfig(alpha=0.7, epochs=1), train_set, test_set)

    @pytest.mark.parametrize("strategy", ["onehot", "ls", "ols"])
    def test_alpha_from_half_up_allowed_without_learned_table(self, strategy):
        assert TrainConfig(strategy=strategy, alpha=0.7).alpha == 0.7

    @pytest.mark.parametrize("k,alpha,ok", [(2, 0.7, False), (4, 0.7, True), (4, 0.75, False)])
    def test_ls_alpha_must_stay_below_k_minus_one_over_k(self, k, alpha, ok):
        # ls puts 1 - alpha on the true class and alpha / (K-1) on each other
        config = TrainConfig(strategy="ls", alpha=alpha)
        if ok:
            assert config.resolved(3, k).alpha == alpha
        else:
            with pytest.raises(ValueError, match="argmax-pinning invariant"):
                config.resolved(3, k)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="strategy"):
            TrainConfig(strategy="mystery")

    @pytest.mark.parametrize("strategy,key,value", [
        ("onehot", "alpha", 0.2),
        ("ols", "alpha", 0.0),
        ("onehot", "ablation_loss", "ce"),
        ("ls", "ablation_loss", "sce_original"),
        ("lspp", "ols_mix", 0.25),
        ("ablation", "ols_correct_only", True),
    ])
    def test_key_the_strategy_does_not_read_rejected(self, strategy, key, value):
        config = TrainConfig(strategy=strategy, **{key: value})  # built without complaint
        with pytest.raises(ValueError, match=f"strategy {strategy!r} does not read {key}"):
            config.resolved(2, 4)

    @pytest.mark.parametrize("strategy,key,value", [
        ("ls", "alpha", 0.2),
        ("lspp", "alpha", 0.2),
        ("ablation", "alpha", 0.2),
        ("proxy_distill", "alpha", 0.3),  # check_teacher holds it to the table's
        ("lspp", "ablation_loss", "ce"),
        ("ablation", "ablation_loss", "sce_original"),
        ("ols", "ols_mix", 0.25),
        ("ols", "ols_correct_only", True),
        ("distill", "c_lr", 0.02),  # config.json records c_lr = lr for every strategy
    ])
    def test_key_the_strategy_reads_accepted(self, strategy, key, value):
        assert getattr(TrainConfig(strategy=strategy, **{key: value}).resolved(2, 4),
                       key) == value

    def test_unknown_ablation_loss(self):
        with pytest.raises(ValueError, match="ablation_loss"):
            TrainConfig(ablation_loss="fancy")

    def test_positive_requirements(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=-1)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(lr=0.0)

    @pytest.mark.parametrize("momentum", (-5.0, -1e-9, 1.0, 1.5, float("nan")))
    def test_momentum_outside_unit_interval_rejected(self, momentum):
        with pytest.raises(ValueError, match="momentum"):
            TrainConfig(momentum=momentum)

    @pytest.mark.parametrize("key", ["lr", "c_lr"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_learning_rate_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be .* finite"):
            TrainConfig(**{key: value})

    @pytest.mark.parametrize("weight_decay", (-1e-4, float("nan"), float("inf")))
    def test_negative_weight_decay_rejected(self, weight_decay):
        with pytest.raises(ValueError, match="weight_decay"):
            TrainConfig(weight_decay=weight_decay)

    def test_momentum_and_weight_decay_edges_accepted(self):
        cfg = TrainConfig(momentum=0.0, weight_decay=0.0)
        assert (cfg.momentum, cfg.weight_decay) == (0.0, 0.0)
        assert TrainConfig(momentum=0.999).momentum == 0.999

    def test_resolved_materializes_defaults(self):
        cfg = TrainConfig().resolved(input_dim=2, num_classes=4)
        assert cfg.layer_sizes == (2, 32, 4)
        assert cfg.c_lr == cfg.lr
        assert cfg.alpha == 0.1

    def test_integers_accept_numpy_ints_and_integral_floats(self):
        cfg = TrainConfig(epochs=2.0, batch_size=np.int64(16), seed=np.int32(3),
                          layer_sizes=np.array([2, 8, 4]))
        assert (cfg.epochs, cfg.batch_size, cfg.seed, cfg.layer_sizes) == (2, 16, 3, (2, 8, 4))
        assert all(type(v) is int for v in (cfg.epochs, cfg.batch_size, cfg.seed,
                                            *cfg.layer_sizes))

    @pytest.mark.parametrize("key,value", [
        ("layer_sizes", (2, 8.7, 4)),
        ("layer_sizes", (2, True, 4)),
        ("epochs", 1.9),
        ("epochs", "3"),
        ("seed", True),
        ("batch_size", float("inf")),
    ])
    def test_non_integers_rejected_naming_the_key(self, key, value):
        with pytest.raises(ValueError, match=f"config key '{key}': cannot parse"):
            TrainConfig(**{key: value})

    @pytest.mark.parametrize("key,value", [
        ("lr", True),
        ("ols_correct_only", "no"),
        ("ols_correct_only", 1),
        ("ols_mix", True),
        ("c_lr", True),
        ("alpha", "0.1"),
        ("momentum", None),
        ("strategy", 5),
        ("layer_sizes", "2,8,4"),
    ])
    def test_values_of_another_type_rejected_naming_the_key(self, key, value):
        # float() would train at lr 1.0 and bool() read "no" as True
        with pytest.raises(ValueError, match=f"config key '{key}': cannot parse"):
            TrainConfig(**{key: value})

    def test_floats_accept_ints_and_numpy_reals_as_floats(self):
        cfg = TrainConfig(lr=1, alpha=np.float32(0.25), momentum=np.int64(0))
        assert (cfg.lr, cfg.alpha, cfg.momentum) == (1.0, 0.25, 0.0)
        assert all(type(v) is float for v in (cfg.lr, cfg.alpha, cfg.momentum))

    def test_resolved_rejects_mismatched_sizes(self):
        with pytest.raises(ValueError, match="layer_sizes"):
            TrainConfig(layer_sizes=(3, 8, 4)).resolved(input_dim=2, num_classes=4)

    @pytest.mark.parametrize("sizes,message", [
        ((2, 0, 4), "must be positive"),
        ((2, -8, 4), "must be positive"),
        ((4,), "need at least input and output sizes"),
        ((), "need at least input and output sizes"),
    ])
    def test_layer_sizes_the_model_rejects_fail_the_config(self, sizes, message):
        # init_model's own rule, checked before anything trains or is written
        with pytest.raises(ValueError, match=f"layer_sizes.*{message}"):
            TrainConfig(layer_sizes=sizes)

    @pytest.mark.parametrize("seed", [-1, SEED_LIMIT, SEED_LIMIT + 5])
    def test_seed_outside_the_64_bit_range_rejected(self, seed):
        # derive_seed reads seeds mod 2**64: 2**64 + 5 would train as seed 5
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
            TrainConfig(seed=seed)


class TestEvaluate:
    def test_uniform_predictor_closed_form(self):
        model = zero_model([2, 4])
        data = Dataset(np.random.default_rng(0).normal(size=(8, 2)), [0, 1, 2, 3] * 2, 4)
        out = evaluate(model, data)
        # argmax ties break to the lowest index, so only class 0 is "hit"
        assert out["accuracy"] == pytest.approx(0.25)
        assert out["mean_nll"] == pytest.approx(np.log(4.0), abs=1e-12)
        assert out["mean_max_prob"] == pytest.approx(0.25, abs=1e-12)

    def test_near_perfect_predictor(self):
        # huge logit gap saturates the softmax to a one-hot output
        model = zero_model([4, 4])
        model.weights[0][...] = np.eye(4) * 100.0
        data = Dataset(np.eye(4), [0, 1, 2, 3], 4)
        out = evaluate(model, data)
        assert out["accuracy"] == 1.0
        assert out["mean_nll"] == 0.0

    def test_accuracy_matches_recount_oracle(self, small_task):
        train_set, _ = small_task
        model = init_model([2, 8, 4], seed=1)
        out = evaluate(model, train_set)
        probs = model.forward(train_set.features).probs
        hits = sum(
            1
            for i in range(len(train_set))
            if int(np.argmax(probs[i])) == int(train_set.labels[i])
        )
        assert out["accuracy"] == hits / len(train_set)

    def test_class_count_mismatch(self, small_task):
        train_set, _ = small_task
        with pytest.raises(ValueError):
            evaluate(init_model([2, 8, 3], seed=0), train_set)


class TestTrainBasics:
    def test_zero_epochs_is_noop(self, small_task):
        train_set, test_set = small_task
        cfg = TrainConfig(epochs=0, seed=3, layer_sizes=(2, 8, 4))
        out = train(cfg, train_set, test_set)
        fresh = init_model([2, 8, 4], seed=3)
        for a, b in zip(out.model.weights, fresh.weights):
            assert np.array_equal(a, b)
        assert out.report.epoch_stats == []

    @pytest.mark.parametrize("strategy", ["onehot", "lspp", "ols"])
    def test_final_report_is_the_last_epochs_evaluation(self, small_task, monkeypatch,
                                                         strategy):
        import labelforge.train as lf_train

        train_set, test_set = small_task
        evaluated = []
        real_evaluate = lf_train.evaluate

        def counting_evaluate(model, dataset):
            result = real_evaluate(model, dataset)
            evaluated.append(result)
            return result

        monkeypatch.setattr(lf_train, "evaluate", counting_evaluate)
        cfg = TrainConfig(strategy=strategy, epochs=3, seed=4, layer_sizes=(2, 8, 4))
        out = train(cfg, train_set, test_set)
        report = out.report
        assert len(evaluated) == 2 * cfg.epochs
        last_train, last_test = evaluated[-2:]
        # the returned model is the one the last epoch evaluated
        assert real_evaluate(out.model, train_set) == last_train
        assert real_evaluate(out.model, test_set) == last_test
        final = {
            "final_train_accuracy": last_train["accuracy"],
            "final_test_accuracy": last_test["accuracy"],
            "final_train_nll": last_train["mean_nll"],
            "final_test_nll": last_test["mean_nll"],
            "final_train_max_prob": last_train["mean_max_prob"],
            "final_test_max_prob": last_test["mean_max_prob"],
        }
        for name, value in final.items():
            assert getattr(report, name) == value, name
        last = report.epoch_stats[-1]
        assert (last.train_accuracy, last.test_accuracy, last.mean_max_prob) == (
            report.final_train_accuracy, report.final_test_accuracy,
            report.final_train_max_prob,
        )

    def test_zero_epochs_reports_the_initial_model(self, small_task):
        train_set, test_set = small_task
        out = train(TrainConfig(epochs=0, seed=3, layer_sizes=(2, 8, 4)), train_set, test_set)
        fresh = init_model([2, 8, 4], seed=3)
        for prefix, dataset in (("final_train", train_set), ("final_test", test_set)):
            want = evaluate(fresh, dataset)
            assert want["mean_nll"] > 0.0
            assert getattr(out.report, f"{prefix}_accuracy") == want["accuracy"]
            assert getattr(out.report, f"{prefix}_nll") == want["mean_nll"]
            assert getattr(out.report, f"{prefix}_max_prob") == want["mean_max_prob"]

    def test_progresses_on_easy_task(self, small_task):
        train_set, test_set = small_task
        out = train(TrainConfig(epochs=40, seed=1, layer_sizes=(2, 16, 4)), train_set, test_set)
        assert out.report.final_test_accuracy > 0.6
        assert out.report.wall_time_sec > 0.0

    def test_ls_alpha_zero_equals_onehot_bitwise(self, small_task, tmp_path):
        for train_set, test_set, k, _, batch_size in equality_cases(small_task):
            # onehot reads no alpha, so only the ls run is given one
            base = dict(epochs=8, seed=7, batch_size=batch_size, layer_sizes=(2, 8, k))
            a = train(TrainConfig(strategy="ls", alpha=0.0, **base), train_set, test_set)
            b = train(TrainConfig(strategy="onehot", **base), train_set, test_set)
            assert metrics_bytes(tmp_path, a, "a.csv") == metrics_bytes(tmp_path, b, "b.csv"), k
            for wa, wb in zip(a.model.weights, b.model.weights):
                assert np.array_equal(wa, wb), k

    def test_lspp_frozen_table_equals_ls_bitwise(self, small_task, tmp_path):
        for train_set, test_set, k, alpha, batch_size in equality_cases(small_task):
            base = dict(alpha=alpha, epochs=8, seed=7, batch_size=batch_size,
                        layer_sizes=(2, 8, k))
            a = train(TrainConfig(strategy="lspp", c_lr=0.0, **base), train_set, test_set)
            b = train(TrainConfig(strategy="ls", **base), train_set, test_set)
            assert metrics_bytes(tmp_path, a, "a.csv") == metrics_bytes(tmp_path, b, "b.csv"), k
            assert np.array_equal(a.cmatrix.logits, np.zeros((k, k - 1))), k

    def test_deterministic_repeat(self, small_task, tmp_path):
        train_set, test_set = small_task
        cfg = TrainConfig(strategy="lspp", epochs=10, seed=9, layer_sizes=(2, 8, 4))
        a = train(cfg, train_set, test_set)
        b = train(cfg, train_set, test_set)
        assert metrics_bytes(tmp_path, a, "a.csv") == metrics_bytes(tmp_path, b, "b.csv")
        assert np.array_equal(a.cmatrix.logits, b.cmatrix.logits)

    def test_lspp_diagonal_stays_zero_and_target_mass_fixed(self, small_task):
        train_set, test_set = small_task
        out = train(TrainConfig(strategy="lspp", epochs=15, seed=2,
                                layer_sizes=(2, 8, 4)), train_set, test_set)
        expanded = out.cmatrix.expanded_probs()
        assert np.array_equal(np.diag(expanded), np.zeros(4))
        from labelforge.labelreg import target_table

        table = target_table(out.cmatrix)
        assert np.array_equal(np.diag(table), np.full(4, 1.0 - 0.1))

    def test_teacher_required_for_distill_modes(self, small_task):
        train_set, test_set = small_task
        with pytest.raises(ValueError, match="teacher"):
            train(TrainConfig(strategy="distill"), train_set, test_set)
        with pytest.raises(ValueError, match="teacher"):
            train(TrainConfig(strategy="proxy_distill"), train_set, test_set)

    @pytest.mark.parametrize("strategy,teacher,error", [
        ("distill", None, "strategy 'distill' requires a teacher Mlp, got none"),
        ("proxy_distill", init_model([2, 8, 4], seed=0),
         "strategy 'proxy_distill' requires a teacher CMatrix, got a Mlp"),
        ("distill", CMatrix.zeros(4, 0.1),
         "strategy 'distill' requires a teacher Mlp, got a CMatrix"),
        ("lspp", init_model([2, 8, 4], seed=0), "strategy 'lspp' takes no teacher, got a Mlp"),
        ("lspp", CMatrix.zeros(4, 0.1), "strategy 'lspp' takes no teacher, got a CMatrix"),
        ("onehot", CMatrix.zeros(4, 0.1),
         "strategy 'onehot' takes no teacher, got a CMatrix"),
    ])
    def test_teacher_that_does_not_match_the_strategy_rejected(self, small_task, strategy,
                                                               teacher, error):
        # train runs config.strategy and nothing else; a teacher never picks it
        train_set, test_set = small_task
        config = TrainConfig(strategy=strategy, epochs=1, layer_sizes=(2, 8, 4))
        with pytest.raises(ValueError, match=error):
            train(config, train_set, test_set, teacher)

    @pytest.mark.parametrize("teacher,strategy", [
        (init_model([2, 8, 4], seed=0), "distill"),
        (CMatrix.zeros(4, 0.1), "proxy_distill"),
    ])
    def test_distill_picks_the_strategy_from_the_teacher(self, small_task, teacher, strategy):
        train_set, test_set = small_task
        base = dict(epochs=2, seed=3, layer_sizes=(2, 8, 4))
        picked = distill(TrainConfig(strategy="lspp", **base), teacher, train_set, test_set)
        named = train(TrainConfig(strategy=strategy, **base), train_set, test_set, teacher)
        assert picked.cmatrix is None
        for wa, wb in zip(picked.model.weights, named.model.weights):
            assert np.array_equal(wa, wb)

    def test_teacher_class_count_mismatch(self, small_task):
        train_set, test_set = small_task
        bad_teacher = init_model([2, 8, 3], seed=0)
        with pytest.raises(ValueError, match="outputs"):
            distill(TrainConfig(layer_sizes=(2, 8, 4)), bad_teacher, train_set, test_set)

    def test_teacher_input_width_mismatch(self, small_task):
        train_set, test_set = small_task
        bad_teacher = init_model([3, 8, 4], seed=0)
        with pytest.raises(ValueError, match="teacher takes 3 inputs, the data has 2"):
            distill(TrainConfig(layer_sizes=(2, 8, 4)), bad_teacher, train_set, test_set)

    def test_teacher_table_alpha_must_pin_argmax(self, small_task):
        train_set, test_set = small_task
        with pytest.raises(ValueError, match="argmax-pinning invariant"):
            distill(TrainConfig(), CMatrix.zeros(4, 0.5), train_set, test_set)

    def test_proxy_student_trains_and_records_the_table_alpha(self, small_task):
        train_set, test_set = small_task
        teacher = CMatrix.zeros(4, 0.3)
        base = dict(epochs=2, seed=3, layer_sizes=(2, 8, 4))
        with pytest.raises(ValueError, match="strategy 'proxy_distill' trains at its "
                                             "teacher table's alpha 0.3, got alpha=0.1"):
            train(TrainConfig(strategy="proxy_distill", **base), train_set, test_set, teacher)
        picked = distill(TrainConfig(**base), teacher, train_set, test_set)
        named = train(TrainConfig(strategy="proxy_distill", alpha=0.3, **base),
                      train_set, test_set, teacher)
        assert np.array_equal(picked.model.params, named.model.params)


class TestOlsStrategy:
    def test_runs_and_reports(self, small_task):
        train_set, test_set = small_task
        out = train(TrainConfig(strategy="ols", epochs=40, seed=4,
                                layer_sizes=(2, 8, 4)), train_set, test_set)
        assert out.cmatrix is None
        assert out.report.final_test_accuracy > 0.5
        assert out.report.ols_fallbacks == 0

    def test_correct_only_accumulation_may_fall_back(self, small_task):
        train_set, test_set = small_task
        out = train(
            TrainConfig(strategy="ols", epochs=3, seed=4, ols_correct_only=True,
                        layer_sizes=(2, 8, 4)),
            train_set,
            test_set,
        )
        assert out.report.ols_fallbacks >= 0  # counted, usually 0 on this task

    @pytest.mark.parametrize("correct_only", [False, True])
    def test_epoch_sums_match_per_step_oracle(self, small_task, tmp_path, monkeypatch,
                                              correct_only):
        calls, shared = [], lf_train.ols_accumulate

        def spy(probs, labels, k):
            calls.append((shared(probs, labels, k), np.bincount(labels, minlength=k)))
            return calls[-1][0]

        monkeypatch.setattr(lf_train, "ols_accumulate", spy)
        train_set, test_set = small_task
        config = TrainConfig(strategy="ols", epochs=6, seed=7, batch_size=48, lr=0.05,
                             ols_correct_only=correct_only, layer_sizes=(2, 8, 4))
        assert len(train_set) % config.batch_size != 0  # the last batch is partial
        out = train(config, train_set, test_set)
        oracle_epochs, oracle_stats = ols_run(config, train_set, test_set)

        assert len(calls) == len(oracle_epochs) == config.epochs
        for (means, counts), (want_means, want_counts) in zip(calls, oracle_epochs):
            assert means.tobytes() == want_means.tobytes()
            assert np.array_equal(counts, want_counts)
        if correct_only:  # some early predictions miss their class
            assert sum(counts.sum() for _, counts in calls) < config.epochs * len(train_set)
        oracle = TrainOutput(out.model, TrainReport(oracle_stats), None)
        assert metrics_bytes(tmp_path, out, "a.csv") == metrics_bytes(tmp_path, oracle, "b.csv")


class TestAblation:
    def test_sce_ours_is_bit_identical_to_lspp(self, small_task, tmp_path):
        train_set, test_set = small_task
        a = train(TrainConfig(strategy="lspp", epochs=10, seed=5,
                              layer_sizes=(2, 8, 4)), train_set, test_set)
        b = train_ablation(
            TrainConfig(strategy="ablation", ablation_loss="sce_ours", epochs=10,
                        seed=5, layer_sizes=(2, 8, 4)),
            train_set,
            test_set,
        )
        assert metrics_bytes(tmp_path, a, "a.csv") == metrics_bytes(tmp_path, b, "b.csv")
        assert np.array_equal(a.cmatrix.logits, b.cmatrix.logits)

    def test_gated_rows_have_lower_entropy_collapse_than_split(self, small_task):
        # boosted table rate so the collapse fully plays out at this scale
        train_set, test_set = small_task
        base = dict(epochs=200, seed=6, layer_sizes=(2, 16, 4), c_lr=0.5)
        ours = train_ablation(TrainConfig(ablation_loss="sce_ours", **base),
                              train_set, test_set)
        orig = train_ablation(TrainConfig(ablation_loss="sce_original", **base),
                              train_set, test_set)
        assert c_row_entropy(ours.cmatrix).mean() > c_row_entropy(orig.cmatrix).mean()

    def test_ce_variant_learns_low_entropy_rows(self, small_task):
        train_set, test_set = small_task
        base = dict(epochs=200, seed=6, layer_sizes=(2, 16, 4), c_lr=0.5)
        ours = train_ablation(TrainConfig(ablation_loss="sce_ours", **base),
                              train_set, test_set)
        ce = train_ablation(TrainConfig(ablation_loss="ce", **base),
                            train_set, test_set)
        assert c_row_entropy(ce.cmatrix).mean() < c_row_entropy(ours.cmatrix).mean()

    def test_strategy_forced_to_ablation(self, small_task):
        train_set, test_set = small_task
        out = train_ablation(TrainConfig(epochs=1, seed=0, layer_sizes=(2, 8, 4)),
                             train_set, test_set)
        assert out.cmatrix is not None


class TestDistill:
    def test_proxy_never_calls_teacher_forward(self, small_task):
        train_set, test_set = small_task
        teacher = train(TrainConfig(strategy="lspp", epochs=10, seed=1,
                                    layer_sizes=(2, 8, 4)), train_set, test_set)
        out = distill(TrainConfig(epochs=10, seed=2, layer_sizes=(2, 8, 4)),
                      teacher.cmatrix, train_set, test_set)
        assert out.report.teacher_forward_calls == 0

    def test_model_teacher_forwards_counted(self, small_task):
        train_set, test_set = small_task
        teacher = init_model([2, 8, 4], seed=3)
        out = distill(TrainConfig(epochs=5, seed=2, layer_sizes=(2, 8, 4)),
                      teacher, train_set, test_set)
        assert out.report.teacher_forward_calls > 0

    def test_one_teacher_pass_per_step(self, small_task):
        # 160 rows in batches of 32: 5 steps per epoch; evaluation never
        # runs the teacher
        train_set, test_set = small_task
        teacher = init_model([2, 8, 4], seed=3)
        out = distill(TrainConfig(epochs=3, seed=2, layer_sizes=(2, 8, 4)),
                      teacher, train_set, test_set)
        assert out.report.teacher_forward_calls == 3 * 5

    @pytest.mark.parametrize("cap", [1, 4 * 24 * 2])  # one batch, then four, per call
    def test_stacked_teacher_calls_write_the_same_bytes(self, small_task, tmp_path,
                                                        monkeypatch, cap):
        # 160 rows in batches of 24: six full batches and a partial one of 16
        train_set, test_set = small_task
        teacher = init_model([2, 8, 4], seed=3)
        config = TrainConfig(epochs=3, seed=2, batch_size=24, layer_sizes=(2, 8, 4))

        def run_bytes(name):
            out = distill(config, teacher, train_set, test_set)
            assert out.report.teacher_forward_calls == 3 * 7
            write_run_artifacts(tmp_path / name, config, out)
            return [(tmp_path / name / f).read_bytes()
                    for f in ("metrics.csv", "checkpoint.json")]

        default = run_bytes("default")
        monkeypatch.setattr(lf_train, "STACK_CAP", cap)
        assert run_bytes("capped") == default

    def test_uniform_teacher_yields_uniform_student(self, small_task):
        train_set, test_set = small_task
        teacher = zero_model([2, 8, 4])  # predicts exactly uniform everywhere
        out = distill(TrainConfig(epochs=30, seed=2, layer_sizes=(2, 8, 4)),
                      teacher, train_set, test_set)
        assert out.report.final_train_max_prob < 0.25 + 0.05

    def test_proxy_faster_than_model_teacher(self, small_task):
        train_set, test_set = small_task
        heavy = train(TrainConfig(strategy="lspp", epochs=2, seed=8,
                                  layer_sizes=(2, 128, 128, 4)), train_set, test_set)
        student = TrainConfig(epochs=30, seed=9, layer_sizes=(2, 8, 4))
        t0 = time.perf_counter()
        distill(student, heavy.model, train_set, test_set)
        model_teacher_time = time.perf_counter() - t0
        t0 = time.perf_counter()
        distill(student, heavy.cmatrix, train_set, test_set)
        proxy_time = time.perf_counter() - t0
        assert proxy_time < model_teacher_time

    def test_rejects_unknown_teacher_type(self, small_task):
        train_set, test_set = small_task
        with pytest.raises(ValueError, match="teacher"):
            distill(TrainConfig(), "not a teacher", train_set, test_set)


class TestDivergence:
    def test_overflowing_loss_names_epoch_and_batch(self, small_task):
        # features near 1e307 keep every logit finite, but the log-softmax
        # shift overflows and the first batch's loss is inf
        train_set, test_set = small_task
        huge = Dataset(train_set.features * 1e307, train_set.labels, 4)
        config = TrainConfig(strategy="onehot", epochs=2, layer_sizes=(2, 8, 4))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            ValueError, match=r"^training diverged: loss is inf at epoch 0, batch 0$"
        ):
            train(config, huge, test_set)

    def test_runaway_finite_loss_is_divergence(self, small_task):
        train_set, test_set = small_task
        config = TrainConfig(strategy="onehot", lr=100.0, epochs=5, layer_sizes=(2, 8, 4))
        with pytest.raises(ValueError, match=r"^training diverged: mean loss .* in epoch 0 "
                                             r"exceeds 1000 \* ln 4$"):
            train(config, train_set, test_set)

    def test_divergence_bound_is_on_the_epoch_mean(self, small_task, monkeypatch):
        import labelforge.train as lf_train

        train_set, test_set = small_task
        config = TrainConfig(strategy="onehot", epochs=3, layer_sizes=(2, 8, 4))
        losses = [row.train_loss for row in train(config, train_set, test_set)
                  .report.epoch_stats]
        worst = max(losses) / np.log(4)
        monkeypatch.setattr(lf_train, "DIVERGED_LOSS_FACTOR", worst * (1 + 1e-9))
        assert [row.train_loss for row in train(config, train_set, test_set)
                .report.epoch_stats] == losses
        monkeypatch.setattr(lf_train, "DIVERGED_LOSS_FACTOR", worst * (1 - 1e-9))
        epoch = losses.index(max(losses))
        with pytest.raises(ValueError, match=f"training diverged: mean loss .* in epoch {epoch} "):
            train(config, train_set, test_set)

    def test_nan_targets_stop_the_step_they_enter(self, small_task):
        train_set, test_set = small_task  # 160 rows: 5 batches per epoch

        class NanTeacher(Mlp):
            """Predicts NaN for its 8th per-batch forward pass on (epoch 1,
            batch 2), whether a call holds one batch or a stack of them."""

            def predict(self, batch_features):
                first = self.forward_count
                probs = super().predict(batch_features)
                stack = probs if probs.ndim == 3 else probs[None]
                stack[max(0, 7 - first):] = np.nan
                return probs

        base = init_model([2, 8, 4], seed=5)
        teacher = NanTeacher(base.layer_sizes, base.params.copy())
        config = TrainConfig(epochs=3, layer_sizes=(2, 8, 4))
        with pytest.raises(ValueError, match=r"loss is nan at epoch 1, batch 2$"):
            distill(config, teacher, train_set, test_set)
        # the teacher's targets are made per epoch before its first step, so
        # the loss of batch 2 fails after the forward passes of all epoch 1
        assert teacher.forward_count == 2 * 5

    def test_nan_parameter_before_final_evaluation_is_rejected(self, small_task,
                                                                monkeypatch):
        import labelforge.train as lf_train

        train_set, test_set = small_task
        steps = []
        real_step = lf_train.sgd_step

        def poisoning_step(model, grads, opt):
            real_step(model, grads, opt)
            steps.append(None)
            if len(steps) == 2 * 5:  # the last step of two epochs
                model.weights[0][0, 0] = np.nan

        monkeypatch.setattr(lf_train, "sgd_step", poisoning_step)
        config = TrainConfig(strategy="onehot", epochs=2, layer_sizes=(2, 8, 4))
        with pytest.raises(ValueError, match="softmax input contains NaN or Inf"):
            train(config, train_set, test_set)
        assert len(steps) == 10


class TestTargetsAreDistributions:
    """Seeded property check: every target source training reads gives rows
    that are distributions, for random K, alpha below 0.5 and batch size."""

    @staticmethod
    def assert_distributions(targets, where):
        assert (targets >= 0.0).all(), where
        assert np.abs(targets.sum(axis=1) - 1.0).max() <= 1e-12, where

    def test_every_target_source(self):
        from labelforge.labelreg import (
            TableTargets, ols_accumulate, ols_table, target_table,
        )
        from labelforge.numerics import softmax_probs_into

        rng = np.random.default_rng(2024)
        for trial in range(200):
            k = int(rng.integers(2, 13))
            alpha = float(rng.uniform(0.0, 0.5))
            batch = int(rng.integers(1, 65))
            labels = rng.integers(0, k, size=batch)
            where = (trial, k, alpha, batch)
            logits = rng.uniform(-30.0, 30.0, size=(k, k - 1))

            # onehot, ls, and lspp both as a step rewrites its buffers and as a table
            self.assert_distributions(np.eye(k)[labels], where)
            self.assert_distributions(target_table(CMatrix.zeros(k, alpha))[labels], where)
            step = TableTargets(CMatrix.zeros(k, alpha))
            step.update()
            step.cmatrix.logits[...] = logits
            self.assert_distributions(step.update()[labels], where)
            self.assert_distributions(target_table(CMatrix(logits, alpha))[labels], where)

            # proxy_distill: a teacher's frozen table
            teacher_c = CMatrix(rng.uniform(-30.0, 30.0, size=(k, k - 1)), alpha)
            self.assert_distributions(target_table(teacher_c)[labels], where)

            # ols: mean predictions of a batch, some classes possibly unseen
            seen = rng.integers(0, k, size=batch)
            logits_b = rng.uniform(-30.0, 30.0, size=(batch, k))
            means = ols_accumulate(softmax_probs_into(logits_b, logits_b), seen, k)
            for mix in (0.0, 1.0, float(rng.uniform())):
                table, _ = ols_table(means, mix)
                self.assert_distributions(table[labels], (*where, mix))

            # distill: a teacher network's probabilities
            teacher = init_model([3, 8, k], seed=trial)
            x = rng.normal(scale=10.0, size=(batch, 3))
            self.assert_distributions(teacher.predict(x), where)


class TestBatchGradientConsistency:
    """The batched closed forms in labelreg against per-sample oracles."""

    @staticmethod
    def reverse_row_grad(c, y, probs):
        p = row_probs(c, y)
        off_target = np.delete(probs, y)
        return -(off_target - p * off_target.sum())

    @staticmethod
    def forward_row_grad(c, y, log_probs):
        p = row_probs(c, y)
        off_target = np.delete(log_probs, y)
        return -c.alpha * p * (off_target - np.dot(p, off_target))

    @staticmethod
    def reverse_network_grad(c, y, probs):
        from labelforge.labelreg import LOG_CLAMP

        log_t = np.log(np.maximum(lspp_target(c, y), LOG_CLAMP))
        return -probs * (log_t - np.dot(probs, log_t))

    def test_vectorized_table_grads_match_per_sample_ops(self):
        from labelforge.labelreg import label_indices, table_logit_grad
        from labelforge.numerics import Rng, log_softmax_rows, softmax_rows

        rng = Rng(55)
        k, b = 5, 12
        c = CMatrix(rng.uniforms((k, k - 1), -2.0, 2.0), 0.1)
        logits = rng.uniforms((b, k), -2.0, 2.0)
        probs = softmax_rows(logits)
        log_probs = log_softmax_rows(logits)
        labels = np.array([rng.next_below(k) for _ in range(b)])

        vectorized = table_logit_grad(c.all_row_probs(), c.alpha, *label_indices(labels, k),
                                      probs, log_probs, forward=True, reverse=True)
        looped = np.zeros_like(c.logits)
        for i, y in enumerate(labels):
            looped[int(y)] += self.reverse_row_grad(c, int(y), probs[i])
            looped[int(y)] += self.forward_row_grad(c, int(y), log_probs[i])
        assert np.abs(vectorized - looped).max() < 1e-12

    def test_vectorized_reverse_dlogits_match_per_sample_op(self):
        from labelforge.labelreg import reverse_dlogits, target_table
        from labelforge.numerics import Rng, softmax_rows

        rng = Rng(56)
        k, b = 4, 10
        c = CMatrix(rng.uniforms((k, k - 1), -2.0, 2.0), 0.1)
        probs = softmax_rows(rng.uniforms((b, k), -2.0, 2.0))
        labels = np.array([rng.next_below(k) for _ in range(b)])
        batched = reverse_dlogits(probs, target_table(c)[labels])
        for i, y in enumerate(labels):
            per_sample = self.reverse_network_grad(c, int(y), probs[i])
            assert np.abs(batched[i] - per_sample).max() < 1e-12


class TestLearnedTableShape:
    def test_training_produces_asymmetric_rows(self):
        # three collinear unevenly spaced classes: the middle class confuses
        # with both neighbors, the outer ones mostly with the middle, so the
        # learned table has no reason to come out symmetric
        means = np.array([[0.0, 0.0], [1.0, 0.0], [4.0, 0.0]])
        train_set = generate_gaussian(GaussianSpec(means, 0.6, 80, seed=401))
        test_set = generate_gaussian(GaussianSpec(means, 0.6, 40, seed=402))
        out = train(TrainConfig(strategy="lspp", epochs=80, seed=1,
                                layer_sizes=(2, 16, 3)), train_set, test_set)
        expanded = out.cmatrix.expanded_probs()
        assert np.abs(expanded - expanded.T).max() > 1e-3


class TestSharedLosses:
    """Training and gradient_check run the same loss functions of labelreg."""

    def test_training_and_gradcheck_call_the_shared_functions(self, small_task,
                                                              monkeypatch):
        import labelforge.labelreg as lf_labelreg
        import labelforge.train as lf_train

        calls = []
        for name in ("cross_entropy", "network_dlogits", "reverse_cross_entropy",
                     "table_logit_grad", "ols_accumulate"):
            shared = getattr(lf_labelreg, name)
            assert getattr(lf_train, name) is shared

            def spy(*args, _name=name, _shared=shared, **kwargs):
                calls.append(_name)
                return _shared(*args, **kwargs)

            monkeypatch.setattr(lf_train, name, spy)
        train(TrainConfig(strategy="lspp", epochs=1, layer_sizes=(2, 8, 4)), *small_task)
        steps = 160 // 32
        assert calls == ["cross_entropy", "network_dlogits", "table_logit_grad"] * steps
        for correct_only in (False, True):
            calls.clear()
            train(TrainConfig(strategy="ols", epochs=3, ols_correct_only=correct_only,
                              layer_sizes=(2, 8, 4)), *small_task)
            # an ols run adds its predictions once per epoch
            assert calls == (["cross_entropy", "network_dlogits"] * steps
                             + ["ols_accumulate"]) * 3
        calls.clear()
        gradient_check(num_classes=4, seed=0)
        assert set(calls) == {"cross_entropy", "network_dlogits", "reverse_cross_entropy",
                              "table_logit_grad"}

    @pytest.mark.parametrize("k", [2, 5])
    def test_batched_reverse_cross_entropy_sums_the_per_sample_oracle(self, k):
        from labelforge.labelreg import reverse_cross_entropy, target_table
        from labelforge.numerics import Rng, softmax_rows

        rng = Rng(57 + k)
        c = CMatrix(rng.uniforms((k, k - 1), -2.0, 2.0), 0.1)
        probs = softmax_rows(rng.uniforms((12, k), -2.0, 2.0))
        labels = np.array([0, 0, 1, 1, 1, *(rng.next_below(k) for _ in range(7))])
        batched = reverse_cross_entropy(probs, target_table(c)[labels])
        looped = sum(sample_reverse_cross_entropy(c, int(y), p) for y, p in zip(labels, probs))
        assert abs(batched - looped) < 1e-12


class TestGradientCheckHarness:
    def test_small_errors_on_random_instance(self):
        out = gradient_check(num_classes=4, seed=21, hidden_sizes=(6,), batch_size=6)
        assert out["network_max_rel_err"] < 1e-6
        assert out["cmatrix_max_rel_err"] < 1e-6


class TestEpochOrders:
    """Runs of one seed share their epoch shuffles through `epoch_order`;
    what a run writes must not depend on the runs before it."""

    @staticmethod
    def empty_table(monkeypatch):
        monkeypatch.setattr(lf_train, "_epoch_orders", (None, {}))

    @staticmethod
    def count_permutations(monkeypatch):
        calls, permutation = [], Rng.permutation

        def spy(rng, n):
            calls.append(n)
            return permutation(rng, n)

        monkeypatch.setattr(Rng, "permutation", spy)
        return calls

    @staticmethod
    def artifacts(tmp_path, name, config, train_set, test_set):
        run_dir = tmp_path / name
        write_run_artifacts(run_dir, config, train(config, train_set, test_set))
        return {f: (run_dir / f).read_bytes()
                for f in ("metrics.csv", "cmatrix.csv", "checkpoint.json")}

    def test_runs_after_other_runs_match_runs_on_an_empty_table(self, small_task, tmp_path,
                                                                 monkeypatch):
        train_set, test_set = small_task
        half = train_set.subset(np.arange(0, len(train_set), 2))  # the same seed, other n
        runs = [(11, 20, train_set), (12, 20, train_set), (11, 20, train_set),
                (11, 20, half), (13, 3, train_set), (13, 200, train_set)]

        def config(seed, epochs):
            return TrainConfig(strategy="lspp", epochs=epochs, seed=seed,
                               layer_sizes=(2, 8, 4))

        self.empty_table(monkeypatch)
        shared = [self.artifacts(tmp_path, f"shared{i}", config(seed, epochs), data, test_set)
                  for i, (seed, epochs, data) in enumerate(runs)]
        for i, (seed, epochs, data) in enumerate(runs):
            self.empty_table(monkeypatch)
            fresh = self.artifacts(tmp_path, f"fresh{i}", config(seed, epochs), data, test_set)
            assert shared[i] == fresh, runs[i][:2]

    @pytest.mark.parametrize("n", [1, 2, 160])
    def test_each_row_is_the_epochs_permutation(self, monkeypatch, n):
        self.empty_table(monkeypatch)
        for epoch in (0, 1, 0, 5, 2, 5):
            row = lf_train.epoch_order(7, epoch, n)
            assert row.dtype == np.int32
            assert np.array_equal(row, Rng(derive_seed(7, 1 + epoch)).permutation(n))

    def test_rows_are_read_only(self, monkeypatch):
        self.empty_table(monkeypatch)
        for _ in range(2):  # as computed, then as kept
            row = lf_train.epoch_order(3, 0, 10)
            with pytest.raises(ValueError, match="read-only"):
                row[0] = 1

    def test_same_seed_runs_shuffle_each_epoch_once(self, small_task, monkeypatch):
        train_set, test_set = small_task
        calls = self.count_permutations(monkeypatch)
        self.empty_table(monkeypatch)
        config = TrainConfig(epochs=7, seed=21, layer_sizes=(2, 8, 4))
        train(config, train_set, test_set)
        train(replace(config, strategy="ls"), train_set, test_set)
        train(replace(config, epochs=0), train_set, test_set)
        assert calls == [len(train_set)] * config.epochs

    def test_rows_past_the_cap_are_computed_and_not_kept(self, small_task, tmp_path,
                                                        monkeypatch):
        train_set, test_set = small_task
        n = len(train_set)
        monkeypatch.setattr(lf_train, "ORDER_CAP", 2 * n + n // 2)  # room for two rows
        calls = self.count_permutations(monkeypatch)
        self.empty_table(monkeypatch)
        config = TrainConfig(strategy="lspp", epochs=5, seed=17, layer_sizes=(2, 8, 4))
        first = self.artifacts(tmp_path, "first", config, train_set, test_set)
        assert lf_train._epoch_orders[0] == (17, n)
        assert sorted(lf_train._epoch_orders[1]) == [0, 1]
        second = self.artifacts(tmp_path, "second", config, train_set, test_set)
        assert first == second
        assert len(calls) == config.epochs + config.epochs - 2
        # a single row longer than the cap is never kept
        row = lf_train.epoch_order(17, 0, 3 * n)
        assert np.array_equal(row, Rng(derive_seed(17, 1)).permutation(3 * n))
        assert lf_train._epoch_orders[0] == (17, 3 * n)
        assert lf_train._epoch_orders[1] == {}


class TestRunArtifacts:
    def test_writes_expected_files(self, small_task, tmp_path):
        train_set, test_set = small_task
        cfg = TrainConfig(strategy="lspp", epochs=4, seed=11, layer_sizes=(2, 8, 4))
        resolved = cfg.resolved(2, 4)
        result = train(resolved, train_set, test_set)
        run_dir = tmp_path / "run"
        write_run_artifacts(run_dir, resolved, result)
        for name in ("config.json", "metrics.csv", "checkpoint.json", "report.json",
                     "cmatrix.csv", "cmatrix.json"):
            assert (run_dir / name).exists(), name
        report = json.loads((run_dir / "report.json").read_text())
        assert "c_row_entropy" in report
        assert len(report["epochs"]) == 4
        config = json.loads((run_dir / "config.json").read_text())
        assert config["alpha"] == 0.1
        assert config["c_lr"] == config["lr"]
        meta = json.loads((run_dir / "cmatrix.json").read_text())["metadata"]
        assert (meta["strategy"], meta["ablation_loss"]) == ("lspp", "sce_ours")
        header = (run_dir / "metrics.csv").read_text().splitlines()[0]
        assert header == "epoch,train_acc,test_acc,train_loss,mean_max_prob"

    def test_report_json_bytes_match_key_by_key_copy(self, tmp_path):
        rows = [EpochStats(e, 0.5 + e / 8, 0.25 + e / 16, 1.0 / (e + 3), 0.3 + e / 10)
                for e in range(3)]
        report = TrainReport(rows, 0.875, 0.6, 0.1 / 3, 2.0 / 7, 0.91, 0.8, 1.25, 15, 2)
        result = TrainOutput(init_model([2, 3, 4], seed=1), report, None)
        write_run_artifacts(tmp_path, TrainConfig(), result)
        # the key-by-key document write_run_artifacts wrote before asdict, as oracle
        oracle = {
            "final_train_accuracy": report.final_train_accuracy,
            "final_test_accuracy": report.final_test_accuracy,
            "final_train_nll": report.final_train_nll,
            "final_test_nll": report.final_test_nll,
            "final_train_max_prob": report.final_train_max_prob,
            "final_test_max_prob": report.final_test_max_prob,
            "wall_time_sec": report.wall_time_sec,
            "teacher_forward_calls": report.teacher_forward_calls,
            "ols_fallbacks": report.ols_fallbacks,
            "epochs": [asdict(row) for row in report.epoch_stats],
        }
        expected = json.dumps(oracle, indent=2, sort_keys=True) + "\n"
        assert (tmp_path / "report.json").read_text() == expected

    def test_no_cmatrix_files_for_onehot(self, small_task, tmp_path):
        train_set, test_set = small_task
        cfg = TrainConfig(strategy="onehot", epochs=2, seed=1).resolved(2, 4)
        result = train(cfg, train_set, test_set)
        run_dir = tmp_path / "run2"
        write_run_artifacts(run_dir, cfg, result)
        assert not (run_dir / "cmatrix.csv").exists()
