import json
import struct
from dataclasses import fields

import numpy as np
import pytest

from labelforge.cli import (
    UsageError,
    _config_overrides,
    build_parser,
    load_config,
    main,
    parse_config_file,
)
from labelforge.dataio import Dataset, GaussianSpec, generate_gaussian, save_csv
from labelforge.labelreg import CMatrix, export_cmatrix
from labelforge.model import init_model, save_checkpoint
from labelforge.train import TrainConfig


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    path = root / "data.csv"
    assert main(["gen-data", "--out", str(path), "--per-class", "40", "--seed", "5"]) == 0
    return path


def write_idx(tmp_path, name, labels):
    """An IDX image/label pair of 1x2 images, one per label."""
    images = tmp_path / f"{name}-img.idx"
    label_file = tmp_path / f"{name}-lab.idx"
    n = len(labels)
    images.write_bytes(struct.pack(">IIII", 0x803, n, 1, 2) + bytes(range(2 * n)))
    label_file.write_bytes(struct.pack(">II", 0x801, n) + bytes(labels))
    return images, label_file


def run_train(data_csv, out_dir, *extra):
    argv = [
        "train", "--data", str(data_csv), "--epochs", "6", "--seed", "3",
        "--out", str(out_dir), *extra,
    ]
    return main(argv)


class TestConfigFile:
    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        config = load_config(path, {})
        assert config == TrainConfig()
        assert config.alpha == 0.1

    def test_comments_and_values(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# a comment\nalpha = 0.2\nepochs=12\nlayer_sizes=2,8,4\n")
        config = load_config(path, {})
        assert config.alpha == 0.2
        assert config.epochs == 12
        assert config.layer_sizes == (2, 8, 4)

    def test_flag_overrides_file(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("alpha=0.2\n")
        config = load_config(path, {"alpha": 0.3})
        assert config.alpha == 0.3

    def test_misspelled_key_suggests_nearest(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("alhpa=0.2\n")
        with pytest.raises(UsageError, match="alhpa.*did you mean 'alpha'"):
            parse_config_file(path)

    def test_type_mismatch_reports_line(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("alpha=0.1\nepochs=soon\n")
        with pytest.raises(UsageError, match="line 2"):
            parse_config_file(path)

    def test_json_config_accepted(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"alpha": 0.25, "epochs": 3, "c_lr": None}))
        config = load_config(path, {})
        assert config.alpha == 0.25
        assert config.c_lr is None

    def test_bad_value_range_is_usage_error(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("alpha=0.9\n")
        with pytest.raises(UsageError):
            load_config(path, {"alpha": 1.5})

    @pytest.mark.parametrize("text,error", [
        ('{"epochs": 1,', "is not valid JSON"),
        (None, "cannot read config file"),
    ], ids=["malformed-json", "missing-file"])
    def test_unreadable_file_exits_2_without_a_run_directory(self, data_csv, tmp_path,
                                                             capsys, text, error):
        path = tmp_path / "c.json"
        if text is not None:
            path.write_text(text)
        out = tmp_path / "run"
        assert run_train(data_csv, out, "--config", str(path)) == 2
        assert error in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("doc,key", [
    ({"layer_sizes": [2, 8.7, 4]}, "layer_sizes"),
    ({"layer_sizes": [2, True, 4]}, "layer_sizes"),
    ({"layer_sizes": ["2", 8, 4]}, "layer_sizes"),
    ({"epochs": 1.9}, "epochs"),
    ({"epochs": "1"}, "epochs"),
    ({"seed": True}, "seed"),
    ({"batch_size": float("inf")}, "batch_size"),
    ({"lr": True}, "lr"),
    ({"alpha": False}, "alpha"),
    ({"lr": "0.5"}, "lr"),
    ({"ols_correct_only": "yes"}, "ols_correct_only"),
    ({"ols_correct_only": 1}, "ols_correct_only"),
    ({"strategy": 5}, "strategy"),
], ids=["fractional-size", "boolean-size", "string-size", "fractional-epochs",
        "string-epochs", "boolean-seed", "infinite-batch-size", "boolean-lr",
        "boolean-alpha", "string-lr", "string-bool", "integer-bool", "integer-strategy"])
def test_json_config_non_integer_exits_2_without_a_run_directory(data_csv, tmp_path, capsys,
                                                               doc, key):
    # int() would truncate 8.7 to 8, read true as 1 and "1" as 1, and
    # overflow on Infinity (which Python's json reads); float() would read
    # true as 1.0, training at lr 1.0, and "0.5" as 0.5; bool() would read
    # "yes" and 1 as true, and str() 5 as "5"
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"epochs": 1, **doc}))
    out = tmp_path / "run"
    assert run_train(data_csv, out, "--config", str(path)) == 2
    assert f"config key {key!r}: cannot parse" in capsys.readouterr().err
    assert not out.exists()


def test_json_config_integral_floats_train_as_ints(data_csv, tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"layer_sizes": [2.0, 8, 4], "epochs": 1.0, "seed": 2.0}))
    out = tmp_path / "run"
    assert main(["train", "--data", str(data_csv), "--config", str(path),
                 "--out", str(out)]) == 0
    config = json.loads((out / "config.json").read_text())
    assert (config["layer_sizes"], config["epochs"], config["seed"]) == ([2, 8, 4], 1, 2)
    assert "2.0" not in (out / "config.json").read_text()


# a value other than the default for every TrainConfig field, as the text a
# config file or a flag gives, and the parsed value
FIELD_EXAMPLES = {
    "strategy": ("ols", "ols"),
    "alpha": ("0.2", 0.2),
    "epochs": ("7", 7),
    "batch_size": ("16", 16),
    "lr": ("0.05", 0.05),
    "momentum": ("0.5", 0.5),
    "weight_decay": ("0.001", 0.001),
    "c_lr": ("0.3", 0.3),
    "seed": ("11", 11),
    "layer_sizes": ("2,8,4", (2, 8, 4)),
    "ols_mix": ("0.25", 0.25),
    "ols_correct_only": ("true", True),
    "ablation_loss": ("ce", "ce"),
}


@pytest.mark.parametrize("key", [f.name for f in fields(TrainConfig)])
def test_every_config_field_is_a_key_and_a_flag(key, tmp_path):
    text, value = FIELD_EXAMPLES[key]
    path = tmp_path / "c.cfg"
    path.write_text(f"{key}={text}\n")
    assert getattr(load_config(path, {}), key) == value
    flag = "--" + key.replace("_", "-")
    argv = ["train", flag] if isinstance(value, bool) else ["train", flag, text]
    args = build_parser().parse_args(argv)
    assert getattr(load_config(None, _config_overrides(args)), key) == value


class TestGenData:
    def test_writes_loadable_csv(self, data_csv):
        text = data_csv.read_text().splitlines()
        assert text[0] == "f0,f1,label"
        assert len(text) == 1 + 160

    def test_bad_means_rejected(self, tmp_path, capsys):
        code = main(["gen-data", "--out", str(tmp_path / "x.csv"), "--means", "oops"])
        assert code == 2
        assert "means" in capsys.readouterr().err


class TestTrainCommand:
    def test_writes_run_directory(self, data_csv, tmp_path):
        out = tmp_path / "run"
        assert run_train(data_csv, out, "--strategy", "lspp") == 0
        for name in ("manifest.json", "config.json", "metrics.csv",
                     "checkpoint.json", "report.json", "cmatrix.csv"):
            assert (out / name).exists(), name
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "train"
        assert manifest["config"]["strategy"] == "lspp"
        assert "sha256" in manifest["inputs"]["data"]

    def test_metrics_byte_identical_across_reruns(self, data_csv, tmp_path):
        assert run_train(data_csv, tmp_path / "a", "--strategy", "lspp") == 0
        assert run_train(data_csv, tmp_path / "b", "--strategy", "lspp") == 0
        assert (tmp_path / "a/metrics.csv").read_bytes() == (
            tmp_path / "b/metrics.csv"
        ).read_bytes()
        assert (tmp_path / "a/cmatrix.csv").read_bytes() == (
            tmp_path / "b/cmatrix.csv"
        ).read_bytes()

    def test_rerun_from_emitted_config_reproduces_metrics(self, data_csv, tmp_path):
        assert run_train(data_csv, tmp_path / "a", "--strategy", "lspp") == 0
        code = main([
            "train", "--data", str(data_csv),
            "--config", str(tmp_path / "a/config.json"),
            "--out", str(tmp_path / "b"),
        ])
        assert code == 0
        assert (tmp_path / "a/metrics.csv").read_bytes() == (
            tmp_path / "b/metrics.csv"
        ).read_bytes()

    def test_alpha_out_of_range_exits_2(self, data_csv, tmp_path, capsys):
        code = run_train(data_csv, tmp_path / "bad", "--alpha", "1.5")
        assert code == 2
        assert "alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha,code", [("0.49", 0), ("0.5", 2), ("0.7", 2)])
    def test_lspp_alpha_from_half_up_exits_2(self, data_csv, tmp_path, capsys, alpha, code):
        out = tmp_path / "run"
        assert run_train(data_csv, out, "--strategy", "lspp", "--alpha", alpha) == code
        if code == 2:
            assert "argmax-pinning invariant" in capsys.readouterr().err
            assert not out.exists()
        else:
            assert (out / "cmatrix.csv").exists()

    @pytest.mark.parametrize("alpha,code", [("0.7", 0), ("0.75", 2)])
    def test_ls_alpha_from_k_minus_one_over_k_exits_2(self, data_csv, tmp_path, capsys,
                                                      alpha, code):
        # 4 classes: ls keeps the argmax on the true class only below 3/4
        out = tmp_path / "run"
        assert run_train(data_csv, out, "--strategy", "ls", "--alpha", alpha) == code
        if code == 2:
            assert "argmax-pinning invariant" in capsys.readouterr().err
            assert not out.exists()
        else:
            assert (out / "metrics.csv").exists()

    def test_lspp_trains_and_records_its_routing(self, data_csv, tmp_path):
        out = tmp_path / "run"
        assert run_train(data_csv, out, "--strategy", "lspp", "--ablation-loss", "ce") == 0
        config = json.loads((out / "config.json").read_text())
        meta = json.loads((out / "cmatrix.json").read_text())["metadata"]
        assert config["ablation_loss"] == meta["ablation_loss"] == "ce"
        assert run_train(data_csv, tmp_path / "ours", "--strategy", "lspp") == 0
        assert (out / "cmatrix.csv").read_bytes() != (tmp_path / "ours/cmatrix.csv").read_bytes()

    def test_ablate_alpha_from_half_up_exits_2(self, data_csv, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["ablate", "--data", str(data_csv), "--alpha", "0.7", "--out", str(out)])
        assert code == 2
        assert "argmax-pinning invariant" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [("--momentum", "-5"), ("--momentum", "1"),
                                            ("--weight-decay", "-0.1")])
    def test_optimizer_out_of_range_exits_2(self, data_csv, tmp_path, capsys, flag, value):
        out = tmp_path / "bad"
        assert run_train(data_csv, out, flag, value) == 2
        assert flag[2:].replace("-", "_") in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_csv_cell_exits_2(self, tmp_path, capsys):
        path = tmp_path / "nan.csv"
        path.write_text("f0,f1,label\n0,0,0\n1,nan,1\n0,1,0\n1,1,1\n")
        assert run_train(path, tmp_path / "run") == 2
        assert "nan.csv:3: non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "ablate", "analyze", "distill"])
    def test_single_class_csv_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "one.csv"
        path.write_text("f0,f1,label\n" + "".join(f"{i},{i % 3},0\n" for i in range(10)))
        teacher = tmp_path / "teacher.json"
        save_checkpoint(init_model([2, 4, 2], seed=0), teacher)
        extra = {
            "analyze": ["--checkpoint", str(teacher)],
            "distill": ["--teacher-checkpoint", str(teacher)],
        }.get(command, [])
        out = tmp_path / "run"
        argv = [command, "--data", str(path), "--out", str(out), *extra]
        assert main(argv) == 2
        assert "one.csv: data has 1 class" in capsys.readouterr().err
        assert not out.exists()

    def test_single_class_idx_exits_2(self, tmp_path, capsys):
        images = tmp_path / "img.idx"
        labels = tmp_path / "lab.idx"
        images.write_bytes(struct.pack(">IIII", 0x803, 6, 1, 2) + bytes(range(12)))
        labels.write_bytes(struct.pack(">II", 0x801, 6) + bytes(6))
        argv = ["train", "--idx-images", str(images), "--idx-labels", str(labels),
                "--out", str(tmp_path / "run")]
        assert main(argv) == 2
        assert "lab.idx: data has 1 class" in capsys.readouterr().err

    @pytest.mark.parametrize("train_labels, test_labels, message", [
        ([0, 0, 1, 1, 2, 2], [0, 1, 0, 1],
         "test-lab.idx: training label 2 of {train} has no rows in the test data"),
        ([0, 0, 1, 1], [0, 1, 2, 1],
         "test-lab.idx: label 2 does not occur in the training data {train}"),
        ([0, 0, 1, 1, 2, 2], [0, 2, 0, 2],
         "test-lab.idx: training label 1 of {train} has no rows in the test data"),
    ])
    def test_idx_test_set_class_mismatch_exits_2(self, tmp_path, capsys, train_labels,
                                                  test_labels, message):
        images, labels = write_idx(tmp_path, "train", train_labels)
        test_images, test_labels = write_idx(tmp_path, "test", test_labels)
        out = tmp_path / "run"
        argv = ["train", "--idx-images", str(images), "--idx-labels", str(labels),
                "--test-idx-images", str(test_images), "--test-idx-labels",
                str(test_labels), "--epochs", "1", "--out", str(out)]
        assert main(argv) == 2
        assert message.format(train=labels) in capsys.readouterr().err
        assert not out.exists()

    def test_idx_test_set_gets_the_training_class_count(self, tmp_path):
        images, labels = write_idx(tmp_path, "train", [0, 1, 2, 0, 1, 2])
        test_images, test_labels = write_idx(tmp_path, "test", [2, 1, 0])
        out = tmp_path / "run"
        argv = ["train", "--idx-images", str(images), "--idx-labels", str(labels),
                "--test-idx-images", str(test_images), "--test-idx-labels",
                str(test_labels), "--epochs", "1", "--out", str(out)]
        assert main(argv) == 0
        assert (out / "metrics.csv").exists()

    def test_test_data_labels_follow_training_mapping(self, tmp_path):
        # the test file lists label 9 first, the training file label 5
        train_csv = tmp_path / "train.csv"
        train_csv.write_text("x,label\n0.0,5\n0.1,5\n0.2,5\n10.0,9\n10.1,9\n10.2,9\n")
        test_csv = tmp_path / "test.csv"
        test_csv.write_text("x,label\n10.05,9\n9.9,9\n0.05,5\n0.15,5\n")
        out = tmp_path / "run"
        argv = ["train", "--data", str(train_csv), "--test-data", str(test_csv),
                "--epochs", "60", "--lr", "0.5", "--out", str(out)]
        assert main(argv) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["final_train_accuracy"] == 1.0
        assert report["final_test_accuracy"] == 1.0

    def test_test_data_missing_a_training_label_exits_2(self, tmp_path, capsys):
        # one class of the training file's two: named by its label, not
        # reported as a one-class file
        train_csv = tmp_path / "train.csv"
        train_csv.write_text("x,label\n0.0,5\n0.1,5\n10.0,9\n10.1,9\n")
        test_csv = tmp_path / "test.csv"
        test_csv.write_text("x,label\n10.05,9\n9.9,9\n")
        out = tmp_path / "run"
        argv = ["train", "--data", str(train_csv), "--test-data", str(test_csv),
                "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "test.csv: training label 5 of" in err
        assert "has no rows in the test data" in err
        assert not out.exists()

    def test_unknown_test_data_label_exits_2(self, tmp_path, capsys):
        train_csv = tmp_path / "train.csv"
        train_csv.write_text("x,label\n0.0,5\n0.1,5\n10.0,9\n10.1,9\n")
        test_csv = tmp_path / "test.csv"
        test_csv.write_text("x,label\n10.05,9\n0.05,7\n")
        out = tmp_path / "run"
        argv = ["train", "--data", str(train_csv), "--test-data", str(test_csv),
                "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "test.csv: label 7 does not occur in the training data" in err
        assert not out.exists()

    def test_diverged_run_exits_1_naming_the_step(self, tmp_path, capsys):
        # features near 1e307: finite logits whose log-softmax overflows
        means = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 10.0], [11.0, 10.0]])
        data = generate_gaussian(GaussianSpec(means, 0.5, 40, seed=301))
        path = tmp_path / "huge.csv"
        save_csv(Dataset(data.features * 1e307, data.labels, 4), path)
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["train", "--data", str(path), "--epochs", "2",
                         "--out", str(tmp_path / "run")])
        assert code == 1
        err = capsys.readouterr().err
        assert "training diverged: loss is inf at epoch 0, batch 0" in err

    @pytest.mark.parametrize("strategy", ["onehot", "lspp"])
    def test_runaway_finite_loss_exits_1(self, data_csv, tmp_path, capsys, strategy):
        # every loss stays finite, but the epoch mean passes 1000 * ln K
        code = main(["train", "--data", str(data_csv), "--lr", "1000", "--epochs", "5",
                     "--strategy", strategy, "--out", str(tmp_path / "run")])
        assert code == 1
        assert "training diverged: mean loss" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self, data_csv):
        assert main(["train", "--data", str(data_csv), "--frobnicate"]) == 2

    def test_missing_data_exits_2(self, tmp_path, capsys):
        assert main(["train", "--out", str(tmp_path / "r")]) == 2
        assert "no input data" in capsys.readouterr().err

    def test_unreadable_data_exits_2(self, tmp_path):
        assert main(["train", "--data", str(tmp_path / "ghost.csv")]) == 2

    def test_collision_rejected(self, data_csv, tmp_path, capsys):
        out = tmp_path / "dup"
        assert run_train(data_csv, out) == 0
        assert run_train(data_csv, out) == 2
        assert "not empty" in capsys.readouterr().err

    def test_env_var_output_root(self, data_csv, tmp_path, monkeypatch):
        monkeypatch.setenv("LABELFORGE_OUT", str(tmp_path / "root"))
        argv = ["train", "--data", str(data_csv), "--epochs", "1", "--seed", "4"]
        assert main(argv) == 0
        runs = list((tmp_path / "root").glob("train-4-*"))
        assert len(runs) == 1
        assert (runs[0] / "metrics.csv").exists()

    def test_distill_strategy_redirected(self, data_csv, tmp_path, capsys):
        code = run_train(data_csv, tmp_path / "r", "--strategy", "distill")
        assert code == 2
        assert "distill subcommand" in capsys.readouterr().err

    def test_input_file_never_mutated(self, data_csv, tmp_path):
        before = data_csv.read_bytes()
        assert run_train(data_csv, tmp_path / "imm", "--strategy", "ols") == 0
        assert data_csv.read_bytes() == before


class TestDistillCommand:
    def test_proxy_and_model_teacher(self, data_csv, tmp_path):
        teacher_dir = tmp_path / "teacher"
        assert run_train(data_csv, teacher_dir, "--strategy", "lspp") == 0
        proxy_dir = tmp_path / "proxy"
        code = main([
            "distill", "--data", str(data_csv),
            "--teacher-cmatrix", str(teacher_dir / "cmatrix.csv"),
            "--epochs", "4", "--seed", "2", "--out", str(proxy_dir),
        ])
        assert code == 0
        report = json.loads((proxy_dir / "report.json").read_text())
        assert report["teacher_forward_calls"] == 0
        config = json.loads((proxy_dir / "config.json").read_text())
        assert config["strategy"] == "proxy_distill"

        model_dir = tmp_path / "modelteacher"
        code = main([
            "distill", "--data", str(data_csv),
            "--teacher-checkpoint", str(teacher_dir / "checkpoint.json"),
            "--epochs", "4", "--seed", "2", "--out", str(model_dir),
        ])
        assert code == 0
        report = json.loads((model_dir / "report.json").read_text())
        assert report["teacher_forward_calls"] > 0

    @pytest.mark.parametrize("teacher,error", [
        (init_model([2, 8, 3], seed=0), "teacher has 3 outputs, task has 4 classes"),
        (init_model([3, 8, 4], seed=0), "teacher takes 3 inputs, the data has 2 features"),
        (CMatrix.zeros(4, 0.9), "argmax-pinning invariant"),
    ], ids=["class-count", "input-width", "table-alpha"])
    def test_unusable_teacher_exits_2_without_a_run_directory(self, data_csv, tmp_path,
                                                              capsys, teacher, error):
        if isinstance(teacher, CMatrix):
            flag, path = "--teacher-cmatrix", tmp_path / "cmatrix.csv"
            export_cmatrix(teacher, path)
        else:
            flag, path = "--teacher-checkpoint", tmp_path / "checkpoint.json"
            save_checkpoint(teacher, path)
        out = tmp_path / "run"
        code = main(["distill", "--data", str(data_csv), flag, str(path),
                     "--epochs", "2", "--out", str(out)])
        assert code == 2
        assert error in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,flags,error", [
        ("distill", ["--teacher-cmatrix", None, "--alpha", "0.3"],
         "strategy 'proxy_distill' does not read alpha, got alpha=0.3"),
        ("distill", ["--teacher-checkpoint", None, "--ols-mix", "0.2"],
         "strategy 'distill' does not read ols_mix, got ols_mix=0.2"),
        ("train", ["--strategy", "onehot", "--ablation-loss", "ce"],
         "strategy 'onehot' does not read ablation_loss, got ablation_loss='ce'"),
        ("train", ["--strategy", "ls", "--ols-correct-only"],
         "strategy 'ls' does not read ols_correct_only, got ols_correct_only=True"),
    ], ids=["proxy-alpha", "distill-ols-mix", "onehot-ablation-loss", "ls-ols-correct-only"])
    def test_key_the_strategy_does_not_read_exits_2_without_a_run_directory(
            self, data_csv, tmp_path, capsys, command, flags, error):
        # a proxy student's targets carry the teacher's alpha, never its own
        teachers = {"--teacher-cmatrix": tmp_path / "cmatrix.csv",
                    "--teacher-checkpoint": tmp_path / "checkpoint.json"}
        export_cmatrix(CMatrix.zeros(4, 0.1), teachers["--teacher-cmatrix"])
        save_checkpoint(init_model([2, 8, 4], seed=0), teachers["--teacher-checkpoint"])
        argv = [str(teachers[flags[0]]) if flag is None else flag for flag in flags]
        out = tmp_path / "run"
        assert main([command, "--data", str(data_csv), *argv, "--out", str(out)]) == 2
        assert error in capsys.readouterr().err
        assert not out.exists()

    def test_requires_exactly_one_teacher(self, data_csv, tmp_path, capsys):
        assert main(["distill", "--data", str(data_csv)]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_repeat_runs_identical(self, data_csv, tmp_path):
        teacher_dir = tmp_path / "t"
        assert run_train(data_csv, teacher_dir, "--strategy", "lspp") == 0
        argv = [
            "distill", "--data", str(data_csv),
            "--teacher-cmatrix", str(teacher_dir / "cmatrix.csv"),
            "--epochs", "4", "--seed", "2",
        ]
        assert main(argv + ["--out", str(tmp_path / "r1")]) == 0
        assert main(argv + ["--out", str(tmp_path / "r2")]) == 0
        assert (tmp_path / "r1/metrics.csv").read_bytes() == (
            tmp_path / "r2/metrics.csv"
        ).read_bytes()


class TestAblateCommand:
    def test_runs_and_reports_strategy(self, data_csv, tmp_path):
        out = tmp_path / "abl"
        code = main([
            "ablate", "--data", str(data_csv), "--ablation-loss", "sce_original",
            "--epochs", "4", "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        config = json.loads((out / "config.json").read_text())
        assert config["strategy"] == "ablation"
        assert config["ablation_loss"] == "sce_original"
        assert (out / "cmatrix.csv").exists()


class TestGradcheckCommand:
    def test_passes_at_sane_step(self, capsys):
        assert main(["gradcheck", "--k", "5", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "network=" in out and "cmatrix=" in out

    def test_fails_at_coarse_step(self, capsys):
        # a step this coarse leaves truncation error far above the gate
        assert main(["gradcheck", "--k", "4", "--seed", "1", "--step", "0.05"]) == 1
        assert "FAILED" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [
        ("--k", "1"), ("--k", "0"), ("--batch", "0"), ("--step", "0"),
        ("--step", "nan"), ("--step", "inf"), ("--layers", "0"), ("--layers", "a"),
    ])
    def test_bad_flag_exits_2_naming_it_before_any_check(self, capsys, monkeypatch,
                                                         flag, value):
        def no_check(**_):
            raise AssertionError("gradient_check ran")

        monkeypatch.setattr("labelforge.cli.gradient_check", no_check)
        assert main(["gradcheck", flag, value]) == 2
        assert f"labelforge: {flag} " in capsys.readouterr().err


class TestAnalyzeCommand:
    def test_writes_analysis_files(self, data_csv, tmp_path):
        run_dir = tmp_path / "run"
        assert run_train(data_csv, run_dir, "--strategy", "lspp") == 0
        out = tmp_path / "analysis"
        code = main([
            "analyze", "--data", str(data_csv),
            "--checkpoint", str(run_dir / "checkpoint.json"),
            "--cmatrix", str(run_dir / "cmatrix.csv"),
            "--out", str(out),
        ])
        assert code == 0
        for name in (
            "class_mean_probs_train.csv", "class_mean_probs_test.csv",
            "center_distance_train.csv", "center_distance_test.csv",
            "analysis.json", "manifest.json",
        ):
            assert (out / name).exists(), name
        doc = json.loads((out / "analysis.json").read_text())
        assert "c_row_entropy" in doc
        assert len(doc["c_row_entropy"]) == 4
        assert 0.0 <= doc["train"]["accuracy"] <= 1.0

    def test_non_finite_checkpoint_exits_2(self, data_csv, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert run_train(data_csv, run_dir) == 0
        checkpoint = run_dir / "checkpoint.json"
        doc = json.loads(checkpoint.read_text())
        doc["weights"][0][0] = float("nan")
        checkpoint.write_text(json.dumps(doc))
        code = main([
            "analyze", "--data", str(data_csv), "--checkpoint", str(checkpoint),
            "--out", str(tmp_path / "a"),
        ])
        assert code == 2
        assert "layer 0 has a NaN or Inf parameter" in capsys.readouterr().err

    def test_bad_checkpoint_exits_2(self, data_csv, tmp_path):
        missing = tmp_path / "nope.json"
        code = main([
            "analyze", "--data", str(data_csv), "--checkpoint", str(missing),
            "--out", str(tmp_path / "a"),
        ])
        assert code == 2

    @pytest.mark.parametrize("sizes,table_classes,error", [
        ([2, 8, 3], None, "checkpoint has 3 outputs, task has 4 classes"),
        ([3, 8, 4], None, "checkpoint takes 3 inputs, the data has 2 features"),
        ([2, 8, 4], 3, "cmatrix has 3 outputs, task has 4 classes"),
    ], ids=["checkpoint-class-count", "checkpoint-input-width", "cmatrix-class-count"])
    def test_artifact_of_another_task_exits_2_without_a_run_directory(
            self, data_csv, tmp_path, capsys, sizes, table_classes, error):
        # the data has 2 features and 4 classes
        checkpoint = tmp_path / "checkpoint.json"
        save_checkpoint(init_model(sizes, seed=0), checkpoint)
        argv = ["analyze", "--data", str(data_csv), "--checkpoint", str(checkpoint)]
        if table_classes is not None:
            export_cmatrix(CMatrix.zeros(table_classes, 0.1), tmp_path / "cmatrix.csv")
            argv += ["--cmatrix", str(tmp_path / "cmatrix.csv")]
        out = tmp_path / "a"
        assert main(argv + ["--out", str(out)]) == 2
        assert error in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command,artifact,key,value", [
    ("analyze", "checkpoint.json", "layer_sizes", None),
    ("analyze", "checkpoint.json", "weights", 5),
    ("analyze", "cmatrix.json", "num_classes", None),
    ("analyze", "cmatrix.json", "alpha", None),
    ("distill", "cmatrix.json", "num_classes", None),
    ("distill", "cmatrix.json", "alpha", None),
])
def test_artifact_value_of_the_wrong_type_exits_2_naming_the_file(
        data_csv, tmp_path, capsys, command, artifact, key, value):
    checkpoint, table = tmp_path / "checkpoint.json", tmp_path / "cmatrix.csv"
    save_checkpoint(init_model([2, 8, 4], seed=0), checkpoint)
    export_cmatrix(CMatrix.zeros(4, 0.1), table)  # and its sidecar cmatrix.json
    bad = tmp_path / artifact
    doc = json.loads(bad.read_text())
    doc[key] = value
    bad.write_text(json.dumps(doc))
    if command == "analyze":
        argv = ["analyze", "--checkpoint", str(checkpoint), "--cmatrix", str(table)]
    else:
        argv = ["distill", "--teacher-cmatrix", str(table), "--epochs", "2"]
    out = tmp_path / "run"
    assert main(argv + ["--data", str(data_csv), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{bad}: a value has the wrong type" in err
    assert not out.exists()


@pytest.mark.parametrize("key,value,error", [
    ("layer_sizes", [2.9, 8, 4], "layer_sizes: 2.9 is not an integer"),
    ("layer_sizes", ["2", 8, 4], "layer_sizes: '2' is not an integer"),
    ("layer_sizes", [2, 0, 4], "layer_sizes must be positive, got [2, 0, 4]"),
    ("seed", True, "seed: True is not an integer"),
], ids=["fractional-size", "string-size", "zero-size", "boolean-seed"])
def test_checkpoint_non_integer_or_zero_size_exits_2_naming_the_file(
        data_csv, tmp_path, capsys, key, value, error):
    # the weights are those of a [2, 8, 4] net, which int() would have loaded
    checkpoint = tmp_path / "checkpoint.json"
    save_checkpoint(init_model([2, 8, 4], seed=0), checkpoint)
    doc = json.loads(checkpoint.read_text())
    doc[key] = value
    checkpoint.write_text(json.dumps(doc))
    out = tmp_path / "a"
    assert main(["analyze", "--data", str(data_csv), "--checkpoint", str(checkpoint),
                 "--out", str(out)]) == 2
    assert f"{checkpoint}: {error}" in capsys.readouterr().err
    assert not out.exists()
