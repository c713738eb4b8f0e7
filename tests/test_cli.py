import hashlib
import json
import os
import struct
from dataclasses import asdict, fields
from pathlib import Path

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
from labelforge import __version__, cli, dataio
from labelforge import train as train_module
from labelforge.dataio import (
    PARSED_SUFFIX,
    DataFormatError,
    Dataset,
    GaussianSpec,
    export_matrix_csv,
    file_sha256,
    generate_gaussian,
    read_table,
    save_csv,
)
from labelforge.labelreg import CMatrix, export_cmatrix
from labelforge.model import init_model, save_checkpoint
from labelforge.train import TrainConfig, evaluate


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    path = root / "data.csv"
    assert main(["gen-data", "--out", str(path), "--per-class", "40", "--seed", "5"]) == 0
    return path


def write_idx(tmp_path, name, labels, cols=2):
    """An IDX image/label pair of 1 x ``cols`` images, one per label."""
    images = tmp_path / f"{name}-img.idx"
    label_file = tmp_path / f"{name}-lab.idx"
    n = len(labels)
    images.write_bytes(struct.pack(">IIII", 0x803, n, 1, cols) + bytes(range(cols * n)))
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
        config = load_config(parse_config_file(path))
        assert config == TrainConfig()
        assert config.alpha == 0.1

    def test_comments_and_values(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# a comment\nalpha = 0.2\nepochs=12\nlayer_sizes=2,8,4\n")
        config = load_config(parse_config_file(path))
        assert config.alpha == 0.2
        assert config.epochs == 12
        assert config.layer_sizes == (2, 8, 4)

    def test_flag_overrides_file(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("alpha=0.2\n")
        args = build_parser().parse_args(["train", "--alpha", "0.3"])
        config = load_config({**parse_config_file(path), **_config_overrides(args)})
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
        config = load_config(parse_config_file(path))
        assert config.alpha == 0.25
        assert config.c_lr is None

    def test_bad_value_range_is_usage_error(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("alpha=0.9\n")
        with pytest.raises(UsageError):
            load_config({**parse_config_file(path), "alpha": 1.5})

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

    @pytest.mark.parametrize("name,text,error", [
        ("c.cfg", "epochs=1\nalpha=0.2\n# again\nepochs = 2\n",
         "config key 'epochs' is set twice: lines 1 and 4"),
        ("c.json", '{"epochs": 1, "alpha": 0.2, "epochs": 2}',
         "config key 'epochs' is set twice"),
    ], ids=["key-value", "json"])
    def test_key_set_twice_exits_2_without_a_run_directory(self, data_csv, tmp_path,
                                                           capsys, name, text, error):
        # the last value would otherwise win silently
        path = tmp_path / name
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
    ({"momentum": None}, "momentum"),
    ({"seed": None}, "seed"),
], ids=["fractional-size", "boolean-size", "string-size", "fractional-epochs",
        "string-epochs", "boolean-seed", "infinite-batch-size", "boolean-lr",
        "boolean-alpha", "string-lr", "string-bool", "integer-bool", "integer-strategy",
        "null-momentum", "null-seed"])
def test_json_config_non_integer_exits_2_without_a_run_directory(data_csv, tmp_path, capsys,
                                                               doc, key):
    # int() would truncate 8.7 to 8, read true as 1 and "1" as 1, and
    # overflow on Infinity (which Python's json reads); float() would read
    # true as 1.0, training at lr 1.0, and "0.5" as 0.5; bool() would read
    # "yes" and 1 as true, and str() 5 as "5"; null unsets only c_lr and layer_sizes
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"epochs": 1, **doc}))
    out = tmp_path / "run"
    assert run_train(data_csv, out, "--config", str(path)) == 2
    assert f"config key {key!r}: cannot parse" in capsys.readouterr().err
    assert not out.exists()


def test_json_config_null_unsets_only_c_lr_and_layer_sizes(data_csv, tmp_path, capsys):
    # the keys whose default is None; a flag for another key does not hide its null
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"momentum": None, "epochs": 1}))
    out = tmp_path / "bad"
    assert run_train(data_csv, out, "--config", str(path), "--momentum", "0.5") == 2
    assert "config key 'momentum': cannot parse None as float" in capsys.readouterr().err
    assert not out.exists()
    path.write_text(json.dumps({"c_lr": None, "layer_sizes": None, "epochs": 1}))
    out = tmp_path / "run"
    assert run_train(data_csv, out, "--config", str(path), "--c-lr", "0.3",
                     "--strategy", "lspp") == 0
    config = json.loads((out / "config.json").read_text())
    assert (config["c_lr"], config["layer_sizes"]) == (0.3, [2, 32, 4])


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
    assert getattr(load_config(parse_config_file(path)), key) == value
    flag = "--" + key.replace("_", "-")
    argv = ["train", flag] if isinstance(value, bool) else ["train", flag, text]
    args = build_parser().parse_args(argv)
    assert getattr(load_config(_config_overrides(args)), key) == value


class TestGenData:
    def test_writes_loadable_csv(self, data_csv):
        text = data_csv.read_text().splitlines()
        assert text[0] == "f0,f1,label"
        assert len(text) == 1 + 160

    def test_bad_means_rejected(self, tmp_path, capsys):
        code = main(["gen-data", "--out", str(tmp_path / "x.csv"), "--means", "oops"])
        assert code == 2
        assert "means" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,message", [
        (["--std", "inf"], "std must be"),
        (["--std", "nan"], "std must be"),
        (["--means=0,0;nan,1"], "means must be finite"),
        (["--means=0,0;1,-inf"], "means must be finite"),
        (["--std", "1e308"], "overflows float64"),
        (["--seed", "-1"], "seed must be in [0, 2**64)"),
        (["--seed", str(2 ** 64)], "seed must be in [0, 2**64)"),
    ])
    def test_non_finite_spec_exits_2_before_writing(self, tmp_path, capsys, flags,
                                                    message):
        out = tmp_path / "sub" / "x.csv"
        assert main(["gen-data", "--per-class", "5", *flags, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("means", ["0,0;;1,1", "0,0;1,1;", " ;0,0;1,1"])
    def test_empty_means_row_exits_2_before_any_draw(self, tmp_path, capsys,
                                                     monkeypatch, means):
        monkeypatch.setattr(cli, "generate_gaussian", None)  # a draw fails the test
        out = tmp_path / "sub" / "x.csv"
        assert main(["gen-data", "--per-class", "5", "--means", means,
                     "--out", str(out)]) == 2
        assert "--means" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_out_naming_a_directory_exits_2_before_any_draw(self, tmp_path, capsys,
                                                             monkeypatch):
        monkeypatch.setattr(cli, "generate_gaussian", None)
        out = tmp_path / "x.csv"
        out.mkdir()
        assert main(["gen-data", "--per-class", "5", "--out", str(out)]) == 2
        assert "is a directory" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [out]
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("name", ["f0", "f1", " label,x", "label "])
    def test_label_column_that_would_not_read_back_exits_2_before_writing(
            self, tmp_path, capsys, name):
        out = tmp_path / "sub" / "x.csv"
        code = main(["gen-data", "--per-class", "5", "--label-column", name,
                     "--out", str(out)])
        assert code == 2
        assert "would not read back" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestParsedSidecar:
    """gen-data keeps a data CSV's parsed table beside it, so that a
    command's load of those bytes reads it instead of the text."""

    def no_parse(self, *_):
        raise AssertionError("parsed the CSV text")

    def test_second_run_reads_the_sidecar_and_writes_the_same_bytes(self, tmp_path,
                                                                     monkeypatch):
        data = tmp_path / "data.csv"
        sidecar = tmp_path / ("data.csv" + PARSED_SUFFIX)
        assert main(["gen-data", "--per-class", "20", "--out", str(data)]) == 0
        assert sidecar.is_file()  # gen-data pre-fills it
        argv = ["train", "--data", str(data), "--epochs", "2"]
        assert main([*argv, "--out", str(tmp_path / "r1")]) == 0
        assert sidecar.is_file()
        monkeypatch.setattr(dataio, "read_table", self.no_parse)
        assert main([*argv, "--out", str(tmp_path / "r2")]) == 0
        for name in ("metrics.csv", "checkpoint.json"):
            assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()

    def test_train_on_the_gen_data_sidecar_matches_a_train_that_parses(self, tmp_path,
                                                                      monkeypatch):
        data = tmp_path / "data.csv"
        assert main(["gen-data", "--per-class", "20", "--out", str(data)]) == 0
        argv = ["train", "--data", str(data), "--epochs", "2", "--strategy", "lspp"]
        with monkeypatch.context() as patch:
            patch.setattr(dataio, "read_table", self.no_parse)
            assert main([*argv, "--out", str(tmp_path / "prefilled")]) == 0
        (tmp_path / ("data.csv" + PARSED_SUFFIX)).unlink()
        assert main([*argv, "--out", str(tmp_path / "parsed")]) == 0
        for name in ("metrics.csv", "checkpoint.json"):
            assert ((tmp_path / "prefilled" / name).read_bytes()
                    == (tmp_path / "parsed" / name).read_bytes())

    def test_wrong_label_column_on_a_hit_exits_2_with_the_parse_message(
            self, data_csv, tmp_path, monkeypatch, capsys):
        with pytest.raises(DataFormatError) as parse_error:
            read_table(data_csv, "target")
        assert run_train(data_csv, tmp_path / "r1") == 0
        monkeypatch.setattr(dataio, "read_table", self.no_parse)
        out = tmp_path / "r2"
        assert run_train(data_csv, out, "--label-column", "target") == 2
        assert capsys.readouterr().err == f"labelforge: {parse_error.value}\n"
        assert not out.exists()


class TestInputHashes:
    """A command hashes each data CSV once, as it loads it, and its manifest
    records the sha256 of the bytes loaded."""

    @pytest.fixture
    def teacher(self, data_csv, tmp_path_factory):
        run_dir = tmp_path_factory.mktemp("teacher") / "run"
        assert run_train(data_csv, run_dir, "--strategy", "lspp", "--epochs", "2") == 0
        return run_dir

    @pytest.mark.parametrize("command", ["train", "distill", "analyze"])
    def test_each_data_file_is_hashed_once(self, data_csv, teacher, tmp_path, monkeypatch,
                                           command):
        test_csv = tmp_path / "test.csv"
        test_csv.write_bytes(data_csv.read_bytes())  # other path, same bytes
        hashed = []

        def counting_sha256(path):
            hashed.append(str(path))
            return file_sha256(path)
        monkeypatch.setattr(dataio, "file_sha256", counting_sha256)
        monkeypatch.setattr(cli, "file_sha256", counting_sha256)
        out = tmp_path / "out"
        flags = {
            "train": ["--epochs", "1"],
            "distill": ["--epochs", "1", "--teacher-checkpoint",
                        str(teacher / "checkpoint.json")],
            "analyze": ["--checkpoint", str(teacher / "checkpoint.json")],
        }[command]
        assert main([command, "--data", str(data_csv), "--test-data", str(test_csv),
                     *flags, "--out", str(out)]) == 0
        assert hashed.count(str(data_csv)) == 1
        assert hashed.count(str(test_csv)) == 1
        inputs = json.loads((out / "manifest.json").read_text())["inputs"]
        for name, path in (("data", data_csv), ("test_data", test_csv)):
            assert inputs[name] == {
                "path": str(path), "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}


def test_ctrl_c_exits_130_with_one_line(data_csv, tmp_path, monkeypatch, capsys):
    calls = []

    def interrupted_evaluate(model, dataset):
        calls.append(dataset)
        if len(calls) == 5:  # the first of epoch 3's two evaluations
            raise KeyboardInterrupt
        return evaluate(model, dataset)
    monkeypatch.setattr(train_module, "evaluate", interrupted_evaluate)
    out = tmp_path / "run"
    assert run_train(data_csv, out) == 130
    assert capsys.readouterr().err == "labelforge: interrupted\n"
    assert len(calls) == 5
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


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
                                            ("--weight-decay", "-0.1"),
                                            ("--weight-decay", "inf")])
    def test_optimizer_out_of_range_exits_2(self, data_csv, tmp_path, capsys, flag, value):
        out = tmp_path / "bad"
        assert run_train(data_csv, out, flag, value) == 2
        assert flag[2:].replace("-", "_") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [("--lr", "nan"), ("--lr", "inf"),
                                            ("--c-lr", "inf"), ("--c-lr", "nan")])
    def test_non_finite_learning_rate_exits_2_before_the_run_directory(
            self, data_csv, tmp_path, capsys, flag, value):
        out = tmp_path / "bad"
        assert run_train(data_csv, out, "--strategy", "lspp", flag, value) == 2
        assert f"{flag[2:].replace('-', '_')} must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sizes,message", [
        ("2,0,4", "must be positive"), ("2,-32,4", "must be positive"),
        ("2", "need at least input and output"),
        # a list takes every comma-separated part, and an empty one is no size
        ("2,,8,,2", "config key 'layer_sizes'"), ("2,8,2,", "config key 'layer_sizes'"),
    ])
    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_bad_layer_sizes_exit_2_before_the_run_directory(self, tmp_path, capsys,
                                                             sizes, message, source):
        # 2 features and 2 classes, so the single size "2" matches both ends
        data = tmp_path / "d.csv"
        assert main(["gen-data", "--means", "0,0;5,5", "--per-class", "10",
                     "--out", str(data)]) == 0
        config = tmp_path / "c.cfg"
        config.write_text(f"layer_sizes={sizes}\n")
        out = tmp_path / "bad"
        flags = ("--layer-sizes", sizes) if source == "flag" else ("--config", str(config))
        assert run_train(data, out, *flags) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [("--seed", "-1"), ("--seed", str(2 ** 64)),
                                            ("--split-seed", "-1"),
                                            ("--split-seed", str(2 ** 64 + 3))])
    def test_seed_outside_the_64_bit_range_exits_2_before_the_run_directory(
            self, data_csv, tmp_path, capsys, flag, value):
        out = tmp_path / "bad"
        assert run_train(data_csv, out, flag, value) == 2
        assert "seed must be in [0, 2**64)" in capsys.readouterr().err
        assert not out.exists()

    def test_largest_seed_trains(self, data_csv, tmp_path):
        out = tmp_path / "run"
        assert run_train(data_csv, out, "--seed", str(2 ** 64 - 1), "--epochs", "1") == 0
        assert json.loads((out / "config.json").read_text())["seed"] == 2 ** 64 - 1

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

    @pytest.mark.parametrize("empty", ["train", "test"])
    def test_idx_pair_without_images_exits_2(self, tmp_path, capsys, empty):
        pairs = {name: write_idx(tmp_path, name, [] if name == empty else [0, 1, 0, 1])
                 for name in ("train", "test")}
        out = tmp_path / "run"
        argv = ["train", "--idx-images", str(pairs["train"][0]), "--idx-labels",
                str(pairs["train"][1]), "--test-idx-images", str(pairs["test"][0]),
                "--test-idx-labels", str(pairs["test"][1]), "--epochs", "1",
                "--out", str(out)]
        assert main(argv) == 2
        assert f"{pairs[empty][1]}: no labels" in capsys.readouterr().err
        assert not out.exists()

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

    def test_idx_test_set_of_another_width_exits_2(self, tmp_path, capsys):
        images, labels = write_idx(tmp_path, "train", [0, 1, 2, 0, 1, 2])
        test_images, test_labels = write_idx(tmp_path, "test", [2, 1, 0], cols=3)
        out = tmp_path / "run"
        argv = ["train", "--idx-images", str(images), "--idx-labels", str(labels),
                "--test-idx-images", str(test_images), "--test-idx-labels",
                str(test_labels), "--epochs", "1", "--out", str(out)]
        assert main(argv) == 2
        assert (f"{test_images}: test data has 3 features, the training data {images} "
                f"has 2") in capsys.readouterr().err
        assert not out.exists()

    def test_test_data_of_another_width_exits_2(self, tmp_path, capsys):
        train_csv, test_csv = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["gen-data", "--per-class", "10", "--out", str(train_csv)]) == 0
        assert main(["gen-data", "--per-class", "10", "--means", "0,0,0;1,0,0;9,9,9;9,9,8",
                     "--out", str(test_csv)]) == 0
        capsys.readouterr()
        before = sorted(tmp_path.iterdir())
        argv = ["train", "--data", str(train_csv), "--test-data", str(test_csv),
                "--epochs", "1", "--out", str(tmp_path / "run")]
        assert main(argv) == 2
        assert (f"{test_csv}: test data has 3 features, the training data {train_csv} "
                f"has 2") in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before

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


class TestDataSides:
    """Each side of a run's data is a CSV or an IDX pair, in either format
    whatever the other side's; any other use of the data flags exits 2
    before a file is read or written."""

    REJECTED = {
        "train-images-alone": (["--idx-images", "{img}"],
                               "pass both --idx-images and --idx-labels or neither"),
        "train-labels-alone": (["--idx-labels", "{lab}"],
                               "pass both --idx-images and --idx-labels or neither"),
        "test-images-alone": (["--data", "{csv}", "--test-idx-images", "{img}"],
                              "pass both --test-idx-images and --test-idx-labels or neither"),
        "test-labels-alone": (["--data", "{csv}", "--test-idx-labels", "{lab}"],
                              "pass both --test-idx-images and --test-idx-labels or neither"),
        "train-csv-and-idx": (["--data", "{csv}", "--idx-images", "{img}", "--idx-labels",
                               "{lab}"],
                              "pass --data or --idx-images/--idx-labels, not both"),
        "test-csv-and-idx": (["--data", "{csv}", "--test-data", "{csv}", "--test-idx-images",
                              "{img}", "--test-idx-labels", "{lab}"],
                             "pass --test-data or --test-idx-images/--test-idx-labels, not both"),
        "train-fraction-with-test": (["--data", "{csv}", "--test-data", "{csv}",
                                      "--train-fraction", "0.5"],
                                     "--train-fraction splits the training data, but a test "
                                     "set is given"),
        "split-seed-with-test": (["--idx-images", "{img}", "--idx-labels", "{lab}",
                                  "--test-data", "{csv}", "--split-seed", "0"],
                                 "--split-seed splits the training data, but a test set "
                                 "is given"),
        "label-column-without-csv": (["--idx-images", "{img}", "--idx-labels", "{lab}",
                                      "--label-column", "label"],
                                     "--label-column names a CSV column, but no side is a CSV"),
        "test-side-alone": (["--test-data", "{csv}"], "no input data"),
    }

    @staticmethod
    def inputs(tmp_path, train_labels=(0, 1, 2, 0, 1, 2)):
        """A 3-class CSV of 2 features (without a parsed sidecar, so that
        a load parses it) and an IDX pair of 1 x 2 images."""
        csv = tmp_path / "d.csv"
        csv.write_text("f0,f1,label\n" + "".join(
            f"{i},{i % 3 * 10},{i % 3}\n" for i in range(9)))
        img, lab = write_idx(tmp_path, "train", list(train_labels))
        return csv, img, lab

    @pytest.mark.parametrize("command", ["train", "ablate", "distill", "analyze"])
    @pytest.mark.parametrize("case", list(REJECTED))
    def test_flags_that_do_not_name_one_source_per_side_exit_2_before_any_read(
            self, tmp_path, capsys, command, case):
        csv, img, lab = self.inputs(tmp_path)
        checkpoint = tmp_path / "checkpoint.json"
        save_checkpoint(init_model([2, 4, 3], seed=0), checkpoint)
        (tmp_path / ("checkpoint.json" + PARSED_SUFFIX)).unlink()
        flags, message = self.REJECTED[case]
        paths = {"csv": csv, "img": img, "lab": lab}
        extra = {"distill": ["--teacher-checkpoint", str(checkpoint)],
                 "analyze": ["--checkpoint", str(checkpoint)]}.get(command, [])
        before = sorted(tmp_path.rglob("*"))
        out = tmp_path / "run"
        argv = [command, *(flag.format(**paths) for flag in flags), *extra, "--out", str(out)]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("train_side, test_side", [("idx", "csv"), ("csv", "idx")])
    def test_either_format_on_either_side_trains_and_records_both(
            self, tmp_path, monkeypatch, train_side, test_side):
        csv, img, lab = self.inputs(tmp_path)
        flags = {
            "csv": lambda side: [f"--{side}data", str(csv)],
            "idx": lambda side: [f"--{side}idx-images", str(img), f"--{side}idx-labels",
                                 str(lab)],
        }
        seen = []
        monkeypatch.setattr(cli, "train", lambda *a: seen.append(a) or train_module.train(*a))
        out = tmp_path / "run"
        argv = ["train", *flags[train_side](""), *flags[test_side]("test-"),
                "--epochs", "1", "--out", str(out)]
        assert main(argv) == 0
        _, train_set, test_set, _ = seen[0]
        assert (len(train_set), len(test_set)) == ((6, 9) if train_side == "idx" else (9, 6))
        assert test_set.labels.tolist() == [0, 1, 2] * (len(test_set) // 3)
        names = {"csv": ["data"], "idx": ["idx_images", "idx_labels"]}
        paths = {"data": csv, "idx_images": img, "idx_labels": lab}
        inputs = json.loads((out / "manifest.json").read_text())["inputs"]
        assert inputs == {
            side + name: {"path": str(paths[name]), "sha256": file_sha256(paths[name])}
            for side, fmt in (("", train_side), ("test_", test_side)) for name in names[fmt]}

    def test_test_labels_take_the_classes_of_the_training_labels_across_formats(
            self, tmp_path, monkeypatch):
        # IDX labels 3, 5, 9 are classes 0, 1, 2; the CSV spells them 9, 3.0, 5
        csv, img, lab = self.inputs(tmp_path, train_labels=[9, 3, 5, 3, 5, 9])
        csv.write_text("f0,f1,label\n1,2,9\n3,4,3.0\n5,6,5\n")
        seen = []
        monkeypatch.setattr(cli, "train", lambda *a: seen.append(a) or train_module.train(*a))
        argv = ["train", "--idx-images", str(img), "--idx-labels", str(lab), "--test-data",
                str(csv), "--epochs", "1", "--out", str(tmp_path / "run")]
        assert main(argv) == 0
        _, train_set, test_set, _ = seen[0]
        assert train_set.labels.tolist() == [2, 0, 1, 0, 1, 2]
        assert test_set.labels.tolist() == [2, 0, 1]

    def test_idx_labels_that_skip_a_value_train_on_dense_classes(self, tmp_path):
        images, labels = write_idx(tmp_path, "train", [0, 2, 0, 2, 0, 2, 0, 2])
        out = tmp_path / "run"
        argv = ["train", "--idx-images", str(images), "--idx-labels", str(labels),
                "--epochs", "1", "--out", str(out)]
        assert main(argv) == 0
        assert json.loads((out / "config.json").read_text())["layer_sizes"][-1] == 2


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
                                                              monkeypatch, capsys, teacher,
                                                              error):
        if isinstance(teacher, CMatrix):
            flag, path = "--teacher-cmatrix", tmp_path / "cmatrix.csv"
            export_cmatrix(teacher, path)

            def no_read(*_):
                raise AssertionError("read the data")
            # the table's alpha is checked as the student's before the data is read
            monkeypatch.setattr(dataio, "read_table", no_read)
            monkeypatch.setattr(cli, "load_csv", no_read)
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
        ("distill", ["--teacher-checkpoint", None, "--ols-mix", "0.2"],
         "strategy 'distill' does not read ols_mix, got ols_mix=0.2"),
        ("train", ["--strategy", "onehot", "--ablation-loss", "ce"],
         "strategy 'onehot' does not read ablation_loss, got ablation_loss='ce'"),
        ("train", ["--strategy", "ls", "--ols-correct-only"],
         "strategy 'ls' does not read ols_correct_only, got ols_correct_only=True"),
    ], ids=["distill-ols-mix", "onehot-ablation-loss", "ls-ols-correct-only"])
    def test_key_the_strategy_does_not_read_exits_2_without_a_run_directory(
            self, data_csv, tmp_path, capsys, command, flags, error):
        teachers = {"--teacher-cmatrix": tmp_path / "cmatrix.csv",
                    "--teacher-checkpoint": tmp_path / "checkpoint.json"}
        export_cmatrix(CMatrix.zeros(4, 0.1), teachers["--teacher-cmatrix"])
        save_checkpoint(init_model([2, 8, 4], seed=0), teachers["--teacher-checkpoint"])
        argv = [str(teachers[flags[0]]) if flag is None else flag for flag in flags]
        out = tmp_path / "run"
        assert main([command, "--data", str(data_csv), *argv, "--out", str(out)]) == 2
        assert error in capsys.readouterr().err
        assert not out.exists()

    def test_proxy_student_records_its_teacher_alpha(self, tmp_path, monkeypatch, capsys):
        data = tmp_path / "data.csv"
        assert main(["gen-data", "--per-class", "30", "--out", str(data)]) == 0
        teacher = tmp_path / "teacher"
        assert main(["train", "--data", str(data), "--strategy", "lspp", "--alpha", "0.3",
                     "--epochs", "2", "--out", str(teacher)]) == 0
        argv = ["distill", "--data", str(data), "--teacher-cmatrix",
                str(teacher / "cmatrix.csv"), "--epochs", "2"]
        for name, extra in (("implied", []), ("explicit", ["--alpha", "0.3"])):
            assert main([*argv, *extra, "--out", str(tmp_path / name)]) == 0
            config = json.loads((tmp_path / name / "config.json").read_text())
            manifest = json.loads((tmp_path / name / "manifest.json").read_text())
            assert config["alpha"] == manifest["config"]["alpha"] == 0.3
        assert ((tmp_path / "implied/metrics.csv").read_bytes()
                == (tmp_path / "explicit/metrics.csv").read_bytes())
        # an alpha set against the table's, by a flag or the config file,
        # exits 2 before the data is read
        config_file = tmp_path / "student.cfg"
        config_file.write_text("alpha=0.1\n")

        def no_read(*_):
            raise AssertionError("read the data")
        monkeypatch.setattr(dataio, "read_table", no_read)
        monkeypatch.setattr(cli, "load_csv", no_read)
        for extra in (["--alpha", "0.1"], ["--config", str(config_file)]):
            out = tmp_path / "disagrees"
            assert main([*argv, *extra, "--out", str(out)]) == 2
            assert ("strategy 'proxy_distill' trains at its teacher table's alpha 0.3, "
                    "got alpha=0.1") in capsys.readouterr().err
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


    def test_config_file_strategy_is_replaced(self, data_csv, tmp_path):
        # a run's own config.json, and a file naming another strategy
        first = tmp_path / "first"
        assert main(["ablate", "--data", str(data_csv), "--epochs", "2",
                     "--out", str(first)]) == 0
        other = tmp_path / "other.cfg"
        other.write_text("strategy=onehot\nepochs=2\n")
        for name, config in (("again", first / "config.json"), ("other", other)):
            assert main(["ablate", "--data", str(data_csv), "--config", str(config),
                         "--out", str(tmp_path / name)]) == 0
            assert ((tmp_path / name / "config.json").read_bytes()
                    == (first / "config.json").read_bytes())


@pytest.mark.parametrize("command,teacher,strategy,given", [
    ("ablate", None, "ablation", "onehot"),
    ("ablate", None, "ablation", "ablation"),
    ("distill", "--teacher-cmatrix", "proxy_distill", "ls"),
    ("distill", "--teacher-checkpoint", "distill", "lspp"),
])
def test_strategy_flag_of_a_command_that_picks_it_exits_2_without_a_run_directory(
        data_csv, tmp_path, capsys, command, teacher, strategy, given):
    teachers = {"--teacher-cmatrix": tmp_path / "cmatrix.csv",
                "--teacher-checkpoint": tmp_path / "checkpoint.json"}
    export_cmatrix(CMatrix.zeros(4, 0.1), teachers["--teacher-cmatrix"])
    save_checkpoint(init_model([2, 8, 4], seed=0), teachers["--teacher-checkpoint"])
    argv = [teacher, str(teachers[teacher])] if teacher else []
    out = tmp_path / "run"
    assert main([command, "--data", str(data_csv), *argv, "--strategy", given,
                 "--epochs", "1", "--out", str(out)]) == 2
    assert (f"{command} trains strategy {strategy!r}; --strategy {given!r} cannot "
            "change it") in capsys.readouterr().err
    assert not out.exists()



@pytest.fixture
def teachers(tmp_path):
    """A [2, 8, 4] checkpoint and a zero-logit K = 4 table at alpha 0.2, with
    its sidecar, that fit the data_csv task."""
    checkpoint, table = tmp_path / "checkpoint.json", tmp_path / "cmatrix.csv"
    save_checkpoint(init_model([2, 8, 4], seed=0), checkpoint)
    export_cmatrix(CMatrix.zeros(4, 0.2), table)
    return checkpoint, table


def resolved_doc(**fields):
    """The manifest's config: a resolved TrainConfig for the data_csv task,
    as JSON reads it back."""
    return json.loads(json.dumps(asdict(TrainConfig(**fields).resolved(2, 4))))


@pytest.mark.parametrize("command", [
    "train --config", "ablate", "distill --teacher-checkpoint",
    "distill --teacher-cmatrix", "analyze --cmatrix",
])
def test_manifest_records_the_subcommand_config_and_inputs(data_csv, tmp_path, teachers,
                                                           command):
    checkpoint, table = teachers
    table_json = table.with_suffix(".json")  # alpha and num_classes, read with the table
    config_file = tmp_path / "run.cfg"
    config_file.write_text("strategy=ols\nepochs=2\nols_mix=0.3\n")
    argv, config, inputs = {
        "train --config": (
            ["train", "--config", str(config_file), "--seed", "1"],
            resolved_doc(strategy="ols", epochs=2, ols_mix=0.3, seed=1),
            {"config": config_file}),
        "ablate": (
            ["ablate", "--epochs", "1", "--ablation-loss", "ce"],
            resolved_doc(strategy="ablation", epochs=1, ablation_loss="ce"), {}),
        "distill --teacher-checkpoint": (
            ["distill", "--teacher-checkpoint", str(checkpoint), "--epochs", "1"],
            resolved_doc(strategy="distill", epochs=1), {"teacher_checkpoint": checkpoint}),
        "distill --teacher-cmatrix": (
            ["distill", "--teacher-cmatrix", str(table), "--epochs", "1"],
            resolved_doc(strategy="proxy_distill", alpha=0.2, epochs=1),
            {"teacher_cmatrix": table, "teacher_cmatrix_json": table_json}),
        "analyze --cmatrix": (
            ["analyze", "--checkpoint", str(checkpoint), "--cmatrix", str(table)],
            {}, {"checkpoint": checkpoint, "cmatrix": table, "cmatrix_json": table_json}),
    }[command]
    out = tmp_path / "run"
    assert main([*argv, "--data", str(data_csv), "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text()) == {
        "subcommand": argv[0],
        "config": config,
        "inputs": {name: {"path": str(path), "sha256": file_sha256(path)}
                   for name, path in {"data": data_csv, **inputs}.items()},
        "output_dir": str(out),
        "tool_version": __version__,
    }


@pytest.mark.parametrize("command", ["train", "ablate", "distill", "analyze"])
def test_out_naming_a_file_exits_2_naming_it_before_any_write(data_csv, tmp_path, capsys,
                                                              teachers, command):
    checkpoint, _ = teachers
    flags = {"train": ["--epochs", "1"], "ablate": ["--epochs", "1"],
             "distill": ["--teacher-checkpoint", str(checkpoint), "--epochs", "1"],
             "analyze": ["--checkpoint", str(checkpoint)]}[command]
    out = tmp_path / "taken"
    out.write_text("keep\n")
    before = sorted(tmp_path.iterdir())
    assert main([command, "--data", str(data_csv), *flags, "--out", str(out)]) == 2
    assert f"--out {str(out)!r} is not a directory" in capsys.readouterr().err
    assert out.read_text() == "keep\n"
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("command", ["train", "distill", "analyze"])
@pytest.mark.parametrize("where", ["out-file", "out-below-a-file", "out-not-empty",
                                   "env-file", "env-below-a-file"])
def test_unusable_output_location_exits_2_before_any_load_writes(tmp_path, monkeypatch,
                                                                 capsys, where, command):
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    data, checkpoint = inputs / "data.csv", inputs / "checkpoint.json"
    assert main(["gen-data", "--per-class", "10", "--out", str(data)]) == 0
    save_checkpoint(init_model([2, 8, 4], seed=0), checkpoint)
    for path in (data, checkpoint):  # so that a load would parse them
        (inputs / (path.name + PARSED_SUFFIX)).unlink()
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    location = taken / "run" if where.endswith("below-a-file") else taken
    if where == "out-not-empty":
        location = tmp_path / "full"
        location.mkdir()
        (location / "other.txt").write_text("keep\n")
    if where.startswith("env"):
        monkeypatch.setenv("LABELFORGE_OUT", str(location))
        out = []
    else:
        out = ["--out", str(location)]
    flags = {"train": ["--epochs", "1"],
             "distill": ["--teacher-checkpoint", str(checkpoint), "--epochs", "1"],
             "analyze": ["--checkpoint", str(checkpoint)]}[command]
    before = sorted(tmp_path.rglob("*"))
    assert main([command, "--data", str(data), *flags, *out]) == 2
    err = capsys.readouterr().err
    flag = "LABELFORGE_OUT" if where.startswith("env") else "--out"
    assert {
        "out-not-empty": f"output directory {location} already exists and is not empty",
        "out-file": f"{flag} {str(taken)!r} is not a directory",
        "env-file": f"{flag} {str(taken)!r} is not a directory",
    }.get(where, f"{flag} {str(location)!r} lies below {str(taken)!r}, which is not "
                 f"a directory") in err
    assert sorted(tmp_path.rglob("*")) == before
    assert sorted(os.listdir(inputs)) == ["checkpoint.json", "data.csv"]


@pytest.mark.parametrize("argv,message", [
    (["train", "--layer-sizes", "2,0,4"], "layer_sizes must be positive, got [2, 0, 4]"),
    (["train", "--config", "{config}"], "epochs must be nonnegative, got -1"),
    (["train", "--strategy", "distill"], "strategy 'distill' needs a teacher"),
    (["distill", "--teacher-checkpoint", "{checkpoint}", "--lr", "-1"],
     "lr must be positive and finite, got -1.0"),
    (["distill", "--teacher-cmatrix", "{table}", "--config", "{config}"],
     "epochs must be nonnegative, got -1"),
    (["distill"], "pass exactly one of --teacher-checkpoint / --teacher-cmatrix"),
    (["distill", "--teacher-checkpoint", "{checkpoint}", "--teacher-cmatrix", "{table}"],
     "pass exactly one of --teacher-checkpoint / --teacher-cmatrix"),
], ids=["layer-sizes", "config-file", "needs-a-teacher", "distill-lr",
        "proxy-distill-config-file", "no-teacher", "two-teachers"])
def test_config_is_checked_before_the_data_is_read(tmp_path, monkeypatch, capsys, argv,
                                                    message):
    def no_read(*_):
        raise AssertionError("read an input")

    config = tmp_path / "bad.cfg"
    config.write_text("epochs=-1\n")
    checkpoint, table = tmp_path / "checkpoint.json", tmp_path / "cmatrix.csv"
    save_checkpoint(init_model([2, 8, 4], seed=0), checkpoint)
    export_cmatrix(CMatrix.zeros(4, 0.1), table)
    for module, name in ((dataio, "read_table"), (cli, "load_csv"),
                         (cli, "load_checkpoint"), (cli, "load_cmatrix")):
        monkeypatch.setattr(module, name, no_read)
    out = tmp_path / "run"
    argv = [flag.format(config=config, checkpoint=checkpoint, table=table) for flag in argv]
    assert main([*argv, "--data", str(tmp_path / "d.csv"), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def snapshot(root) -> dict:
    """Every path below ``root``, relative to it, with its bytes (None for a
    directory)."""
    return {path.relative_to(root): None if path.is_dir() else path.read_bytes()
            for path in root.rglob("*")}


def test_no_command_writes_outside_its_own_outputs(tmp_path, capsys):
    # inputs without sidecars: hand-written CSVs of 2 and 3 features and a
    # teacher directory whose checkpoint's sidecar was deleted
    data, wide = tmp_path / "data.csv", tmp_path / "wide.csv"
    data.write_text("f0,f1,label\n" + "".join(
        f"{c + i / 10},{2 * c - i / 10},{c}\n" for c in range(4) for i in range(5)))
    wide.write_text("f0,f1,f2,label\n" + "".join(
        f"{c},{i},{c - i},{c}\n" for c in range(4) for i in range(5)))
    teacher = tmp_path / "teacher"
    teacher.mkdir()
    checkpoint, table = teacher / "checkpoint.json", teacher / "cmatrix.csv"
    save_checkpoint(init_model([2, 8, 4], seed=0), checkpoint)
    (teacher / ("checkpoint.json" + PARSED_SUFFIX)).unlink()
    export_cmatrix(CMatrix.zeros(4, 0.2), table)
    teacher_files = snapshot(teacher)
    train = ["--data", str(data), "--epochs", "1"]
    by_checkpoint = ["--teacher-checkpoint", str(checkpoint)]
    analyze = ["--checkpoint", str(checkpoint), "--cmatrix", str(table)]
    # every command once to exit 0 and once to exit 2, after its loads where
    # the flag allows it
    runs = [
        (0, ["train", *train], ""),
        (2, ["train", *train, "--layer-sizes", "2,0,4"], "layer_sizes must be positive"),
        (0, ["ablate", *train], ""),
        (2, ["ablate", *train, "--test-data", str(wide)], "test data has 3 features"),
        (0, ["distill", *train, *by_checkpoint], ""),
        (2, ["distill", *train, *by_checkpoint, "--lr", "-1"], "lr must be positive"),
        (0, ["distill", *train, "--teacher-cmatrix", str(table)], ""),
        (2, ["distill", *train, "--teacher-cmatrix", str(table), "--alpha", "0.3"],
         "trains at its teacher table's alpha 0.2"),
        (0, ["analyze", "--data", str(data), *analyze], ""),
        (2, ["analyze", "--data", str(wide), *analyze], "the data has 3 features"),
    ]
    for i, (code, argv, message) in enumerate(runs):
        out = tmp_path / "runs" / str(i)
        before = snapshot(tmp_path)
        assert main([*argv, "--out", str(out)]) == code, argv
        assert message in capsys.readouterr().err
        after = snapshot(tmp_path)
        assert {path: after.get(path) for path in before} == before, argv
        new = {tmp_path / path for path in set(after) - set(before)}
        assert new <= {out.parent, out, *out.rglob("*")}, argv
        assert out.is_dir() == (code == 0), argv
    for code, argv in ((0, ["--per-class", "5"]), (2, ["--std", "1e308"])):
        before = snapshot(tmp_path)
        assert main(["gen-data", *argv, "--out", str(tmp_path / "gen.csv")]) == code
        new = set(snapshot(tmp_path)) - set(before)
        assert new == ({Path("gen.csv"), Path("gen.csv" + PARSED_SUFFIX)} if code == 0
                       else set())
    before = snapshot(tmp_path)
    assert main(["gradcheck", "--k", "3"]) == 0
    assert main(["gradcheck", "--k", "1"]) == 2
    assert snapshot(tmp_path) == before
    assert snapshot(teacher) == teacher_files


@pytest.mark.parametrize("command", ["distill", "analyze"])
def test_cmatrix_export_cmatrix_could_not_write_exits_2_without_a_run_directory(
        data_csv, tmp_path, capsys, teachers, command):
    # a table of class-mean probabilities, as analyze writes: mass on the diagonal
    checkpoint, table = teachers
    export_matrix_csv(np.full((4, 4), 0.25), table)
    flags = {"distill": ["--teacher-cmatrix", str(table), "--epochs", "1"],
             "analyze": ["--checkpoint", str(checkpoint), "--cmatrix", str(table)]}[command]
    out = tmp_path / "run"
    assert main([command, "--data", str(data_csv), *flags, "--out", str(out)]) == 2
    assert (f"{table}: class row 0 is not a probability row around a zero diagonal: "
            "diagonal 0.25") in capsys.readouterr().err
    assert not out.exists()


def test_default_names_in_one_second_get_their_own_directories(data_csv, tmp_path,
                                                               monkeypatch):
    root = tmp_path / "root"
    monkeypatch.setenv("LABELFORGE_OUT", str(root))
    monkeypatch.setattr(cli.time, "time", lambda: 1700000000.75)
    argv = ["train", "--data", str(data_csv), "--epochs", "0", "--seed", "4"]
    assert main(argv) == 0
    assert main(argv) == 0
    runs = sorted(root.iterdir())
    assert [run.name for run in runs] == ["train-4-1700000000", "train-4-1700000000-1"]
    for run in runs:
        assert sorted(f.name for f in run.iterdir()) == [
            "checkpoint.json", "checkpoint.json.parsed.npz", "config.json", "manifest.json",
            "metrics.csv", "report.json"]
        assert json.loads((run / "manifest.json").read_text())["output_dir"] == str(run)


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
        ("--layers", "8,,8"), ("--seed", "-1"), ("--seed", str(2 ** 64)),
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
