"""Bit-exact text I/O.

Every artifact writer must produce the bytes of the csv-module / json.dump
code it replaced, and load_csv must return the arrays, labels and mapping of
the csv.reader + float() loader it replaced, with the same errors. Those
implementations are kept here as the oracles.
"""

import csv
import json
import math
import warnings
from dataclasses import asdict

import numpy as np
import pytest

from labelforge.analysis import export_matrix_csv
from labelforge.dataio import DataFormatError, Dataset, load_csv, save_csv, write_json
from labelforge.labelreg import CMatrix, export_cmatrix
from labelforge.model import Mlp, save_checkpoint
from labelforge.train import EpochStats, TrainConfig, TrainReport, write_metrics_csv

EDGE_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.225073858507201e-308,
    2.2250738585072014e-308, 1e16, 9.999999999999999e15, 1e-5, 1e-4, 0.1,
    1.0 / 3.0, 1e22, 1e23, 123456789.125, -2.5e-7,
    1.7976931348623157e308, -1.7976931348623157e308,
]


def edge_and_random(count: int, seed: int) -> np.ndarray:
    """The edge values, then random values with exponents from -300 to 300."""
    rng = np.random.default_rng(seed)
    n = count - len(EDGE_VALUES)
    mantissa = rng.uniform(1.0, 10.0, n) * rng.choice([-1.0, 1.0], n)
    values = mantissa * 10.0 ** rng.integers(-300, 301, n).astype(np.float64)
    return np.concatenate([EDGE_VALUES, values])


def csv_module_write(path, header, rows) -> None:
    """The writer every CSV artifact used before: csv.writer, cells given as
    the callers built them (repr(float(v)) for floats)."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def csv_module_load(path, label_column):
    """The csv.reader + float() loader load_csv replaced, returning
    (features, labels, mapping)."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file") from None
        header = [name.strip() for name in header]
        if label_column not in header:
            raise DataFormatError(
                f"{path}: no column named {label_column!r} in header {header}"
            )
        label_idx = header.index(label_column)
        feature_idx = [i for i in range(len(header)) if i != label_idx]
        rows, raw_labels, line_numbers = [], [], []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataFormatError(
                    f"{path}:{line_no}: expected {len(header)} cells, got {len(row)}"
                )
            try:
                values = [float(row[i]) for i in feature_idx]
                raw_labels.append(float(row[label_idx]))
            except ValueError as exc:
                raise DataFormatError(f"{path}:{line_no}: non-numeric cell ({exc})") from None
            rows.append(values)
            line_numbers.append(line_no)
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    features = np.asarray(rows, dtype=np.float64)
    finite = np.isfinite(features).all(axis=1) & np.isfinite(raw_labels)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise DataFormatError(f"{path}:{line_numbers[bad]}: non-finite cell (NaN or Inf)")
    mapping = {}
    labels = np.empty(len(raw_labels), dtype=np.int64)
    for i, value in enumerate(raw_labels):
        key = int(value) if value == int(value) else value
        if key not in mapping:
            mapping[key] = len(mapping)
        labels[i] = mapping[key]
    return features, labels, mapping


def json_module_write(path, doc) -> None:
    """The block each JSON artifact writer held before write_json."""
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def assert_same_bytes(new_path, oracle_path):
    assert new_path.read_bytes() == oracle_path.read_bytes()


def assert_loads_like_oracle(path, label_column="label"):
    dataset, mapping = load_csv(path, label_column)
    features, labels, oracle_mapping = csv_module_load(path, label_column)
    assert dataset.features.flags.c_contiguous
    assert dataset.features.shape == features.shape
    assert dataset.features.tobytes() == features.tobytes()
    assert dataset.labels.tolist() == labels.tolist()
    assert [(k, type(k), v) for k, v in mapping.items()] == [
        (k, type(k), v) for k, v in oracle_mapping.items()
    ]
    return dataset


class TestWritersMatchCsvModule:
    def test_save_csv(self, tmp_path):
        features = edge_and_random(40 * 7, seed=1).reshape(40, 7)
        labels = np.arange(40) % 3
        data = Dataset(features, labels, 3)
        # a label name csv.writer has to quote
        name = 'class "y", raw'
        save_csv(data, tmp_path / "new.csv", name)
        csv_module_write(
            tmp_path / "old.csv",
            [f"f{i}" for i in range(7)] + [name],
            ([repr(float(v)) for v in x] + [int(y)] for x, y in zip(features, labels)),
        )
        assert_same_bytes(tmp_path / "new.csv", tmp_path / "old.csv")
        assert_loads_like_oracle(tmp_path / "new.csv", name)

    def test_export_matrix_csv(self, tmp_path):
        matrix = edge_and_random(60, seed=2).reshape(6, 10)
        export_matrix_csv(matrix, tmp_path / "new.csv")
        csv_module_write(
            tmp_path / "old.csv",
            [str(i) for i in range(10)],
            ([repr(float(v)) for v in row] for row in matrix),
        )
        assert_same_bytes(tmp_path / "new.csv", tmp_path / "old.csv")

    def test_export_cmatrix(self, tmp_path):
        logits = np.random.default_rng(3).uniform(-30.0, 30.0, (6, 5))
        # logits hundreds apart push probabilities into the subnormals
        logits[2] = [0.0, -710.0, -740.0, -5.0, -30.0]
        c = CMatrix(logits, 0.1)
        export_cmatrix(c, tmp_path / "new.csv")
        csv_module_write(
            tmp_path / "old.csv",
            [str(i) for i in range(6)],
            ([repr(float(v)) for v in row] for row in c.expanded_probs()),
        )
        assert (c.expanded_probs()[c.expanded_probs() > 0] < 2.3e-308).any()
        assert_same_bytes(tmp_path / "new.csv", tmp_path / "old.csv")

    def test_write_metrics_csv(self, tmp_path):
        values = edge_and_random(4 * 12, seed=4).reshape(12, 4)
        report = TrainReport(
            epoch_stats=[EpochStats(i + 1, *map(np.float64, row)) for i, row in enumerate(values)]
        )
        write_metrics_csv(report, tmp_path / "new.csv")
        csv_module_write(
            tmp_path / "old.csv",
            ["epoch", "train_acc", "test_acc", "train_loss", "mean_max_prob"],
            ([i + 1] + [repr(float(v)) for v in row] for i, row in enumerate(values)),
        )
        assert_same_bytes(tmp_path / "new.csv", tmp_path / "old.csv")

    def test_save_checkpoint(self, tmp_path):
        sizes = [6, 5, 4]
        values = edge_and_random(6 * 5 + 5 + 5 * 4 + 4, seed=5)
        weights = [values[:30].reshape(6, 5), values[35:55].reshape(5, 4)]
        biases = [values[30:35], values[55:]]
        model = Mlp(sizes, np.concatenate([weights[0].reshape(-1), biases[0],
                                           weights[1].reshape(-1), biases[1]]), seed=9)
        save_checkpoint(model, tmp_path / "new.json")
        doc = {
            "layer_sizes": sizes,
            "weights": [w.reshape(-1).tolist() for w in weights],
            "biases": [b.tolist() for b in biases],
            "seed": 9,
        }
        with open(tmp_path / "old.json", "w") as f:
            json.dump(doc, f)
            f.write("\n")
        assert_same_bytes(tmp_path / "new.json", tmp_path / "old.json")


EDGE = [float(v) for v in EDGE_VALUES]
CONFIG = asdict(TrainConfig(strategy="lspp", layer_sizes=(2, 32, 4)).resolved(2, 4))


class TestJsonWriterMatchesJsonModule:
    @pytest.mark.parametrize("doc,oracle_doc", [
        # the list layer_sizes the removed config_to_dict made of the tuple
        (CONFIG, {**CONFIG, "layer_sizes": [2, 32, 4]}),
        ({"epochs": [{"epoch": 0, "train_loss": v, "test_accuracy": 0.5} for v in EDGE],
          "final_test_nll": 1.0 / 3.0, "wall_time_sec": 12.5, "teacher_forward_calls": 0,
          "c_row_entropy": EDGE[::-1]}, None),
        ({"subcommand": "train", "config": CONFIG, "output_dir": "runs/x",
          "inputs": {"data": {"path": "d.csv", "sha256": "0f" * 32}},
          "tool_version": "0.1.0"}, None),
        ({"alpha": 0.1, "num_classes": 4,
          "metadata": {"strategy": "ablation", "ablation_loss": None, "seed": 3}}, None),
        ({"train": {"accuracy": 0.875, "mean_nll": 5e-324, "mean_max_prob": 1e16},
          "test": {"accuracy": 1.0, "mean_nll": -0.0, "mean_max_prob": 0.1},
          "c_row_entropy": EDGE}, None),
    ], ids=["config", "report", "manifest", "sidecar", "analysis"])
    def test_write_json(self, tmp_path, doc, oracle_doc):
        write_json(tmp_path / "new.json", doc)
        json_module_write(tmp_path / "old.json", doc if oracle_doc is None else oracle_doc)
        assert_same_bytes(tmp_path / "new.json", tmp_path / "old.json")


def table_text(values, labels, label_pos, newline="\n", quote=False, pad=False,
               blank_every=0):
    """CSV text for `values` with the label column inserted at `label_pos`."""
    header = [f"f{i}" for i in range(values.shape[1])]
    header.insert(label_pos, "label")
    lines = [",".join(header)]
    for i, (row, label) in enumerate(zip(values.tolist(), labels)):
        cells = [repr(v) for v in row]
        cells.insert(label_pos, label)
        if pad:
            cells = [f"  {c}\t" for c in cells]
        if quote:
            cells = [f'"{c}"' for c in cells]
        lines.append(",".join(cells))
        if blank_every and i % blank_every == 0:
            lines.append("")
    return newline.join(lines) + newline


class TestLoaderMatchesCsvModule:
    LABELS = ["3", "-0.0", "2.5", "3.0", "0", "7", "2.5", "1e2"]

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("label_pos", [0, 2, 5])
    def test_bit_identical(self, tmp_path, newline, label_pos):
        values = edge_and_random(8 * 5, seed=6).reshape(8, 5)
        path = tmp_path / "d.csv"
        with open(path, "w", newline="") as f:
            f.write(table_text(values, self.LABELS, label_pos, newline=newline))
        data = assert_loads_like_oracle(path)
        assert data.features.tobytes() == values.tobytes()
        assert data.labels.tolist() == [0, 1, 2, 0, 1, 3, 2, 4]

    @pytest.mark.parametrize("layout", [
        {"quote": True}, {"pad": True}, {"blank_every": 2},
        {"quote": True, "pad": True, "blank_every": 1, "newline": "\r\n"},
    ])
    def test_quoted_padded_and_blank_lines(self, tmp_path, layout):
        values = edge_and_random(8 * 4, seed=7).reshape(8, 4)
        path = tmp_path / "d.csv"
        with open(path, "w", newline="") as f:
            f.write(table_text(values, self.LABELS, 4, **layout))
        data = assert_loads_like_oracle(path)
        assert data.features.tobytes() == values.tobytes()

    def test_many_rows(self, tmp_path):
        values = edge_and_random(500 * 30, seed=8).reshape(500, 30)
        data = Dataset(values, np.arange(500) % 10, 10)
        save_csv(data, tmp_path / "d.csv")
        loaded = assert_loads_like_oracle(tmp_path / "d.csv")
        assert loaded.features.tobytes() == values.tobytes()

    @pytest.mark.parametrize("text", ["f0,label\n", "f0,label\r\n\r\n\n"])
    def test_header_only_is_no_data_rows_without_warning(self, tmp_path, text):
        path = tmp_path / "h.csv"
        path.write_bytes(text.encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataFormatError, match="no data rows"):
                load_csv(path, "label")


class TestLoaderErrors:
    @pytest.mark.parametrize("text,line", [
        ("f0,f1,label\n1,2,0\n#,3,1\n", 3),
        ("f0,f1,label\n1,2,0\n\n3,,1\n", 4),
        ("f0,f1,label\n1,2,0\n3,4\n", 3),
        ("f0,f1,label\n1,2,0\n3,4,1,5\n", 3),
        ("f0,f1,label\n1,2\n3,4\n", 2),
        ("f0,f1,label\n1,2,0\r\n3,nan,1\r\n", 3),
        ("f0,f1,label\n1,2,0\n3,4,inf\n", 3),
        ("f0,f1,label\n1,2,0\n3,-Infinity,1\n", 3),
        ("f0,f1,label\n1,2,0\n   \n", 3),
        ('f0,f1,label\n1,2,0\n"3,4",1\n', 3),
        # feature cells are read before the label: the message names "def"
        ("label,f0,f1\n0,1,2\nabc,3,def\n", 3),
        # a NaN before a ragged row: the row's shape is reported first
        ("f0,f1,label\n1,nan,0\n3,4,1\n5,6\n", 4),
    ])
    def test_same_error_as_csv_module(self, tmp_path, text, line):
        path = tmp_path / "bad.csv"
        path.write_bytes(text.encode())
        with pytest.raises(DataFormatError, match=rf"bad\.csv:{line}: ") as new:
            load_csv(path, "label")
        with pytest.raises(DataFormatError) as old:
            csv_module_load(path, "label")
        assert str(new.value) == str(old.value)

    @pytest.mark.parametrize("cell", ["1_0", "١"])
    def test_float_only_spellings_rejected(self, tmp_path, cell):
        # float() reads digit-group underscores and non-ASCII digits; the
        # documented cell grammar is ASCII decimal, as NumPy's reader takes it
        assert math.isfinite(float(cell))
        path = tmp_path / "u.csv"
        path.write_text(f"f0,label\n1,0\n{cell},1\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match=r"u\.csv:3: non-numeric"):
            load_csv(path, "label")
