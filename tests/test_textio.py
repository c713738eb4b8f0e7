"""Bit-exact text I/O.

Every artifact writer must produce the bytes of the csv-module / json.dump
code it replaced, and load_csv must return the arrays, labels and mapping of
the csv.reader + float() loader it replaced, with the same errors. Those
implementations are kept here as the oracles, and repr itself is the oracle
of the vectorized float-text kernel, dataio.repr_join.
"""

import csv
import json
import math
import struct
import warnings
from dataclasses import asdict

import numpy as np
import pytest

from labelforge import dataio
from labelforge.dataio import (
    PARSED_SUFFIX, DataFormatError, Dataset, export_matrix_csv, load_csv, repr_join, save_csv,
    write_json,
)
from labelforge.labelreg import CMatrix, export_cmatrix
from labelforge.model import Mlp, init_model, save_checkpoint
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


def drop_sidecar(path):
    """Remove the parsed table save_csv stored beside ``path``, so that the
    next load parses the file's text."""
    path.with_name(path.name + PARSED_SUFFIX).unlink()


def assert_loads_like_oracle(path, label_column="label"):
    dataset, mapping, _ = load_csv(path, label_column)
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
    # a label name csv.writer has to quote, and one that is not ASCII
    @pytest.mark.parametrize("name", ['class "y", raw', "étiquette_ß_λ"])
    def test_save_csv(self, tmp_path, name):
        features = edge_and_random(40 * 7, seed=1).reshape(40, 7)
        labels = np.arange(40) % 3
        data = Dataset(features, labels, 3)
        save_csv(data, tmp_path / "new.csv", name)
        csv_module_write(
            tmp_path / "old.csv",
            [f"f{i}" for i in range(7)] + [name],
            ([repr(float(v)) for v in x] + [int(y)] for x, y in zip(features, labels)),
        )
        assert_same_bytes(tmp_path / "new.csv", tmp_path / "old.csv")
        drop_sidecar(tmp_path / "new.csv")
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


def repr_line(values) -> bytes:
    """The oracle for one row: repr of each value, "," between, "\\n" after."""
    return (",".join(map(repr, np.asarray(values, dtype=np.float64).tolist())) + "\n").encode()


def with_neighbours(values) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf),
                           -values])


def value_family(name: str) -> np.ndarray:
    rng = np.random.default_rng(11)
    if name == "bit-patterns":  # every exponent, subnormals, NaN and Inf included
        return rng.integers(0, 2**64, 200_000, dtype=np.uint64, endpoint=False).view(np.float64)
    if name == "normals":
        return rng.standard_normal(100_000)
    if name == "normals-rounded":
        return np.round(rng.standard_normal(100_000), 3)
    if name == "powers":
        tens = [float(f"1e{e}") for e in range(-323, 309)]
        return with_neighbours(np.concatenate([2.0 ** np.arange(-1074, 1024), tens]))
    if name == "integers":
        return np.arange(-100_000, 100_001, dtype=np.float64)
    # the repr notation switches at 1e-4 / 1e-5 and 9.999999999999999e15 / 1e16
    return with_neighbours([1e-4, 1e-5, 9.999999999999999e15, 1e16, 0.0, 5e-324])


class TestReprJoinMatchesRepr:
    """repr_join against repr itself, value for value."""

    @pytest.mark.parametrize("family", ["bit-patterns", "normals", "normals-rounded",
                                        "powers", "integers", "notation-switches"])
    def test_value_families(self, family):
        values = value_family(family)
        assert repr_join(values, values.size, sep=b",", row_end=b"\n") == repr_line(values)

    def test_non_finite_and_integer_columns(self):
        special = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 1.5]
        table = np.array([[i - 3, v, 10.0 ** i, v] for i, v in enumerate(special)])
        table[3, 0] = -0.0
        text = repr_join(table.reshape(-1), 4, int_columns=(0, 2))
        lines = [",".join([repr(int(a)), repr(b), repr(int(c)), repr(d)])
                 for a, b, c, d in table.tolist()]
        assert text == ("\r\n".join(lines) + "\r\n").encode()

    @pytest.mark.parametrize("first", [0, 1, 4])
    def test_a_run_that_starts_inside_a_row(self, first):
        values = edge_and_random(23, seed=12)
        cells = [repr(v) + ("\r\n" if (first + i) % 5 == 4 else ",")
                 for i, v in enumerate(values.tolist())]
        assert repr_join(values, 5, first) == "".join(cells).encode()

    def test_any_run_of_any_table(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        separators = st.sampled_from([b"", b",", b", ", b"\n", b"\r\n"])
        floats = st.one_of(
            st.integers(0, 2**64 - 1).map(lambda b: struct.unpack("<d", struct.pack("<Q", b))[0]),
            st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]))
        ints = st.one_of(st.integers(-(2**53 - 1), 2**53 - 1).map(float), st.just(-0.0))

        @st.composite
        def runs(draw):
            """A run of cells of a table, the integer columns among those
            it touches."""
            width = draw(st.one_of(st.integers(1, 9), st.just(dataio.TEXT_CHUNK + 3)))
            first = draw(st.integers(0, width - 1))
            columns = [(first + i) % width for i in range(draw(st.integers(0, 30)))]
            int_columns = draw(st.sets(st.sampled_from(sorted(set(columns))))) if columns else set()
            values = [draw(ints if c in int_columns else floats) for c in columns]
            return values, width, first, draw(separators), draw(separators), int_columns

        @hypothesis.settings(max_examples=500, deadline=None, database=None)
        @hypothesis.given(runs())
        def check(run):
            values, width, first, sep, row_end, int_columns = run
            cells = [(repr(int(v)) if (first + i) % width in int_columns else repr(v)).encode()
                     + (row_end if (first + i) % width == width - 1 else sep)
                     for i, v in enumerate(values)]
            text = repr_join(values, width, first, sep, row_end, tuple(int_columns))
            assert text == b"".join(cells)

        check()

    @pytest.mark.parametrize("value", [1.5, 0.25, 2.0 ** 60, np.nan, 1e21, 2.0 ** 53,
                                       -(2.0 ** 53), -np.inf])
    def test_integer_column_holds_only_integers_below_2_53(self, value):
        with pytest.raises(ValueError, match="integer column 1 holds"):
            repr_join([7.0, 3.0, 0.5, value, 1.0, 2.0], 3, 1, int_columns=(1, 2))

    @pytest.mark.parametrize("column", [-1, 3])
    def test_integer_column_outside_the_table(self, column):
        with pytest.raises(ValueError, match=f"integer column {column} is outside"):
            repr_join([1.0, 2.0, 3.0], 3, int_columns=(column,))

    def test_integer_column_edges(self):
        big = 2.0 ** 53 - 1
        assert repr_join([-0.0, big, -big, 0.0], 1, int_columns=(0,)) == (
            b"0\r\n9007199254740991\r\n-9007199254740991\r\n0\r\n")

    @pytest.mark.parametrize("chunk", [1, 2, 5, 7, 785])
    def test_tables_that_straddle_chunks(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(dataio, "TEXT_CHUNK", chunk)
        features = edge_and_random(9 * 6, seed=13).reshape(9, 6)
        features[2, 3], features[4, 0] = np.nan, -np.inf
        labels = np.arange(9) % 4
        save_csv(Dataset(features, labels, 4), tmp_path / "new.csv")
        csv_module_write(
            tmp_path / "old.csv",
            [f"f{i}" for i in range(6)] + ["label"],
            ([repr(float(v)) for v in x] + [int(y)] for x, y in zip(features, labels)),
        )
        assert_same_bytes(tmp_path / "new.csv", tmp_path / "old.csv")

    def test_save_checkpoint_larger_than_a_chunk(self, tmp_path):
        model = init_model([784, 128, 10], seed=3)
        assert model.weights[0].size > dataio.TEXT_CHUNK
        save_checkpoint(model, tmp_path / "new.json")
        doc = {
            "layer_sizes": [784, 128, 10],
            "weights": [w.reshape(-1).tolist() for w in model.weights],
            "biases": [b.tolist() for b in model.biases],
            "seed": 3,
        }
        assert (tmp_path / "new.json").read_text() == json.dumps(doc) + "\n"

    def test_scale_table_is_exact_for_every_double(self):
        def floor_log10(num, den=1):
            k = len(str(num)) - len(str(den))  # floor(log10(num / den)) or one more
            return k - 1 if num * 10 ** max(-k, 0) < den * 10 ** max(k, 0) else k

        q = np.arange(-1074, 972)
        assert dataio._floor_log10_pow2(q).tolist() == [
            floor_log10(2**e) if e >= 0 else floor_log10(1, 2**-e) for e in q.tolist()]
        assert dataio._floor_log10_three_quarters_pow2(q).tolist() == [
            floor_log10(3 << (e - 2)) if e >= 2 else floor_log10(3, 1 << (2 - e))
            for e in q.tolist()]
        e = np.arange(dataio._K_MIN, dataio._K_MAX + 1)
        assert dataio._floor_log2_pow10(e).tolist() == [
            (10**v).bit_length() - 1 if v >= 0 else -(10**-v).bit_length() for v in e.tolist()]
        # what round_to_odd's 32-bit limbs rely on: cb << h < 2**60, g < 2**126
        _, scale, *_ = dataio._repr_tables()
        assert 2 <= scale[0].min() and scale[0].max() <= 5
        assert scale[2].max() < 2**31 and scale[4].max() < 2**31
        assert (scale[2] >> np.uint64(30)).min() == 1  # g >= 2**125

    def test_digit_count_at_every_power_of_two_and_of_ten(self):
        # float(x) rounds x up to 2**b within 2**(b - 54) below it
        powers = [2**b for b in range(57)] + [10**j for j in range(18)]
        x = sorted({p + d for p in powers
                    for d in (-1, 0, 1, -(p >> 54), -(p >> 53), -(p >> 52))
                    if 0 < p + d < 10**17})
        assert dataio._digit_count(np.array(x, dtype=np.uint64)).tolist() == [
            len(str(v)) for v in x]


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
        hit = assert_loads_like_oracle(tmp_path / "d.csv")
        drop_sidecar(tmp_path / "d.csv")
        parsed = assert_loads_like_oracle(tmp_path / "d.csv")
        assert hit.features.tobytes() == parsed.features.tobytes() == values.tobytes()

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
