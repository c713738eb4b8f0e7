import gzip
import hashlib
import io
import os
import struct
import tracemalloc
import warnings
import zipfile

import numpy as np
import pytest

from labelforge import dataio, model
from labelforge.dataio import (
    DATA_PARSED_VERSION,
    PARSED_SUFFIX,
    DataFormatError,
    Dataset,
    GaussianSpec,
    data_header,
    generate_gaussian,
    load_csv,
    load_idx,
    read_table,
    repr_join,
    save_csv,
    split,
    stratified_split_indices,
    write_csv,
    write_json,
)
from labelforge.labelreg import CMatrix, export_cmatrix, load_cmatrix
from labelforge.model import init_model, load_checkpoint, save_checkpoint
from labelforge.numerics import SEED_LIMIT

PAIRED_MEANS = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 10.0], [11.0, 10.0]])


class TestDataset:
    def test_rejects_label_out_of_range(self):
        with pytest.raises(ValueError, match="labels must lie"):
            Dataset(np.zeros((3, 2)), [0, 1, 3], 3)

    def test_rejects_missing_class(self):
        with pytest.raises(ValueError, match="no samples"):
            Dataset(np.zeros((3, 2)), [0, 0, 2], 3)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), [0, 1], 2)

    def test_counts(self):
        d = Dataset(np.zeros((5, 1)), [0, 1, 1, 2, 2], 3)
        assert np.bincount(d.labels, minlength=d.num_classes).tolist() == [1, 2, 2]
        assert len(d) == 5
        assert d.num_features == 1


class TestGenerateGaussian:
    @pytest.mark.parametrize("std", [float("nan"), float("inf"), 0.0, -1.0])
    def test_std_must_be_positive_and_finite(self, std):
        with pytest.raises(ValueError, match="std must be positive and finite"):
            GaussianSpec(PAIRED_MEANS, std, 5)

    @pytest.mark.parametrize("cell", [float("nan"), float("inf"), -float("inf")])
    def test_means_must_be_finite(self, cell):
        means = PAIRED_MEANS.copy()
        means[2, 1] = cell
        with pytest.raises(ValueError, match="means must be finite"):
            GaussianSpec(means, 0.5, 5)

    @pytest.mark.parametrize("std,means", [
        (1e308, PAIRED_MEANS),
        (1e307, np.array([[0.0, 0.0], [1.79e308, 0.0]])),  # the mean plus a draw
    ])
    def test_features_that_overflow_raise_without_a_warning(self, std, means):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows float64"):
                generate_gaussian(GaussianSpec(means, std, 5))

    @pytest.mark.parametrize("seed", [-1, SEED_LIMIT, 1.5, True])
    def test_seed_must_be_an_integer_in_the_64_bit_range(self, seed):
        with pytest.raises(ValueError, match="seed"):
            GaussianSpec(PAIRED_MEANS, 0.5, 5, seed=seed)

    def test_tiny_std_collapses_to_means(self):
        spec = GaussianSpec(PAIRED_MEANS, 1e-12, 5, seed=3)
        data = generate_gaussian(spec)
        for c in range(4):
            rows = data.features[data.labels == c]
            assert np.abs(rows - PAIRED_MEANS[c]).max() < 1e-9

    def test_fixed_seed_bit_identical(self):
        spec = GaussianSpec(PAIRED_MEANS, 0.5, 20, seed=42)
        a = generate_gaussian(spec)
        b = generate_gaussian(spec)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_nearest_centroid_confusion_structure(self):
        # Paired centers one unit apart, pairs ten-ish units apart: a
        # nearest-centroid pass should confuse mostly inside each pair.
        data = generate_gaussian(GaussianSpec(PAIRED_MEANS, 0.5, 200, seed=9))
        dists = ((data.features[:, None, :] - PAIRED_MEANS[None]) ** 2).sum(axis=2)
        predicted = np.argmin(dists, axis=1)
        confusion = np.zeros((4, 4), dtype=int)
        for true, pred in zip(data.labels, predicted):
            confusion[true, pred] += 1
        within_pair = confusion[0, 1] + confusion[1, 0] + confusion[2, 3] + confusion[3, 2]
        cross_pair = (
            confusion[0, 2] + confusion[0, 3] + confusion[1, 2] + confusion[1, 3]
            + confusion[2, 0] + confusion[2, 1] + confusion[3, 0] + confusion[3, 1]
        )
        assert within_pair > 50
        assert cross_pair == 0

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            GaussianSpec(PAIRED_MEANS, 0.0, 5)
        with pytest.raises(ValueError):
            GaussianSpec(PAIRED_MEANS[:1], 1.0, 5)
        with pytest.raises(ValueError):
            GaussianSpec(PAIRED_MEANS, 1.0, 0)


def write_idx_pair(tmp_path, pixels, labels, image_magic=0x803, label_magic=0x801,
                   gz=False):
    """Write a 2x2-image IDX pair byte by byte."""
    n = len(labels)
    image_doc = struct.pack(">IIII", image_magic, n, 2, 2) + bytes(pixels)
    label_doc = struct.pack(">II", label_magic, n) + bytes(labels)
    images = tmp_path / ("img.idx.gz" if gz else "img.idx")
    lab = tmp_path / ("lab.idx.gz" if gz else "lab.idx")
    opener = gzip.open if gz else open
    with opener(images, "wb") as f:
        f.write(image_doc)
    with opener(lab, "wb") as f:
        f.write(label_doc)
    return images, lab


class TestLoadIdx:
    def test_hand_constructed_pair(self, tmp_path):
        pixels = [0, 51, 102, 255, 10, 20, 30, 40]
        images, labels = write_idx_pair(tmp_path, pixels, [1, 0])
        data, mapping = load_idx(images, labels)
        assert data.features.shape == (2, 4)
        assert np.allclose(
            data.features[0], [0.0, 51 / 255.0, 102 / 255.0, 1.0], atol=1e-15
        )
        assert np.allclose(data.features[1], [10 / 255, 20 / 255, 30 / 255, 40 / 255])
        assert data.labels.tolist() == [1, 0]
        assert data.num_classes == 2
        assert mapping == {0: 0, 1: 1}

    def test_full_byte_scales_to_one(self, tmp_path):
        images, labels = write_idx_pair(tmp_path, [255] * 8, [0, 1])
        data, _ = load_idx(images, labels)
        assert data.features.max() == 1.0

    def test_gzip_transparent(self, tmp_path):
        images, labels = write_idx_pair(tmp_path, list(range(8)), [0, 1], gz=True)
        data, _ = load_idx(images, labels)
        assert data.features.shape == (2, 4)

    def test_wrong_magic_on_images(self, tmp_path):
        # labels magic in the image slot
        images, labels = write_idx_pair(tmp_path, [0] * 8, [0, 1], image_magic=0x801)
        with pytest.raises(DataFormatError, match="bad magic"):
            load_idx(images, labels)

    def test_wrong_magic_on_labels(self, tmp_path):
        images, labels = write_idx_pair(tmp_path, [0] * 8, [0, 1], label_magic=0x803)
        with pytest.raises(DataFormatError, match="bad magic"):
            load_idx(images, labels)

    def test_truncated_payload(self, tmp_path):
        images, labels = write_idx_pair(tmp_path, [0] * 8, [0, 1])
        raw = images.read_bytes()
        images.write_bytes(raw[:-3])
        with pytest.raises(DataFormatError, match="truncated"):
            load_idx(images, labels)

    def test_count_mismatch(self, tmp_path):
        two_dir = tmp_path / "two"
        three_dir = tmp_path / "three"
        two_dir.mkdir()
        three_dir.mkdir()
        images, _ = write_idx_pair(two_dir, [0] * 8, [0, 1])
        _, labels3 = write_idx_pair(three_dir, [0] * 12, [0, 1, 1])
        with pytest.raises(DataFormatError, match="count mismatch"):
            load_idx(images, labels3)

    def test_classes_are_the_labels_present_in_increasing_order(self, tmp_path):
        pixels = list(range(16))
        images, labels = write_idx_pair(tmp_path, pixels, [7, 2, 9, 2])
        data, mapping = load_idx(images, labels)
        assert mapping == {2: 0, 7: 1, 9: 2}
        assert all(type(label) is int for label in mapping)
        assert data.labels.tolist() == [1, 0, 2, 0]
        assert data.num_classes == 3
        assert data.features.tolist() == [[v / 255 for v in pixels[i:i + 4]]
                                          for i in range(0, 16, 4)]


class TestLoadCsv:
    def test_label_remap_first_appearance(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f0,f1,label\n1,2,5\n3,4,5\n5,6,9\n")
        data, mapping, _ = load_csv(path, "label")
        assert data.num_classes == 2
        assert data.labels.tolist() == [0, 0, 1]
        assert mapping == {5: 0, 9: 1}

    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("")
        with pytest.raises(DataFormatError, match="empty"):
            load_csv(path, "label")

    def test_header_only(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("f0,label\n")
        with pytest.raises(DataFormatError, match="no data rows"):
            load_csv(path, "label")

    def test_round_trip(self, tmp_path):
        data = generate_gaussian(GaussianSpec(PAIRED_MEANS, 0.5, 10, seed=1))
        path = tmp_path / "rt.csv"
        save_csv(data, path)
        sidecar_of(path).unlink()  # save_csv's, so that the load parses
        loaded, _, _ = load_csv(path, "label")
        assert np.abs(loaded.features - data.features).max() < 1e-9
        assert np.array_equal(loaded.labels, data.labels)

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("f0,f1,label\n1,2,0\n3,0\n4,5,1\n")
        with pytest.raises(DataFormatError, match=":3"):
            load_csv(path, "label")

    def test_non_numeric_reports_line(self, tmp_path):
        path = tmp_path / "n.csv"
        path.write_text("f0,label\n1,0\nabc,1\n")
        with pytest.raises(DataFormatError, match=":3.*non-numeric|non-numeric"):
            load_csv(path, "label")

    @pytest.mark.parametrize("cell", ("nan", "NaN", "inf", "-Infinity"))
    def test_non_finite_feature_reports_line(self, tmp_path, cell):
        path = tmp_path / "nf.csv"
        path.write_text(f"f0,f1,label\n1,2,0\n\n3,4,1\n5,{cell},1\n")
        with pytest.raises(DataFormatError, match=r"nf\.csv:5: non-finite"):
            load_csv(path, "label")

    def test_non_finite_label_reports_line(self, tmp_path):
        path = tmp_path / "nl.csv"
        path.write_text("f0,label\n1,0\n2,inf\n")
        with pytest.raises(DataFormatError, match=r"nl\.csv:3: non-finite"):
            load_csv(path, "label")

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("f0,f1\n1,2\n")
        with pytest.raises(DataFormatError, match="no column"):
            load_csv(path, "label")

    @pytest.mark.parametrize("hit", [False, True], ids=["miss", "hit"])
    def test_label_column_named_twice_is_rejected(self, tmp_path, monkeypatch, hit):
        path = tmp_path / "twice.csv"
        path.write_bytes(b"f0,f1,f0\r\n1.0,2.0,0\r\n3.0,4.0,1\r\n")
        if hit:  # a sidecar that holds this file's table, and serves "f1"
            dataio.store_parsed(path, DATA_PARSED_VERSION,
                                hashlib.sha256(path.read_bytes()).hexdigest(),
                                {"lead": np.array([[1.0, 2.0], [3.0, 4.0]]),
                                 "last": np.array([0.0, 1.0])})
            monkeypatch.setattr(dataio, "read_table", no_parse)
            assert load_csv(path, "f1")[0].features.tolist() == [[1.0, 0.0], [3.0, 1.0]]
        with pytest.raises(DataFormatError, match="more than one column named 'f0'"):
            load_csv(path, "f0")


def sidecar_of(path):
    return path.with_name(path.name + PARSED_SUFFIX)


def store_parse(path):
    """Store read_table's parse of the CSV at ``path`` as its sidecar, as
    save_csv stores the table it wrote."""
    _, table = read_table(path)
    dataio.store_parsed(path, DATA_PARSED_VERSION, hashlib.sha256(path.read_bytes()).hexdigest(),
                        {"lead": table[:, :-1], "last": table[:, -1]})


def no_parse(*_):
    raise AssertionError("parsed the CSV text")


def assert_same_load(got, want):
    """Two load_csv results hold the same bits, the same label mapping and
    the same file hash."""
    (data, mapping, sha256), (want_data, want_mapping, want_sha256) = got, want
    assert sha256 == want_sha256
    assert data.features.shape == want_data.features.shape
    assert data.features.tobytes() == want_data.features.tobytes()
    assert data.labels.tobytes() == want_data.labels.tobytes()
    assert data.num_classes == want_data.num_classes
    assert [(k, type(k), v) for k, v in mapping.items()] == [
        (k, type(k), v) for k, v in want_mapping.items()
    ]


class TestParsedSidecar:
    """save_csv keeps a data CSV's parsed table beside it, and a later load
    of the same bytes reads it instead of the text: a speed-up that never
    changes what a load returns or raises. A load never writes a sidecar."""

    def write(self, tmp_path, name="d.csv", seed=1):
        path = tmp_path / name
        save_csv(generate_gaussian(GaussianSpec(PAIRED_MEANS, 0.5, 10, seed=seed)), path)
        return path

    @pytest.mark.parametrize("text", [
        None,  # save_csv's repr floats
        'f0,f1,label\r\n1,2,7\r\n"3", 4 ,2.5\r\n\r\n5,6e-3,7\r\n',
        'label,f0,f1\r\n7,1,-0.0\r\n2.5,"3", 4 \r\n7,5,6e-3\r\n',
        'f0,label,f1,f2\r\n1,7,2,-0.0\r\n3,2.5,4,5e-324\r\n5,7,6e-3,1e16\r\n',
    ], ids=["save-csv", "quoted-float-labels", "label-first", "label-middle"])
    def test_hit_returns_what_the_parse_does(self, tmp_path, monkeypatch, text):
        path = self.write(tmp_path)
        stored = sidecar_of(path).read_bytes()
        sidecar_of(path).unlink()  # save_csv's, so that the first load parses
        if text is not None:
            path.write_bytes(text.encode())
        parsed = load_csv(path, "label")
        assert os.listdir(tmp_path) == ["d.csv"]  # the parse stored nothing
        if text is None:
            sidecar_of(path).write_bytes(stored)
        else:
            store_parse(path)
        monkeypatch.setattr(dataio, "read_table", no_parse)
        assert_same_load(load_csv(path, "label"), parsed)

    def test_same_size_edit_is_a_miss(self, tmp_path, monkeypatch):
        path = tmp_path / "d.csv"
        path.write_text("f0,label\n1,0\n2,1\n")
        store_parse(path)
        stale = sidecar_of(path).read_bytes()
        with monkeypatch.context() as patch:
            patch.setattr(dataio, "read_table", no_parse)
            assert load_csv(path, "label")[0].features[:, 0].tolist() == [1.0, 2.0]
        path.write_text("f0,label\n1,0\n3,1\n")  # one byte, same size
        data, _, _ = load_csv(path, "label")
        assert data.features[:, 0].tolist() == [1.0, 3.0]
        assert sidecar_of(path).read_bytes() == stale

    @pytest.mark.parametrize("damage", ["truncated", "nan", "shape", "dtype", "last-nan",
                                        "last-rows", "other-file", "plain-npy", "old-layout"])
    def test_bad_sidecar_is_a_miss_and_left_as_it_is(self, tmp_path, monkeypatch, damage):
        path = self.write(tmp_path)
        parsed = load_csv(path, "label")
        sidecar = sidecar_of(path)
        with open(sidecar, "rb") as f, np.load(f) as stored:
            key, lead, last = stored["key"], stored["lead"], stored["last"]
        if damage == "truncated":
            sidecar.write_bytes(sidecar.read_bytes()[: sidecar.stat().st_size // 2])
        elif damage == "other-file":  # same shape, other bytes
            other = self.write(tmp_path, "other.csv", seed=2)
            os.replace(sidecar_of(other), sidecar)
        elif damage == "plain-npy":
            with open(sidecar, "wb") as f:
                np.save(f, lead)
        elif damage == "old-layout":  # version 1: one stacked table
            with open(sidecar, "wb") as f:
                np.savez(f, key=np.array("1:" + key.item().partition(":")[2]),
                         table=np.column_stack((lead, last)))
        else:
            with_nan, last_nan = lead.copy(), last.copy()
            with_nan[0, 0] = last_nan[-1] = np.nan
            bad = {"nan": (with_nan, last), "shape": (lead[:, 1:], last),
                   "dtype": (lead.astype(np.float32), last), "last-nan": (lead, last_nan),
                   "last-rows": (lead, last[1:])}
            with open(sidecar, "wb") as f:
                np.savez(f, key=key, lead=bad[damage][0], last=bad[damage][1])
        damaged = sidecar.read_bytes()
        parses = []
        monkeypatch.setattr(dataio, "read_table",
                            lambda *args: parses.append(args) or read_table(*args))
        assert_same_load(load_csv(path, "label"), parsed)
        assert len(parses) == 1
        assert sidecar.read_bytes() == damaged

    def test_wrong_label_column_on_a_hit_raises_the_parse_error(self, tmp_path, monkeypatch):
        path = self.write(tmp_path)
        with pytest.raises(DataFormatError) as parse_error:
            read_table(path, "target")
        load_csv(path, "label")
        monkeypatch.setattr(dataio, "read_table", no_parse)
        with pytest.raises(DataFormatError) as hit_error:
            load_csv(path, "target")
        assert str(hit_error.value) == str(parse_error.value)

    def test_parse_error_is_not_stored(self, tmp_path):
        path = tmp_path / "nf.csv"
        path.write_text("f0,label\n1,0\n2,nan\n")
        for _ in range(2):
            with pytest.raises(DataFormatError, match=r"nf\.csv:3: non-finite"):
                load_csv(path, "label")
        assert os.listdir(tmp_path) == ["nf.csv"]

    def test_read_only_directory_loads_and_leaves_no_sidecar(self, tmp_path):
        path = self.write(tmp_path)
        parsed = load_csv(path, "label")
        sidecar_of(path).unlink()
        tmp_path.chmod(0o555)
        try:
            assert_same_load(load_csv(path, "label"), parsed)
        finally:
            tmp_path.chmod(0o755)
        assert os.listdir(tmp_path) == ["d.csv"]

    def test_cmatrix_load_writes_no_sidecar(self, tmp_path):
        export_cmatrix(CMatrix.zeros(3, 0.1), tmp_path / "cmatrix.csv")
        load_cmatrix(tmp_path / "cmatrix.csv")
        assert sorted(os.listdir(tmp_path)) == ["cmatrix.csv", "cmatrix.json"]


SPECIAL_VALUES = [-0.0, 5e-324, 1.7976931348623157e308, 1e16, 1e-7]


def special_dataset():
    """Signed zero, the least subnormal, the largest float and values whose
    repr switches notation, each in both columns and both signs."""
    values = np.array(SPECIAL_VALUES + [-v for v in SPECIAL_VALUES])
    features = np.column_stack((values, values[::-1]))
    return Dataset(features, np.arange(values.size) % 3, 3)


def gaussian_dataset(seed):
    means = 50.0 * np.random.default_rng(seed).standard_normal((4, 12))
    return generate_gaussian(GaussianSpec(means, 3.0, 25, seed=seed))


class TestSaveCsvSidecar:
    """save_csv stores the table it wrote as the new file's sidecar: the
    parse of the bytes written, keyed by their sha256."""

    @pytest.mark.parametrize("make", [
        lambda: gaussian_dataset(0), lambda: gaussian_dataset(1),
        lambda: gaussian_dataset(2), special_dataset,
    ], ids=["gaussian-0", "gaussian-1", "gaussian-2", "special-values"])
    def test_stored_table_is_the_parse_of_the_bytes_written(self, tmp_path, make):
        path = tmp_path / "d.csv"
        save_csv(make(), path)
        with open(sidecar_of(path), "rb") as f, np.load(f) as stored:
            key, lead, last = stored["key"].item(), stored["lead"], stored["last"]
        _, parsed = read_table(path, "label")
        assert key == f"{DATA_PARSED_VERSION}:{hashlib.sha256(path.read_bytes()).hexdigest()}"
        assert_stored_parse(lead, last, parsed)

    @pytest.mark.parametrize("cell", [np.nan, np.inf])
    def test_non_finite_dataset_gets_no_sidecar_and_loads_with_the_parse_error(
            self, tmp_path, cell):
        features = np.array([[1.0, 2.0], [3.0, cell], [5.0, 6.0]])
        path = tmp_path / "nf.csv"
        save_csv(Dataset(features, [0, 1, 1], 2), path)
        assert os.listdir(tmp_path) == ["nf.csv"]
        with pytest.raises(DataFormatError) as parse_error:
            read_table(path, "label")
        with pytest.raises(DataFormatError, match=r"nf\.csv:3: non-finite") as load_error:
            load_csv(path, "label")
        assert str(load_error.value) == str(parse_error.value)

    @pytest.mark.parametrize("name", ["f0", "f1", " label", "label,x ", "label\t"])
    def test_label_column_that_would_not_read_back_writes_nothing(self, tmp_path, name):
        with pytest.raises(ValueError, match="would not read back"):
            save_csv(special_dataset(), tmp_path / "d.csv", name)
        assert os.listdir(tmp_path) == []

    def test_save_holds_no_copy_of_the_features(self, tmp_path):
        data = Dataset(np.random.default_rng(0).standard_normal((2000, 784)),
                       np.arange(2000) % 10, 10)
        path = tmp_path / "d.csv"
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            save_csv(data, path)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < data.features.nbytes
        stacked = write_csv(tmp_path / "stacked.csv", data_header(784, "label"),
                            np.column_stack((data.features, data.labels)), int_columns=(784,))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == stacked
        with open(sidecar_of(path), "rb") as f, np.load(f, allow_pickle=False) as stored:
            lead, last = stored["lead"], stored["last"]
        _, parsed = read_table(path, "label")
        assert_stored_parse(lead, last, parsed)

    def test_hit_holds_one_copy_of_the_features(self, tmp_path, monkeypatch):
        data = Dataset(np.random.default_rng(0).standard_normal((2000, 784)),
                       np.arange(2000) % 10, 10)
        path = tmp_path / "d.csv"
        save_csv(data, path)
        monkeypatch.setattr(dataio, "read_table", no_parse)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            loaded, _, _ = load_csv(path, "label")
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * data.features.nbytes
        assert loaded.features.tobytes() == data.features.tobytes()
        assert loaded.labels.tobytes() == data.labels.tobytes()


def assert_stored_parse(lead, last, parsed):
    """A sidecar's ``lead`` and ``last`` are the columns of the table
    ``parsed``, bit for bit."""
    assert lead.dtype == last.dtype == parsed.dtype == np.float64
    assert lead.shape == (parsed.shape[0], parsed.shape[1] - 1)
    assert np.column_stack((lead, last)).tobytes() == parsed.tobytes()


class TestStoreParsed:
    """store_parsed writes each array as np.save writes it in C order,
    from the array's own buffer where it is C-contiguous."""

    SHA256 = "ab" * 32

    def table(self):
        values = np.random.default_rng(5).standard_normal((7, 5))
        values[0, :4] = [-0.0, 5e-324, 1.7976931348623157e308, np.nan]
        return values

    def stored(self, path):
        with open(sidecar_of(path), "rb") as f, np.load(f, allow_pickle=False) as stored:
            return {name: stored[name] for name in stored.files}

    def test_every_member_reads_back_bit_for_bit(self, tmp_path):
        path = tmp_path / "d.csv"
        table = self.table()
        arrays = {"seed": np.array(2**64 - 1, dtype=np.uint64),
                  "params": table[1:].reshape(-1), "lead": table[:, :-1], "last": table[:, -1],
                  "empty": table[:, :0], "fortran": np.asfortranarray(table)}
        dataio.store_parsed(path, 7, self.SHA256, arrays)
        arrays["key"] = np.array(f"7:{self.SHA256}")
        stored = self.stored(path)
        assert list(stored) == ["key", "seed", "params", "lead", "last", "empty", "fortran"]
        for name, want in arrays.items():
            got = stored[name]
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()
        with zipfile.ZipFile(sidecar_of(path)) as archive:  # np.save's bytes
            for name, want in arrays.items():
                npy = io.BytesIO()
                np.save(npy, np.asarray(want, order="C"))
                assert archive.read(name + ".npy") == npy.getvalue()

    def test_os_error_part_way_keeps_the_previous_sidecar(self, tmp_path, monkeypatch):
        path = tmp_path / "d.csv"
        table = self.table()
        dataio.store_parsed(path, 1, self.SHA256, {"lead": table[:, :-1], "last": table[:, -1]})
        before = sidecar_of(path).read_bytes()
        write_header = np.lib.format.write_array_header_1_0

        def no_space_after_a_1d_header(member, header):
            """The write of ``last``'s member, after that of ``lead``, fails."""
            write_header(member, header)
            if len(header["shape"]) == 1:
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(np.lib.format, "write_array_header_1_0", no_space_after_a_1d_header)
        dataio.store_parsed(path, 1, "cd" * 32, {"lead": table[:, :-1] + 1.0, "last": table[:, -1]})
        assert sidecar_of(path).read_bytes() == before
        assert os.listdir(tmp_path) == [sidecar_of(path).name]


@pytest.mark.parametrize("raised", ["data", "checkpoint"])
def test_raising_one_kinds_version_keeps_the_other_kinds_sidecars(tmp_path, monkeypatch,
                                                                   raised):
    # each kind of sidecar has its own layout version: raising one turns
    # only that kind's sidecars into misses, which a load parses and leaves
    # as they are, until the kind's writer stores them again
    paths = {"data": tmp_path / "d.csv", "checkpoint": tmp_path / "checkpoint.json"}
    writers = {"data": lambda: save_csv(gaussian_dataset(0), paths["data"]),
               "checkpoint": lambda: save_checkpoint(init_model([12, 8, 4], seed=0),
                                                     paths["checkpoint"])}
    parsers = {"data": (dataio, "read_table"), "checkpoint": (model, "_parse_checkpoint")}
    version = {"data": (dataio, "DATA_PARSED_VERSION"),
               "checkpoint": (model, "CHECKPOINT_PARSED_VERSION")}
    for write in writers.values():
        write()
    before = {path: sidecar_of(path).read_bytes() for path in paths.values()}
    module, name = version[raised]
    monkeypatch.setattr(module, name, getattr(module, name) + 1)
    kept = "checkpoint" if raised == "data" else "data"
    monkeypatch.setattr(*parsers[kept], no_parse)  # the kept kind must be a hit
    parses, parse = [], getattr(*parsers[raised])
    monkeypatch.setattr(*parsers[raised], lambda *args: parses.append(args) or parse(*args))
    load_csv(paths["data"], "label")
    load_checkpoint(paths["checkpoint"])
    assert len(parses) == 1
    assert {path: sidecar_of(path).read_bytes() for path in before} == before
    writers[raised]()
    with open(sidecar_of(paths[raised]), "rb") as f, np.load(f) as stored:
        key = stored["key"].item()
    sha256 = hashlib.sha256(paths[raised].read_bytes()).hexdigest()
    assert key == f"{getattr(module, name)}:{sha256}"


def write_csv_failing_after_the_first_chunk(path, monkeypatch):
    """write_csv of a 4-chunk table whose second chunk's text fails."""
    calls = []

    def fail_on_second_call(*args):
        calls.append(args)
        if len(calls) == 2:
            raise RuntimeError("the writer failed mid-write")
        return repr_join(*args)

    monkeypatch.setattr(dataio, "TEXT_CHUNK", 3)
    monkeypatch.setattr(dataio, "repr_join", fail_on_second_call)
    try:
        write_csv(path, ["a", "b"], np.arange(12.0).reshape(6, 2))
    finally:
        assert len(calls) == 2


@pytest.mark.parametrize("write,write_badly,error", [
    (lambda path: write_csv(path, ["a"], [[1.0]]),
     write_csv_failing_after_the_first_chunk, RuntimeError),
    (lambda path: write_json(path, {"a": 1.0}),
     lambda path, _: write_json(path, {"a": 2.0, "b": object()}), TypeError),
], ids=["write_csv", "write_json"])
def test_failed_write_keeps_the_old_file_and_leaves_no_temp(tmp_path, monkeypatch, write,
                                                            write_badly, error):
    path = tmp_path / "artifact"
    write(path)
    before = path.read_bytes()
    with pytest.raises(error):
        write_badly(path, monkeypatch)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["artifact"]


class TestSplit:
    def make(self, per_class=10, classes=3):
        features = np.arange(per_class * classes, dtype=float).reshape(-1, 1)
        labels = np.repeat(np.arange(classes), per_class)
        return Dataset(features, labels, classes)

    def test_exact_halves(self):
        train, test = split(self.make(10), 0.5, seed=1)
        assert np.bincount(train.labels, minlength=train.num_classes).tolist() == [5, 5, 5]
        assert np.bincount(test.labels, minlength=test.num_classes).tolist() == [5, 5, 5]

    def test_same_seed_identical(self):
        d = self.make(9)
        a_train, a_test = split(d, 0.7, seed=4)
        b_train, b_test = split(d, 0.7, seed=4)
        assert np.array_equal(a_train.features, b_train.features)
        assert np.array_equal(a_test.features, b_test.features)

    def test_indices_form_permutation(self):
        d = self.make(13, classes=4)
        train_idx, test_idx = stratified_split_indices(d.labels, 4, 0.6, seed=2)
        merged = np.sort(np.concatenate([train_idx, test_idx]))
        assert np.array_equal(merged, np.arange(len(d)))

    def test_proportions_within_one_sample(self):
        d = self.make(7, classes=3)
        train, test = split(d, 0.6, seed=5)
        for count in np.bincount(train.labels, minlength=train.num_classes):
            assert abs(count - 0.6 * 7) <= 1.0
        assert (np.bincount(test.labels, minlength=test.num_classes) >= 1).all()

    def test_small_class_rejected(self):
        d = Dataset(np.zeros((3, 1)), [0, 0, 1], 2)
        with pytest.raises(ValueError, match="cannot stratify"):
            split(d, 0.5, seed=0)

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            split(self.make(), 1.0, seed=0)

    @pytest.mark.parametrize("seed", [-1, SEED_LIMIT])
    def test_seed_outside_the_64_bit_range_rejected(self, seed):
        with pytest.raises(ValueError, match=r"split seed must be in \[0, 2\*\*64\)"):
            split(self.make(), 0.5, seed=seed)

    def test_both_sides_nonempty_even_when_rounding_up(self):
        d = self.make(2, classes=2)
        train, test = split(d, 0.9, seed=0)
        assert (np.bincount(train.labels, minlength=train.num_classes) >= 1).all()
        assert (np.bincount(test.labels, minlength=test.num_classes) >= 1).all()
