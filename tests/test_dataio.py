import gzip
import struct

import numpy as np
import pytest

from labelforge.dataio import (
    DataFormatError,
    Dataset,
    GaussianSpec,
    generate_gaussian,
    load_csv,
    load_idx,
    save_csv,
    split,
    stratified_split_indices,
)

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
        data = load_idx(images, labels)
        assert data.features.shape == (2, 4)
        assert np.allclose(
            data.features[0], [0.0, 51 / 255.0, 102 / 255.0, 1.0], atol=1e-15
        )
        assert np.allclose(data.features[1], [10 / 255, 20 / 255, 30 / 255, 40 / 255])
        assert data.labels.tolist() == [1, 0]
        assert data.num_classes == 2

    def test_full_byte_scales_to_one(self, tmp_path):
        images, labels = write_idx_pair(tmp_path, [255] * 8, [0, 1])
        data = load_idx(images, labels)
        assert data.features.max() == 1.0

    def test_gzip_transparent(self, tmp_path):
        images, labels = write_idx_pair(tmp_path, list(range(8)), [0, 1], gz=True)
        data = load_idx(images, labels)
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


    def test_skipped_label_names_the_labels_file(self, tmp_path):
        images, labels = write_idx_pair(tmp_path, [0] * 8, [0, 2])
        with pytest.raises(DataFormatError, match=r"lab\.idx: classes \[1\] have no samples"):
            load_idx(images, labels)


class TestLoadCsv:
    def test_label_remap_first_appearance(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f0,f1,label\n1,2,5\n3,4,5\n5,6,9\n")
        data, mapping = load_csv(path, "label")
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
        loaded, _ = load_csv(path, "label")
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

    def test_both_sides_nonempty_even_when_rounding_up(self):
        d = self.make(2, classes=2)
        train, test = split(d, 0.9, seed=0)
        assert (np.bincount(train.labels, minlength=train.num_classes) >= 1).all()
        assert (np.bincount(test.labels, minlength=test.num_classes) >= 1).all()
