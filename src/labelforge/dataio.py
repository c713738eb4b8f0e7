"""Dataset construction (synthetic Gaussian mixtures, IDX and CSV loaders)
and the text of the run artifacts: one checked CSV table reader, one CSV
row writer and one JSON writer (the one-line checkpoint aside), all written
through one atomic file writer, and one file hash.

All loaders produce the same `Dataset` shape: an N x D float64 feature
matrix, N integer labels in [0, K), and the class count K. Every class must
appear at least once because downstream per-class statistics divide by class
counts.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import io
import json
import math
import operator
import os
import secrets
import struct
import warnings
import zipfile
from contextlib import contextmanager, suppress
from dataclasses import dataclass

import numpy as np

from .numerics import Rng, checked_seed

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

# save_csv and load_csv keep a data CSV's parsed table beside it, in the
# CSV's name plus PARSED_SUFFIX, keyed by PARSED_VERSION and the sha256 of
# the CSV's bytes.
# Raise the version whenever read_table's grammar or its table changes.
PARSED_SUFFIX = ".parsed.npz"
PARSED_VERSION = 1


class DataFormatError(ValueError):
    """Raised when an input file violates its declared format."""


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        features = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {features.shape}")
        if labels.ndim != 1 or labels.shape[0] != features.shape[0]:
            raise ValueError(
                f"labels shape {labels.shape} does not match {features.shape[0]} samples"
            )
        if self.num_classes < 1:
            raise ValueError("num_classes must be at least 1")
        if labels.size == 0:
            raise ValueError("dataset is empty")
        if labels.min() < 0 or labels.max() >= self.num_classes:
            raise ValueError(
                f"labels must lie in [0, {self.num_classes}), got range "
                f"[{labels.min()}, {labels.max()}]"
            )
        counts = np.bincount(labels, minlength=self.num_classes)
        if (counts == 0).any():
            missing = np.flatnonzero(counts == 0).tolist()
            raise ValueError(f"classes {missing} have no samples")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(self.features[indices], self.labels[indices], self.num_classes)


@dataclass(frozen=True)
class GaussianSpec:
    """Isotropic Gaussian blobs, one per class, at caller-chosen centers."""

    means: np.ndarray  # K x D
    std: float
    per_class: int
    seed: int = 0

    def __post_init__(self):
        means = np.asarray(self.means, dtype=np.float64)
        if means.ndim != 2 or means.shape[0] < 2:
            raise ValueError("means must be a KxD array with K >= 2")
        if not np.isfinite(means).all():
            raise ValueError("means must be finite")
        if not 0.0 < self.std < math.inf:
            raise ValueError(f"std must be positive and finite, got {self.std}")
        if self.per_class < 1:
            raise ValueError("per_class must be at least 1")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "seed", checked_seed(exact_int(self.seed, "seed")))


def generate_gaussian(spec: GaussianSpec) -> Dataset:
    """Draw per_class samples around each class mean; class-major order.

    Normals are drawn sample-major then dimension-major within each class
    (one block per class), so a fixed seed yields bit-identical features on
    every run. Raises ValueError when a feature overflows float64, as a
    finite but huge ``std`` or mean can make it.
    """
    k, dim = spec.means.shape
    n = spec.per_class
    rng = Rng(spec.seed)
    features = np.empty((k * n, dim), dtype=np.float64)
    with np.errstate(over="ignore"):  # an overflow is reported below
        for c in range(k):
            features[c * n : (c + 1) * n] = spec.means[c] + spec.std * rng.normals((n, dim))
    if not np.isfinite(features).all():
        raise ValueError(f"std {spec.std!r} with these means overflows float64: "
                         f"a generated feature is not finite")
    return Dataset(features, np.repeat(np.arange(k, dtype=np.int64), n), k)


def _open_maybe_gzip(path):
    with open(path, "rb") as f:
        head = f.read(2)
    if head == b"\x1f\x8b":
        return gzip.open(path, "rb")
    return open(path, "rb")


def _read_exact(f, n: int, path, what: str) -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise DataFormatError(f"{path}: truncated file while reading {what}")
    return data


def read_idx(images_path, labels_path) -> tuple[np.ndarray, np.ndarray]:
    """Read an IDX image/label file pair (gzip accepted transparently) into
    an N x (H*W) float64 feature matrix and N int64 labels.

    Images: big-endian magic 0x00000803 then N, H, W and N*H*W unsigned
    bytes. Labels: magic 0x00000801 then N and N unsigned bytes. Pixels are
    scaled to [0, 1] by dividing by 255 and flattened row-major to N x (H*W).
    """
    with _open_maybe_gzip(images_path) as f:
        (magic,) = struct.unpack(">I", _read_exact(f, 4, images_path, "magic"))
        if magic != IDX_IMAGES_MAGIC:
            raise DataFormatError(
                f"{images_path}: bad magic 0x{magic:08x}, expected 0x{IDX_IMAGES_MAGIC:08x}"
            )
        n, h, w = struct.unpack(">III", _read_exact(f, 12, images_path, "dimensions"))
        raw = _read_exact(f, n * h * w, images_path, "pixel payload")
    pixels = np.frombuffer(raw, dtype=np.uint8).astype(np.float64) / 255.0

    with _open_maybe_gzip(labels_path) as f:
        (magic,) = struct.unpack(">I", _read_exact(f, 4, labels_path, "magic"))
        if magic != IDX_LABELS_MAGIC:
            raise DataFormatError(
                f"{labels_path}: bad magic 0x{magic:08x}, expected 0x{IDX_LABELS_MAGIC:08x}"
            )
        (n_labels,) = struct.unpack(">I", _read_exact(f, 4, labels_path, "count"))
        raw = _read_exact(f, n_labels, labels_path, "label payload")
    labels = np.frombuffer(raw, dtype=np.uint8).astype(np.int64)

    if n_labels != n:
        raise DataFormatError(
            f"image/label count mismatch: {n} images vs {n_labels} labels"
        )
    return pixels.reshape(n, h * w), labels


def load_idx(images_path, labels_path) -> Dataset:
    """`read_idx` as a Dataset whose class count is the largest label + 1;
    labels that leave a class below it without rows are rejected, naming
    the labels file."""
    features, labels = read_idx(images_path, labels_path)
    try:
        return Dataset(features, labels, int(labels.max()) + 1)
    except ValueError as exc:
        raise DataFormatError(f"{labels_path}: {exc}") from None


def read_table(path, label_column: str | None = None) -> tuple[list, np.ndarray]:
    """Read a rectangular numeric CSV into its header names (stripped) and
    an N x C float64 table; every CSV artifact is read here.

    Cells are ASCII decimal floats, optionally double-quoted and padded with
    spaces; blank lines are skipped and LF, CRLF and CR line ends are all
    accepted. A header without ``label_column`` (when given) and a file
    without data rows are rejected, and a wrong cell count, a non-numeric
    cell or a NaN/Inf cell with the line it sits on (the label cell last).
    """
    with open(path, newline="") as f:
        header = _read_header(f, path, label_column)
        label_idx = None if label_column is None else header.index(label_column)
        try:
            with warnings.catch_warnings():
                # a header-only file is reported below as "no data rows"
                warnings.filterwarnings(
                    "ignore", "loadtxt: input contained no data", UserWarning
                )
                table = np.loadtxt(f, delimiter=",", dtype=np.float64, ndmin=2,
                                   comments=None, quotechar='"')
        except ValueError as exc:
            _raise_for_bad_line(path, header, label_idx)
            raise DataFormatError(f"{path}: {exc}") from None

    if table.shape[0] == 0:
        raise DataFormatError(f"{path}: no data rows")
    if table.shape[1] != len(header) or not np.isfinite(table).all():
        _raise_for_bad_line(path, header, label_idx)
        raise DataFormatError(f"{path}: rows do not match the header or hold NaN/Inf")
    return header, table


def _read_header(f, path, label_column: str | None) -> list:
    """The stripped header names on the first line of ``f``, which must
    hold ``label_column`` when one is given."""
    try:
        header = next(csv.reader(f))
    except StopIteration:
        raise DataFormatError(f"{path}: empty file") from None
    header = [name.strip() for name in header]
    if label_column is not None and header.count(label_column) != 1:
        problem = "no column" if label_column not in header else "more than one column"
        raise DataFormatError(
            f"{path}: {problem} named {label_column!r} in header {header}"
        )
    return header


def load_csv(path, label_column: str) -> tuple[Dataset, dict, str]:
    """Load a data CSV (the grammar of `read_table`) as a Dataset.

    Labels are remapped to dense 0..K-1 in first-appearance order; the
    returned dict maps each original label value to its dense index, and the
    str is the hex sha256 of the bytes loaded. The table comes from the
    file's sidecar (`_parsed_table`) when it holds the parse of these bytes.
    """
    header, table, sha256 = _parsed_table(path, label_column)
    label_idx = header.index(label_column)
    mapping: dict = {}
    labels = np.empty(table.shape[0], dtype=np.int64)
    for i, value in enumerate(table[:, label_idx].tolist()):
        key = int(value) if value == int(value) else value
        if key not in mapping:
            mapping[key] = len(mapping)
        labels[i] = mapping[key]
    features = np.delete(table, label_idx, axis=1)
    return Dataset(features, labels, len(mapping)), mapping, sha256


def _parsed_table(path, label_column: str) -> tuple[list, np.ndarray, str]:
    """`read_table(path, label_column)` and the hex sha256 of the file,
    reading the table from the sidecar ``path`` + PARSED_SUFFIX when that
    holds the parse of these bytes.

    A hit still reads the header from the CSV and checks ``label_column``
    in it; a sidecar that cannot be read, is keyed to other bytes or holds
    anything but a finite 2-D float64 table with a row and one column per
    header name is a miss. A miss parses the CSV and, if the file did not
    change meanwhile, stores the sidecar anew (`_store_parsed`). A parse
    error is never stored.
    """
    before = _identity(path)
    sha256 = file_sha256(path)
    table = _read_parsed(os.fspath(path) + PARSED_SUFFIX, _parsed_key(sha256))
    if table is not None:
        with open(path, newline="") as f:
            header = _read_header(f, path, label_column)
        if (table.ndim == 2 and table.dtype == np.float64 and table.shape[0] >= 1
                and table.shape[1] == len(header) and np.isfinite(table).all()):
            return header, table, sha256
    header, table = read_table(path, label_column)
    with suppress(OSError):
        if _identity(path) == before:
            _store_parsed(path, sha256, table)
    return header, table, sha256


def _parsed_key(sha256: str) -> str:
    """The key a sidecar stores the parse of bytes with this hash under."""
    return f"{PARSED_VERSION}:{sha256}"


def _store_parsed(path, sha256: str, table: np.ndarray) -> None:
    """Store ``table`` as the parse of the data CSV at ``path`` whose bytes
    hash to ``sha256``, atomically; an OSError leaves the sidecar as it was
    and only costs a later load its parse."""
    with suppress(OSError):
        with atomic_write(os.fspath(path) + PARSED_SUFFIX, "wb") as f:
            np.savez(f, key=np.array(_parsed_key(sha256)), table=table)


def _identity(path) -> tuple:
    """What changes when a file is rewritten or replaced."""
    st = os.stat(path)
    return st.st_ino, st.st_size, st.st_mtime_ns


def _read_parsed(sidecar: str, key: str) -> np.ndarray | None:
    """The table a sidecar stores under ``key``; None when it is missing,
    unreadable, not an archive of arrays or stored under another key."""
    try:
        # the handle is ours: np.load leaks the one it opens on a bad archive
        with open(sidecar, "rb") as f:
            parsed = np.load(f, allow_pickle=False)
            if not isinstance(parsed, np.lib.npyio.NpzFile):
                return None
            with parsed:
                if parsed["key"].item() != key:
                    return None
                return parsed["table"]
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile):
        return None


def file_sha256(path) -> str:
    """The hex sha256 of a file's bytes, read in chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _parse_cell(cell: str) -> float:
    """float() restricted to what NumPy's text reader accepts: no digit-group
    underscores and no non-ASCII digits."""
    if "_" in cell or not cell.strip().isascii():
        raise ValueError(f"could not convert string to float: {cell!r}")
    return float(cell)


def _raise_for_bad_line(path, header, label_idx) -> None:
    """Name the line that the fast parse in read_table rejected.

    Only diagnoses: it re-reads the file row by row and raises for the first
    line with a wrong cell count or a non-numeric cell (the label_idx cell
    last within a row), else for the first line with a NaN/Inf cell. It
    returns when it finds neither.
    """
    order = sorted(range(len(header)), key=lambda i: i == label_idx)
    first_non_finite = None
    with open(path, newline="") as f:
        reader = csv.reader(f)
        next(reader)
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataFormatError(
                    f"{path}:{line_no}: expected {len(header)} cells, got {len(row)}"
                )
            try:
                values = [_parse_cell(row[i]) for i in order]
            except ValueError as exc:
                raise DataFormatError(f"{path}:{line_no}: non-numeric cell ({exc})") from None
            if first_non_finite is None and not all(map(math.isfinite, values)):
                first_non_finite = line_no
    if first_non_finite is not None:
        raise DataFormatError(f"{path}:{first_non_finite}: non-finite cell (NaN or Inf)")


class _Sha256Buffer(io.BufferedWriter):
    """A buffered binary writer that hashes every byte written through it."""

    def __init__(self, raw):
        super().__init__(raw)
        self.sha256 = hashlib.sha256()

    def write(self, data):
        self.sha256.update(data)
        return super().write(data)


def write_csv(path, header, rows) -> str:
    """Write a header row and rows of Python ints and floats as CSV, and
    return the hex sha256 of the bytes written.

    The header goes through csv.writer, which quotes names where needed.
    Each number is written as its repr, which round-trips every float64
    exactly, and every line ends in "\\r\\n" as csv.writer's do: the bytes
    equal those of csv.writer given repr(float(v)) cells.

    Only save_csv uses the hash, as the key of the parsed table it stores;
    hashing while writing ties that key to the bytes written, with no read
    back. The other writers' files are small (K-column matrices, one
    metrics row per epoch), so they share the one path for the cost of
    hashing those bytes.
    """
    with atomic_write(path, "wb", buffering=0) as raw:
        buffer = _Sha256Buffer(raw)
        # the text layer open() would build, over a buffer that hashes
        with io.TextIOWrapper(buffer, newline="") as f:
            csv.writer(f).writerow(header)
            f.writelines(",".join(map(repr, row)) + "\r\n" for row in rows)
    return buffer.sha256.hexdigest()


def write_json(path, doc) -> None:
    """Write ``doc`` (tuples as lists) indented by 2 with sorted keys and a
    final newline: every JSON artifact but the one-line checkpoint."""
    with atomic_write(path) as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


@contextmanager
def atomic_write(path, mode: str = "w", **open_args):
    """Open a new hidden file beside ``path`` (`open` with ``mode`` and
    ``open_args``) and, when the block ends without an error, rename it onto
    ``path``: a reader finds the old file or the whole new one. After an
    error the new file is removed and ``path`` is as it was."""
    head, name = os.path.split(os.fspath(path))
    temp = os.path.join(head, f".{name}.{secrets.token_hex(4)}.tmp")
    try:
        with open(temp, mode.replace("w", "x"), **open_args) as f:
            yield f
        os.replace(temp, path)
    except BaseException:
        with suppress(OSError):
            os.remove(temp)
        raise


@contextmanager
def json_types(path):
    """Report a JSON value read from ``path`` that has the wrong type for its
    use (the TypeError it raises) as a ValueError naming the file."""
    try:
        yield
    except TypeError as exc:
        raise ValueError(f"{path}: a value has the wrong type: {exc}") from None


def exact_int(value, name: str) -> int:
    """``value`` as an int if it is an int, a NumPy integer or an integral float;
    else (a bool, a str, 8.7, inf, ...) a ValueError naming ``name``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            if isinstance(value, float) and value.is_integer():
                return int(value)
    raise ValueError(f"{name}: {value!r} is not an integer")


def data_header(num_features: int, label_column: str) -> list:
    """The header save_csv writes: f0..f<num_features - 1>, then
    ``label_column``, which must read back as the one column of that name.
    A name equal to a feature name, or padded with spaces that a load strips,
    would not, and is rejected."""
    header = [f"f{i}" for i in range(num_features)]
    if label_column in header or label_column != label_column.strip():
        raise ValueError(
            f"label column {label_column!r} would not read back: it must differ "
            f"from the feature names f0..f{num_features - 1} and have no leading "
            f"or trailing spaces"
        )
    return [*header, label_column]


def save_csv(dataset: Dataset, path, label_column: str = "label") -> None:
    """Write a dataset in the format load_csv reads (floats via repr) under
    `data_header`, and store its table as the file's parsed-table sidecar:
    repr round-trips every float64, so the parse of the bytes written is
    that table. A table with NaN or Inf gets no sidecar."""
    header = data_header(dataset.num_features, label_column)
    rows = (
        x.tolist() + [y] for x, y in zip(dataset.features, dataset.labels.tolist())
    )
    sha256 = write_csv(path, header, rows)
    table = np.column_stack((dataset.features, dataset.labels.astype(np.float64)))
    if np.isfinite(table).all():
        _store_parsed(path, sha256, table)


def stratified_split_indices(
    labels: np.ndarray, num_classes: int, train_fraction: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-class shuffled index split; classes processed in increasing order.

    Each class contributes round(fraction * count) samples to the train side,
    clamped so both sides keep at least one sample per class.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    labels = np.asarray(labels, dtype=np.int64)
    rng = Rng(checked_seed(seed, "split seed"))
    train_parts = []
    test_parts = []
    for c in range(num_classes):
        class_idx = np.flatnonzero(labels == c)
        if class_idx.size < 2:
            raise ValueError(f"class {c} has {class_idx.size} sample(s); cannot stratify")
        shuffled = class_idx[rng.permutation(class_idx.size)]
        n_train = int(train_fraction * class_idx.size + 0.5)
        n_train = min(max(n_train, 1), class_idx.size - 1)
        train_parts.append(shuffled[:n_train])
        test_parts.append(shuffled[n_train:])
    return np.concatenate(train_parts), np.concatenate(test_parts)


def split(dataset: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Stratified deterministic split into (train, test)."""
    train_idx, test_idx = stratified_split_indices(
        dataset.labels, dataset.num_classes, train_fraction, seed
    )
    return dataset.subset(train_idx), dataset.subset(test_idx)
