"""Dataset construction (synthetic Gaussian mixtures, IDX and CSV loaders)
and the text of the run artifacts: one checked CSV table reader, one CSV
table writer and one JSON writer (the one-line checkpoint aside), all
writing bytes through one atomic binary file writer, one file hash and one
parsed-table sidecar, which only the file's writer stores (`parse_once`).

Every float in a CSV artifact or a checkpoint is spelled as Python's
``repr`` spells it. One vectorized kernel, `repr_join`, makes that text for
an array of values at a time, and `repr_table_chunks` streams a table
through it in chunks of TEXT_CHUNK values.

All loaders produce the same `Dataset` shape: an N x D float64 feature
matrix, N integer labels in [0, K), and the class count K. Every class must
appear at least once because downstream per-class statistics divide by class
counts.
"""

from __future__ import annotations

import csv
import functools
import gzip
import hashlib
import io
import itertools
import json
import locale
import math
import operator
import os
import secrets
import struct
import warnings
import zipfile
from collections.abc import Iterator
from contextlib import contextmanager, suppress
from dataclasses import dataclass

import numpy as np

from .numerics import Rng, checked_seed

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

# save_csv stores a data CSV's parsed table beside it, and save_checkpoint a
# checkpoint's layer sizes, parameters and seed: a sidecar in the file's
# name plus PARSED_SUFFIX, keyed by its kind's layout version
# (DATA_PARSED_VERSION, model.CHECKPOINT_PARSED_VERSION) and the sha256 of
# the bytes written. load_csv and load_checkpoint read it on a hit and
# parse on a miss, and never write one (`parse_once`).
PARSED_SUFFIX = ".parsed.npz"


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


def _read_exact(f, n: int, path, what: str) -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise DataFormatError(f"{path}: truncated file while reading {what}")
    return data


def _read_idx_file(path, magic: int) -> tuple[tuple, np.ndarray]:
    """The dimensions and the unsigned-byte payload of the IDX file at
    ``path`` (gzip accepted transparently): big-endian ``magic``, whose low
    byte counts the dimensions, then each dimension and the payload."""
    with open(path, "rb") as file:
        gzipped = file.peek(2)[:2] == b"\x1f\x8b"
        with gzip.open(file) if gzipped else file as f:
            (found,) = struct.unpack(">I", _read_exact(f, 4, path, "magic"))
            if found != magic:
                raise DataFormatError(f"{path}: bad magic 0x{found:08x}, "
                                      f"expected 0x{magic:08x}")
            ndim = magic & 0xFF
            dims = struct.unpack(f">{ndim}I", _read_exact(f, 4 * ndim, path, "dimensions"))
            raw = _read_exact(f, math.prod(dims), path, "payload")
    return dims, np.frombuffer(raw, dtype=np.uint8)


def load_idx(images_path, labels_path) -> tuple[Dataset, dict]:
    """Load an IDX image/label file pair as a Dataset of N x (H*W) float64
    features, and the dict that maps each label to its class.

    Images: magic 0x00000803 then N, H, W and N*H*W unsigned bytes. Labels:
    magic 0x00000801 then N and N unsigned bytes. Pixels are scaled to
    [0, 1] by dividing by 255 and flattened row-major to N x (H*W). A pair
    with no images is rejected. The classes are the labels present, in
    increasing order, so labels 0..K-1 with none skipped are their own
    classes.
    """
    (n, h, w), pixels = _read_idx_file(images_path, IDX_IMAGES_MAGIC)
    (n_labels,), labels = _read_idx_file(labels_path, IDX_LABELS_MAGIC)
    if n_labels != n:
        raise DataFormatError(
            f"image/label count mismatch: {n} images vs {n_labels} labels"
        )
    if n == 0:
        raise DataFormatError(f"{labels_path}: no labels")
    present, classes = np.unique(labels, return_inverse=True)
    features = (pixels.astype(np.float64) / 255.0).reshape(n, h * w)
    return (Dataset(features, classes, len(present)),
            {label: c for c, label in enumerate(present.tolist())})


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


# The layout of a data CSV's sidecar (`load_csv`, `save_csv`): raise it
# whenever the parse or the arrays stored for it change.
DATA_PARSED_VERSION = 2


def load_csv(path, label_column: str) -> tuple[Dataset, dict, str]:
    """Load a data CSV (the grammar of `read_table`) as a Dataset.

    Labels are remapped to dense 0..K-1 in first-appearance order; the
    returned dict maps each original label value to its dense index, and the
    str is the hex sha256 of the bytes loaded.

    The parsed table is kept as two arrays, ``lead`` (every column but the
    last) and ``last`` (the last column), so that a label in the last
    column, where save_csv writes it, leaves ``lead`` as the features with
    no copy. They come from the sidecar save_csv stored (`parse_once`) when
    it holds the parse of these bytes, else from the parse, and a load
    writes no sidecar. A hit still reads the header from the CSV and
    checks ``label_column`` in it, and stored arrays that are not finite
    float64, N x (C - 1) and N for a header of C names and N >= 1 rows,
    are a miss.
    """
    def parse():
        header, table = read_table(path, label_column)
        return header, np.ascontiguousarray(table[:, :-1]), np.ascontiguousarray(table[:, -1])

    def from_arrays(arrays):
        with open(path, newline="") as f:
            header = _read_header(f, path, label_column)
        lead, last = arrays.get("lead"), arrays.get("last")
        if (lead is not None and last is not None
                and lead.dtype == last.dtype == np.float64 and lead.ndim == 2
                and lead.shape[0] >= 1 and lead.shape[1] == len(header) - 1
                and last.shape == lead.shape[:1]
                and np.isfinite(lead).all() and np.isfinite(last).all()):
            return header, lead, last
        return None

    (header, lead, last), sha256 = parse_once(path, DATA_PARSED_VERSION, parse, from_arrays)
    label_idx = header.index(label_column)
    features, label_values = lead, last
    if label_idx < lead.shape[1]:
        features = np.concatenate(
            (lead[:, :label_idx], lead[:, label_idx + 1:], last[:, None]), axis=1)
        label_values = lead[:, label_idx]
    keys = [int(value) if value == int(value) else value for value in label_values.tolist()]
    mapping = {key: c for c, key in enumerate(dict.fromkeys(keys))}
    labels = np.fromiter(map(mapping.__getitem__, keys), dtype=np.int64, count=len(keys))
    return Dataset(features, labels, len(mapping)), mapping, sha256


def parse_once(path, version: int, parse, from_arrays) -> tuple:
    """``parse()`` and the hex sha256 of the file at ``path``, or, when the
    sidecar ``path`` + PARSED_SUFFIX holds the parse of these bytes,
    ``from_arrays(arrays)`` in its place. Only a writer stores a sidecar
    (`store_parsed`), keyed by ``version``, the layout version of the
    caller's kind of file, and the sha256 of the bytes it wrote; a load
    never writes one. A sidecar that is missing, cannot be read, is keyed
    to another version or other bytes or that ``from_arrays`` refuses
    (returns None: arrays that fail a check the parse makes) is a miss,
    which parses the file and leaves the sidecar as it is.
    """
    sha256 = file_sha256(path)
    arrays = None
    with suppress(OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile):
        # the handle is ours: np.load leaks the one it opens on a bad archive
        with open(os.fspath(path) + PARSED_SUFFIX, "rb") as f:
            parsed = np.load(f, allow_pickle=False)
            if isinstance(parsed, np.lib.npyio.NpzFile):
                with parsed:
                    if parsed["key"].item() == f"{version}:{sha256}":
                        arrays = {name: parsed[name] for name in parsed.files}
    result = None if arrays is None else from_arrays(arrays)
    return (parse() if result is None else result), sha256


def store_parsed(path, version: int, sha256: str, arrays: dict) -> None:
    """Store ``arrays`` as the parse, in the layout ``version`` of its kind,
    of the file at ``path`` whose bytes hash to ``sha256``, atomically; an
    OSError leaves the sidecar as it was and only costs a later load its
    parse. Only the writers of those bytes store one: `save_csv` and
    `model.save_checkpoint`.

    The sidecar is an uncompressed .npz archive, which `np.load` reads,
    written by `_write_npz` with no copy of a C-contiguous array."""
    with suppress(OSError), atomic_write(os.fspath(path) + PARSED_SUFFIX) as f:
        _write_npz(f, {"key": np.array(f"{version}:{sha256}"), **arrays})


def _write_npz(f, arrays: dict) -> None:
    """Write ``arrays`` by name into ``f`` as the members of an uncompressed
    .npz archive, byte for byte as NumPy's own npz writer lays them out:
    each a .npy header (version 1.0, C order), then the array's buffer as
    it is (a C-order copy of one that is not C-contiguous). NumPy's writer
    would first copy each whole array to bytes."""
    with zipfile.ZipFile(f, "w", zipfile.ZIP_STORED, allowZip64=True) as archive:
        for name, value in arrays.items():
            value = np.asarray(value, order="C")
            with archive.open(name + ".npy", "w", force_zip64=True) as member:
                np.lib.format.write_array_header_1_0(
                    member, np.lib.format.header_data_from_array_1_0(value))
                member.write(value.reshape(-1).view(np.uint8))


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


# -- repr-exact float text -----------------------------------------------------
#
# repr(x) of a float64 x is the decimal with the fewest significant digits
# that reads back as x, of those the nearest to x, and of two equally near
# the one with an even last digit. repr_join finds those digits for a whole
# array with Giulietti's Schubfach algorithm ("The Schubfach way to render
# doubles", 2020; Java's Double.toString uses it), which like Ryu (Adams,
# PLDI 2018) needs only 64-bit integer arithmetic and a table of powers of
# ten. For x = c * 2**q it picks a scale 10**k at which the interval of
# reals that read back as x is 1 to 10 units wide, and computes x and the
# interval's ends in quarter units of that scale, rounded to odd, from one
# 126-bit approximation g of 10**-k; that rounding keeps every comparison
# below exact. The answer is the one multiple of 10 units in the interval
# if there is one, else the nearer of the two units around x. Unlike
# Java's, no second digit is forced (repr(5e-324) is '5e-324').

# Values per repr_join call in repr_table_chunks, and about the values per
# block of rows that save_csv makes its CSV text from; the kernel's
# temporaries are a few dozen arrays of this length, so it bounds the memory
# a write takes.
TEXT_CHUNK = 1 << 14

_U64 = np.uint64
_LOW32 = _U64(0xFFFF_FFFF)
_LOW63 = _U64((1 << 63) - 1)
_POW10 = _U64(10) ** np.arange(20, dtype=np.uint64)
_K_MIN, _K_MAX = -324, 292  # the scales 10**k the doubles need


def _floor_log10_pow2(q):
    """floor(log10(2**q)), exact for every double's exponent q."""
    return (q * 661971961083) >> 41


def _floor_log10_three_quarters_pow2(q):
    """floor(log10(3/4 * 2**q)), exact for every double's exponent q."""
    return (q * 661971961083 - 274743187321) >> 41


def _floor_log2_pow10(e):
    """floor(log2(10**e)), exact for every scale e the doubles need."""
    return (e * 913124641741) >> 38


def _words(data) -> np.ndarray:
    """Little-endian uint64 words of ``data``, whose length is a multiple of 8."""
    return np.frombuffer(bytes(data), dtype="<u8").astype(np.uint64)


@functools.cache
def _repr_tables() -> tuple:
    """The read-only tables of repr_join, built once per process on its
    first call:

    - per row (the biased exponent, plus 2047 for a power of two whose
      interval below is half as wide as above): the scale k, and the shift h
      and the 32-bit limbs of the two 63-bit halves of
      g = floor(10**-k * 2**(125 - floor(log2(10**-k)))) + 1;
    - the text "e+XX" of each decimal exponent from -324 to 308, as a word;
    - per (place of the point, or 24 for none; length; sign) a row-major
      (1250, 4) table of the amounts to subtract from a cell's 4 words, and
      one of the masks that keep its text. A cell is 24 bytes of digits and
      a 4th word of exponent and separator, which the 4th column (0 and all
      ones) leaves alone, so one gather and one in-place op on the
      contiguous (N, 4) cells apply each table.
    """
    g = []
    for k in range(_K_MIN, _K_MAX + 1):
        shift = 125 - _floor_log2_pow10(-k)
        num, den = (10 ** -k, 1) if k <= 0 else (1, 10 ** k)
        g.append(((num << shift) if shift >= 0 else num // (1 << -shift)) // den + 1)
    g1 = np.array([v >> 63 for v in g], dtype=np.uint64)
    g0 = np.array([v & ((1 << 63) - 1) for v in g], dtype=np.uint64)
    q = np.maximum(np.arange(2047), 1) - 1075
    k = np.concatenate([_floor_log10_pow2(q), _floor_log10_three_quarters_pow2(q)])
    h = np.concatenate([q, q]) + _floor_log2_pow10(-k) + 2
    g1, g0 = g1[k - _K_MIN], g0[k - _K_MIN]
    scale = np.stack([h.astype(np.uint64), g1 & _LOW32, g1 >> _U64(32),
                      g0 & _LOW32, g0 >> _U64(32), g1])

    exponent = _words(b"".join(f"e{e:+03d}".encode().ljust(8, b"\0")
                               for e in range(-324, 309)))

    # axes (point, length, sign, byte), in uint8: '0' - 2 is '.', '0' - 3 is '-'
    place = np.arange(23, -1, -1, dtype=np.uint8)  # of each of the 24 digit bytes
    point = np.arange(25, dtype=np.uint8)[:, None, None, None]
    length = np.arange(25, dtype=np.uint8)[:, None, None]
    neg = np.arange(2, dtype=np.uint8)[:, None]
    sub = np.uint8(2) * (place == point) + np.uint8(3) * ((neg == 1) & (place == length))
    keep = np.broadcast_to(np.uint8(255) * (place < length + neg), sub.shape)

    def rows(table, fourth):
        """One row of 4 words per (point, length, sign): the 24 bytes, then
        ``fourth``, which leaves a cell's 4th word as it is."""
        words = _words(np.ascontiguousarray(table).tobytes()).reshape(-1, 3)
        return np.column_stack([words, np.full(len(words), fourth, dtype=np.uint64)])

    return k, scale, exponent, rows(sub, 0), rows(keep, ~_U64(0))


def _digit_count(x: np.ndarray) -> np.ndarray:
    """The number of decimal digits of each 0 < x < 10**17: that of the
    power of two at or below float(x), or one more. Where float(x) rounds x
    up to a power of two, no power of ten lies between the two."""
    binade = (x.astype(np.float64).view(np.uint64) >> _U64(52)).astype(np.intp) - 1023
    n = _floor_log10_pow2(binade) + 1
    return n + (x >= _POW10[n])


def _mulhi(a0, a1, b0, b1):
    """The high 64 bits of the products (a1 * 2**32 + a0) * (b1 * 2**32 + b0),
    for a1 < 2**31 and b1 < 2**28, computed in place where it can be."""
    u = a0 * b0
    u >>= _U64(32)
    u += a1 * b0
    v = a0 * b1
    v += u & _LOW32
    u >>= _U64(32)
    v >>= _U64(32)
    u += v
    u += a1 * b1
    return u


def _shortest(bits: np.ndarray) -> tuple:
    """(digits, k): the decimals digits * 10**k that repr gives the positive,
    finite, nonzero doubles with these bit patterns, as uint64 digits
    (fewer than 10**17, maybe with trailing zeros) and int64 scales."""
    scales, scale, *_ = _repr_tables()
    biased = (bits >> _U64(52)).astype(np.intp)
    fraction = bits & _U64((1 << 52) - 1)
    c = fraction | (biased != 0) * _U64(1 << 52)
    narrow_below = (fraction == 0) & (biased > 1)
    row = biased + 2047 * narrow_below
    h, g1lo, g1hi, g0lo, g0hi, g1 = np.take(scale, row, axis=1)

    def round_to_odd(cp):
        """floor(g * cp / 2**127), its lowest bit set when that drops a
        nonzero part of the top 63 bits below the point."""
        cp0, cp1 = cp & _LOW32, cp >> _U64(32)
        y1 = _mulhi(g1lo, g1hi, cp0, cp1)
        z = g1 * cp
        z >>= _U64(1)
        z += _mulhi(g0lo, g0hi, cp0, cp1)
        y1 += z >> _U64(63)
        z &= _LOW63
        z += _LOW63
        z >>= _U64(63)
        y1 |= z
        return y1

    cb = c << _U64(2)
    odd = c & _U64(1)  # an odd c does not own its interval's ends
    vb = round_to_odd(cb << h)
    vbl = round_to_odd((cb - _U64(2) + narrow_below.astype(np.uint64)) << h) + odd
    vbr = round_to_odd((cb + _U64(2)) << h) - odd
    s = vb >> _U64(2)
    sp10 = (s // _U64(10)) * _U64(10)
    tp10 = sp10 + _U64(10)
    upin = vbl <= sp10 << _U64(2)
    wpin = tp10 << _U64(2) <= vbr
    t = s + _U64(1)
    uin = vbl <= s << _U64(2)
    win = t << _U64(2) <= vbr
    mid = (s << _U64(2)) + _U64(2)
    s_nearer = (vb < mid) | ((vb == mid) & ((s & _U64(1)) == 0))
    # the one multiple of 10 in the interval if there is one, sp10 or tp10,
    # else the nearer of s and t; picked by arithmetic, as np.where
    # branches per element and these choices are not predictable
    multiple = sp10 + ~upin * _U64(10)
    digits = s + ~(uin & (~win | s_nearer))
    digits += (upin != wpin) * (multiple - digits)
    return digits, scales[row]


def _ascii8(x: np.ndarray) -> np.ndarray:
    """The 8 decimal digits of each x < 10**8 as ASCII, the first digit in
    the lowest byte of the word (SWAR: 4-, 2- and 1-digit lanes)."""
    hi = x // _U64(10000)
    v = hi | ((x - hi * _U64(10000)) << _U64(32))
    q = ((v * _U64(5243)) >> _U64(19)) & _U64(0x0000007F0000007F)  # lane // 100
    v = q | ((v - q * _U64(100)) << _U64(16))
    q = ((v * _U64(103)) >> _U64(10)) & _U64(0x000F000F000F000F)  # lane // 10
    v = q | ((v - q * _U64(10)) << _U64(8))
    return v + _U64(0x3030303030303030)


_NON_FINITE = {name: _words(text.rjust(24, b"\0"))
               for name, text in (("nan", b"nan"), ("inf", b"inf"), ("-inf", b"-inf"))}


def repr_join(values, width: int, first: int = 0, sep: bytes = b",",
              row_end: bytes = b"\r\n", int_columns=()) -> bytes:
    """The text of a run of cells of a row-major table ``width`` cells wide,
    the first in column ``first``: each cell as repr(float(v)) followed by
    ``sep``, or by ``row_end`` after the last cell of a row.

    A cell in ``int_columns`` is written as repr(int(v)); it must hold an
    integer below 2**53 in magnitude, else a ValueError names its column
    before any text is made. NaN and +-Inf are "nan", "inf" and
    "-inf" as repr spells them. ``sep`` and ``row_end`` hold at most 2
    bytes and no NUL. One call's temporaries are a few dozen arrays of
    ``len(values)`` words; repr_table_chunks streams a table through it.
    """
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    if len(sep) > 2 or len(row_end) > 2 or b"\0" in sep + row_end:
        raise ValueError(f"separators {sep!r} and {row_end!r} must be 0-2 bytes and no NUL")
    _, _, exponent, sub, keep = _repr_tables()
    # cell i is in column (first + i) % width: a column's cells are a slice
    int_slices = []
    for column in int_columns:
        if not 0 <= column < width:
            raise ValueError(f"integer column {column} is outside a table {width} wide")
        part = slice((column - first) % width, None, width)
        ints = values[part]
        exact = (np.abs(ints) < 2.0 ** 53) & (np.trunc(ints) == ints)
        if not exact.all():
            raise ValueError(f"integer column {column} holds {float(ints[~exact][0])!r}, "
                             "not an integer below 2**53 in magnitude")
        int_slices.append(part)

    # the digits and scale of each finite nonzero value; 0 and the
    # non-finite stand in as 1.0 and are spelled apart below
    bits = values.view(np.uint64)
    neg = (bits >> _U64(63)).astype(np.intp)
    for part in int_slices:
        neg[part] = values[part] < 0  # repr(int(-0.0)) is '0'
    finite = np.isfinite(values)
    zero = values == 0.0
    positive = bits & _LOW63
    positive[zero | ~finite] = 0x3FF0_0000_0000_0000
    digits, k = _shortest(positive)
    # strip the trailing zeros of the digits that end in 0: n significant
    # digits, the first of them worth 10**(decpt - 1)
    tenth = digits // _U64(10)
    tail = np.flatnonzero(tenth * _U64(10) == digits)
    stripped, trailing = tenth[tail], np.ones(tail.size, dtype=np.intp)
    for step in (8, 4, 2, 1):  # digits < 10**17 end in at most 16 zeros
        q = stripped // _POW10[step]
        hit = q * _POW10[step] == stripped
        stripped += hit * (q - stripped)
        trailing += hit * step
    digits[tail] = stripped
    n = _digit_count(digits)
    decpt = n + k
    decpt[tail] += trailing
    digits[zero] = 0

    # One integer m whose digits, right-aligned, are the text without sign
    # and exponent, a 0 standing where the point goes, and the point's place
    # (24 for none) and the text's length: every cell spelled as
    #   "0.000ddd" (decpt <= 0), "dd.ddd" or "ddd000.0" (decpt >= n),
    # then the scientific cells as "d.ddd" and the integer cells as "ddd000".
    fixed = np.clip(decpt, -3, 16)
    m = digits * _POW10[np.maximum(fixed - n + 1, 0)]
    point = np.maximum(n - fixed, 1)  # digits after it
    length = 1 + np.maximum(n, fixed + 1) + np.maximum(1 - fixed, 0)
    sci = np.flatnonzero(decpt != fixed)  # integers below 2**53 have decpt <= 16
    m[sci], places = digits[sci], n[sci]
    point[sci] = np.where(places > 1, places - 1, 24)
    length[sci] = places + (places > 1)
    for part in int_slices:
        m[part] = digits[part] * _POW10[decpt[part] - n[part]]
        point[part] = 24
        length[part] = decpt[part]
    below = _POW10[np.minimum(point, 19)]
    m += (m // below) * below * _U64(9)

    # m < 10**18 as 24 ASCII digits in three words, then "e+XX" and the
    # separator in the 4th; then the point, sign and leading-zero mask from
    # the table, whose 4th word leaves the 4th alone. Each cell's text is
    # one run of nonzero bytes, which the final compress copies fastest.
    top = m // _U64(10 ** 16)
    rest = m - top * _U64(10 ** 16)
    mid = rest // _U64(10 ** 8)
    tens = (top * _U64(103)) >> _U64(10)
    cells = np.empty((values.size, 4), dtype=np.uint64)
    cells[:, 0] = _U64(0x3030303030303030) + (tens << _U64(48)) + (
        (top - tens * _U64(10)) << _U64(56))
    cells[:, 1] = _ascii8(mid)
    cells[:, 2] = _ascii8(rest - mid * _U64(10 ** 8))
    cells[:, 3] = int.from_bytes(sep, "little")
    cells[width - 1 - first::width, 3] = int.from_bytes(row_end, "little")
    e = decpt[sci] - 1  # "e+XX" or "e+XXX", then the separator
    cells[sci, 3] = exponent[e + 324] | cells[sci, 3] << (
        _U64(32) + _U64(8) * (np.abs(e) >= 100))
    fix = (point * 25 + length) * 2 + neg
    cells -= np.take(sub, fix, axis=0)
    cells &= np.take(keep, fix, axis=0)
    if not finite.all():
        bad = ~finite
        cells[bad, :3] = np.where(
            np.isnan(values[bad])[:, None], _NON_FINITE["nan"],
            np.where(neg[bad, None] == 1, _NON_FINITE["-inf"], _NON_FINITE["inf"]))
    # the words hold their first character in the lowest byte
    text = cells.astype("<u8", copy=False).view(np.uint8).reshape(-1)
    return text[text != 0].tobytes()


def repr_table_chunks(table, sep: bytes, row_end: bytes, int_columns=()):
    """Yield the text of the cells of a 2-D table as `repr_join` spells
    them, TEXT_CHUNK cells per call and per chunk."""
    table = np.asarray(table, dtype=np.float64)
    flat = table.reshape(-1)
    width = table.shape[1]
    for start in range(0, flat.size, TEXT_CHUNK):
        yield repr_join(flat[start:start + TEXT_CHUNK], width, start % width,
                        sep, row_end, int_columns)


def write_csv(path, header, table, int_columns=()) -> str:
    """Write a header row and the rows of a 2-D float64 table as CSV, and
    return the hex sha256 of the bytes written. ``table`` is a 2-D
    array-like, or an iterator of 2-D blocks of its rows in order, each
    made as the text reaches it.

    The header goes through csv.writer, which quotes names where needed,
    and is encoded as open() encodes text, in the encoding read_table reads
    it with. Each cell is written as repr(float(v)), which round-trips every
    float64 exactly, or as repr(int(v)) in ``int_columns`` (an epoch, a
    label); `repr_join` makes that text for TEXT_CHUNK cells at a time, each
    chunk written and hashed as it is made. Every line ends in "\\r\\n" as
    csv.writer's do: the bytes equal those of csv.writer given those cells.

    Only save_csv uses the hash, as the key of the parsed table it stores;
    hashing while writing ties that key to the bytes written, with no read
    back. The other writers' files are small (K-column matrices, one
    metrics row per epoch), so they share the one path for the cost of
    hashing those bytes.
    """
    line = io.StringIO(newline="")
    csv.writer(line).writerow(header)
    blocks = table if isinstance(table, Iterator) else (table,)
    text = (chunk for block in blocks
            for chunk in repr_table_chunks(block, b",", b"\r\n", int_columns))
    chunks = itertools.chain(
        [line.getvalue().encode(locale.getpreferredencoding(False))], text)
    return write_hashed(path, chunks)


def write_hashed(path, chunks) -> str:
    """Write byte ``chunks`` to ``path`` (`atomic_write`), hashing each as
    it is written, and return the hex sha256 of the bytes written."""
    digest = hashlib.sha256()
    with atomic_write(path) as f:
        for chunk in chunks:
            digest.update(chunk)
            f.write(chunk)
    return digest.hexdigest()


def export_matrix_csv(matrix, path) -> None:
    """Write a K x C class-indexed matrix (a `cmatrix.csv`, an `analyze`
    table) as CSV with the class indices 0..C-1 as its header row."""
    matrix = np.asarray(matrix, dtype=np.float64)
    write_csv(path, [str(i) for i in range(matrix.shape[1])], matrix)


def write_json(path, doc) -> None:
    """Write ``doc`` (tuples as lists) indented by 2 with sorted keys and a
    final newline: every JSON artifact but the one-line checkpoint."""
    with atomic_write(path) as f:
        f.write((json.dumps(doc, indent=2, sort_keys=True) + "\n").encode())


@contextmanager
def atomic_write(path):
    """Open a new hidden file beside ``path`` for binary writing and, when
    the block ends without an error, rename it onto ``path``: a reader finds
    the old file or the whole new one. After an error the new file is
    removed and ``path`` is as it was."""
    head, name = os.path.split(os.fspath(path))
    temp = os.path.join(head, f".{name}.{secrets.token_hex(4)}.tmp")
    try:
        with open(temp, "xb") as f:
            yield f
        os.replace(temp, path)
    except BaseException:
        with suppress(OSError):
            os.remove(temp)
        raise


@contextmanager
def json_document(path, keys):
    """Read the JSON document at ``path``, reject it as a ValueError naming
    the file when it lacks one of ``keys``, and report a value of the wrong
    type for its use in the block (the TypeError it raises) the same way."""
    with open(path) as f:
        doc = json.load(f)
    try:
        missing = [key for key in keys if key not in doc]
        if missing:
            raise ValueError(f"{path}: missing keys {missing}")
        yield doc
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
    """Write a dataset in the format load_csv reads (floats via repr, the
    label last as an int) under `data_header`, and store its table as the
    file's parsed-table sidecar: repr round-trips every float64, so the
    parse of the bytes written is that table, stored as load_csv keeps it:
    the features as ``lead`` and the labels as ``last``. A table with NaN or
    Inf gets no sidecar. The CSV text is made from blocks of about
    TEXT_CHUNK values of whole rows, so a save holds no copy of the
    features."""
    header = data_header(dataset.num_features, label_column)
    features, labels = dataset.features, dataset.labels
    step = max(1, TEXT_CHUNK // len(header))
    blocks = (np.column_stack((features[start:start + step], labels[start:start + step]))
              for start in range(0, len(dataset), step))
    sha256 = write_csv(path, header, blocks, int_columns=(dataset.num_features,))
    if np.isfinite(features).all():
        store_parsed(path, DATA_PARSED_VERSION, sha256,
                     {"lead": features, "last": labels.astype(np.float64)})


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
