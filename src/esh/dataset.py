"""Feature datasets: loading, standardization, synthesis and labels.

Features are (n, d) arrays held at their stored precision. The extension
picks the on-disk format: .eshf is a binary container with magic "ESHF",
whose float32 rows load as they are, without a float64 copy; anything
else is headerless CSV (one sample per row), loaded as float64.
FeatureFile is the one reader of both: it gives a file's rows whole
(load_features) or a block at a time, an .eshf file's read and checked
finite block by block, a CSV file's parsed whole. standardize keeps the
rows' precision: it computes in float64 a block of rows at a time
(BLOCK_VALUES values) and writes float32 rows for float32 input, into a
new array or back into the input, which training then holds as its one
copy of the rows.
Linear encoding takes either precision. A LabelSet holds every sample's
label ids in one int64 array with row starts; a label file is UTF-8 text,
one line per sample, semicolons separating multiple ids.
"""

import io
import os
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .container import FormatError, Reader, Writer
from .kernels import row_blocks

STD_FLOOR = 1e-12
CENTER_SCALE = 10.0  # radius of the sphere generate_synthetic puts its centers on

FEATURE_MAGIC = b"ESHF"
FEATURE_VERSION = 1
FEATURE_HEAD = 21  # magic, version and the two uint64 dimensions


@dataclass(frozen=True, eq=False)
class StandardizationStats:
    """Per-column mean and (floored) population standard deviation.

    == is identity; compare the fields with np.array_equal."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        if self.mean.shape != self.std.shape or self.mean.ndim != 1:
            raise ValueError("mean and std must be vectors of equal length")
        if np.any(self.std < STD_FLOOR):
            raise ValueError(f"std entries must be >= {STD_FLOOR}")


@dataclass(frozen=True, eq=False)
class LabelSet:
    """Per-sample label ids in one int64 layout: sample i carries
    ids[starts[i]:starts[i + 1]], at least one id each. A set is
    single-label when every sample carries exactly one id. == is
    identity; compare the fields with np.array_equal."""

    ids: np.ndarray
    starts: np.ndarray

    def __post_init__(self):
        if self.ids.dtype != np.int64 or self.ids.ndim != 1 or self.starts.dtype != np.int64:
            raise ValueError("label ids and row starts must be 1-D int64 arrays")
        if self.starts[:1].tolist() != [0] or self.starts[-1] != self.ids.size:
            raise ValueError("label row starts must run from 0 to the id count")
        empty = np.flatnonzero(np.diff(self.starts) < 1)
        if empty.size:
            raise ValueError(f"sample {empty[0]} has no labels")

    def __len__(self):
        return self.starts.size - 1

    def row(self, i):
        """The ids of sample i."""
        return self.ids[self.starts[i] : self.starts[i + 1]]

    @classmethod
    def from_array(cls, ids):
        """Single-label set from a 1-D integer array, whose ids must fit int64."""
        ids = np.asarray(ids)
        if ids.ndim != 1 or ids.dtype.kind not in "iu":
            raise ValueError(f"label ids must be a 1-D integer array, got {ids.dtype} {ids.shape}")
        if ids.dtype == np.uint64 and ids.size and ids.max() >= 2**63:
            raise ValueError("label ids must fit int64")
        return cls(ids.astype(np.int64), np.arange(ids.size + 1, dtype=np.int64))

    def single_array(self):
        """Labels as a 1-D int64 array; only valid for single-label sets."""
        if self.ids.size != len(self):
            raise ValueError("not a single-label set")
        return self.ids.copy()


def _check_finite(X, where, row0=0):
    """Raise naming the first non-finite entry; X's rows are numbered from
    row0. Checks a block of rows at a time, so no n x d bool mask is formed."""
    for b in row_blocks(*X.shape):
        if not np.isfinite(X[b]).all():  # only a bad block pays for argwhere
            r, c = np.argwhere(~np.isfinite(X[b]))[0]
            raise FormatError(f"{where}non-finite value at row {row0 + b.start + r}, column {c}")


def _validate_matrix(X, where=""):
    """The matrix, if it is 2-D, non-empty and finite; `where` prefixes errors."""
    if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
        raise FormatError(f"{where}expected a non-empty 2-D feature matrix, got shape {X.shape}")
    _check_finite(X, where)
    return X


def _stamp(path):
    """What changes when a file is rewritten or replaced."""
    st = os.stat(path)
    return st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns


class FeatureFile:
    """A feature file, read whole or a block of rows at a time.

    Opening an .eshf file reads its header and checks that the file holds
    exactly the n x d float32 payload it declares, so a truncated file or
    trailing bytes fail before any row is read; its rows are then read and
    checked finite a block at a time, and errors name the row's place in
    the whole file. A CSV file is parsed and checked whole when it is read.
    """

    def __init__(self, path):
        self.path = str(path)
        self.stamp = _stamp(self.path)
        self.payload = None  # a StoredArray for .eshf; CSV has no header
        if self.path.endswith(".eshf"):
            with Reader(self.path, FEATURE_MAGIC, FEATURE_VERSION, "feature",
                        head=FEATURE_HEAD) as r:
                self.payload = r.stream("<f4", r.shape(2))

    def blocks(self, rows):
        """The rows, `rows` to a block (the last may hold fewer). Fails,
        before the first block and after the last, if the file changed
        since it was opened, so two reads of one FeatureFile give the same
        rows."""
        self._check_unchanged()
        if self.payload is None:
            X = self._read_csv()
            for i in range(0, X.shape[0], rows):
                yield X[i : i + rows]
        else:
            row0 = 0
            for X in self.payload.blocks(rows):
                _check_finite(X, f"{self.path}: ", row0)
                row0 += X.shape[0]
                yield X
        self._check_unchanged()

    def _check_unchanged(self):
        if _stamp(self.path) != self.stamp:
            raise FormatError(f"{self.path}: file changed since it was opened")

    def _read_csv(self):
        try:
            X = np.loadtxt(self.path, delimiter=",", ndmin=2, dtype=np.float64)
        except ValueError as e:
            raise FormatError(f"CSV parse failure in {self.path}: {e}") from None
        return _validate_matrix(X, f"{self.path}: ")

    def read(self):
        """All the rows in one array: the writable float32 payload of an
        .eshf file, float64 for CSV."""
        if self.payload is None:
            return self._read_csv()
        (X,) = self.blocks(self.payload.shape[0])  # one read into one array
        return X


def load_features(path):
    """Load a feature matrix from `path`: .eshf files are binary, giving
    their writable float32 payload, anything else CSV, giving float64.
    Rejects empty matrices and non-finite entries.
    """
    return FeatureFile(path).read()


def save_features(X, path):
    """Write a feature matrix: .eshf as little-endian float32, refusing values
    beyond float32 range before anything is written; anything else as CSV."""
    X = np.asarray(X, dtype=np.float64)
    _validate_matrix(X)
    path = str(path)
    if not path.endswith(".eshf"):
        np.savetxt(path, X, delimiter=",", fmt="%.17g")
        return
    with np.errstate(over="ignore"):  # what overflows is inf, rejected next
        X32 = X.astype(np.float32)
    _check_finite(X32, f"{path}: beyond float32 range: ")
    Writer(FEATURE_MAGIC, FEATURE_VERSION).fields("QQ", *X32.shape).array(X32, "<f4").save(path)


def load_labels(path):
    """Load a UTF-8 label file, one sample per line, its ids separated by
    semicolons; a leading byte-order mark is skipped. The ids of every row
    parse in one stream; only a file that fails it is read again row by
    row, to name the bad row."""
    try:
        with open(path, encoding="utf-8-sig") as f:
            text = f.read()
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: not UTF-8 text ({e.reason})") from None
    if not text:
        raise FormatError(f"{path}: no labels")
    # a row holds one id more than it has semicolons
    counts = np.fromiter((line.count(";") + 1 for line in io.StringIO(text)), np.int64)
    starts = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    try:
        # one id per line once each ';' is a newline; int() takes the
        # newline and the blanks around the id
        ids = np.fromiter(map(int, io.StringIO(text.replace(";", "\n"))), np.int64, starts[-1])
    except (ValueError, OverflowError):
        for i, line in enumerate(io.StringIO(text)):
            _check_label_row(line, i, path)
        raise
    return LabelSet(ids, starts)


def _check_label_row(line, i, path):
    line = line.strip()
    if not line:
        raise FormatError(f"{path}: label row {i} is empty")
    try:
        row = tuple(map(int, line.split(";")))
    except ValueError:
        raise FormatError(f"{path}: label row {i} is not semicolon-separated integers") from None
    if min(row) < -(2**63) or max(row) >= 2**63:
        raise FormatError(f"{path}: label row {i} holds an id outside int64")


def save_labels(labels, path):
    """Write one line per sample, its ids separated by semicolons."""
    sep = np.full(labels.ids.size, ";")
    sep[labels.starts[1:] - 1] = "\n"
    with open(path, "w", encoding="utf-8") as f:
        f.write("".join(chain.from_iterable(zip(map(str, labels.ids.tolist()), sep.tolist()))))


def standardize(X, in_place=False):
    """Center each column and scale it to unit population variance.

    Returns the transformed rows at the input's precision (float32 for
    float32 input, float64 otherwise) and the float64 stats needed to
    apply the same transform to queries later. The column sums, the
    squared deviations from the mean and the rows are taken in float64 a
    block of rows at a time, so float32 input never has a float64 copy.
    With in_place, the rows are written back into X (float32 or float64),
    as each block is read before it is written. Constant columns map to
    zero (std floored at STD_FLOOR). Requires n >= 2.
    """
    X = np.asarray(X)
    if X.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    n = X.shape[0]
    if n < 2:
        raise ValueError("standardization needs at least 2 samples")
    out = X if in_place else np.empty(X.shape, np.float32 if X.dtype == np.float32 else np.float64)
    blocks = row_blocks(n, X.shape[1])
    mean = X.sum(axis=0, dtype=np.float64) / n  # buffered casts, no n x d temporary
    sq_dev = np.zeros_like(mean)
    for b in blocks:
        dev = X[b] - mean
        dev *= dev
        sq_dev += dev.sum(axis=0)
    std = np.maximum(np.sqrt(sq_dev / n), STD_FLOOR)  # population convention (divide by n)
    stats = StandardizationStats(mean=mean, std=std)
    for b in blocks:
        out[b] = apply_standardization(X[b], stats)
    return out, stats


def apply_standardization(x, stats):
    """(x - mean) / std elementwise in float64; accepts one row or a matrix."""
    x = np.asarray(x)
    if x.shape[-1] != stats.mean.shape[0]:
        raise ValueError(f"dimension mismatch: got {x.shape[-1]}, stats have {stats.mean.shape[0]}")
    # x is cast as the subtraction reads it, and divided in place: one
    # float64 result is the only temporary
    out = np.subtract(x, stats.mean, dtype=np.float64)
    out /= stats.std
    return out


def generate_synthetic(clusters, per_cluster, dims, spread, seed):
    """Isotropic Gaussian blobs around well-separated random centers.

    Centers are drawn on the radius-CENTER_SCALE sphere and redrawn until
    their pairwise distances are at least 0.7 * CENTER_SCALE, so separation
    is controlled by the spread / CENTER_SCALE ratio. Labels are blob ids.
    Bit-deterministic for a fixed seed.
    """
    if clusters < 2:
        raise ValueError("need at least 2 clusters")
    if per_cluster < 1:
        raise ValueError("need at least 1 point per cluster")
    if dims < 1:
        raise ValueError("need at least 1 dimension")
    if not spread > 0:
        raise ValueError("spread must be positive")
    rng = np.random.default_rng(seed)
    for _ in range(1000):
        centers = rng.standard_normal((clusters, dims))
        norms = np.linalg.norm(centers, axis=1, keepdims=True)
        if np.any(norms == 0):
            continue
        centers *= CENTER_SCALE / norms
        diff = centers[:, None, :] - centers[None, :, :]
        d = np.sqrt((diff * diff).sum(-1))
        np.fill_diagonal(d, np.inf)
        if d.min() >= 0.7 * CENTER_SCALE:
            break
    else:
        raise RuntimeError("could not place well-separated centers; too many clusters for dims")
    # drawn into one array: the same bytes as repeat(centers) + spread * noise
    X = rng.standard_normal((clusters * per_cluster, dims))
    X *= spread
    X.reshape(clusters, per_cluster, dims)[...] += centers[:, None, :]
    ids = np.repeat(np.arange(clusters), per_cluster)
    return X, LabelSet.from_array(ids)
