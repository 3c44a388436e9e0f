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
Linear encoding takes either precision. Labels are integer ids, one line
per sample, semicolons separating multiple ids.
"""

import os
from dataclasses import dataclass

import numpy as np

from .container import FormatError, Reader, Writer
from .kernels import block_rows, row_blocks

STD_FLOOR = 1e-12
CENTER_SCALE = 10.0  # radius of the sphere generate_synthetic puts its centers on

FEATURE_MAGIC = b"ESHF"
FEATURE_VERSION = 1
FEATURE_HEAD = 21  # magic, version and the two uint64 dimensions


@dataclass(frozen=True)
class StandardizationStats:
    """Per-column mean and (floored) population standard deviation."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        if self.mean.shape != self.std.shape or self.mean.ndim != 1:
            raise ValueError("mean and std must be vectors of equal length")
        if np.any(self.std < STD_FLOOR):
            raise ValueError(f"std entries must be >= {STD_FLOOR}")


@dataclass(frozen=True)
class LabelSet:
    """Per-sample label ids. kind is 'single' or 'multi'."""

    kind: str
    labels: tuple

    def __post_init__(self):
        if self.kind not in ("single", "multi"):
            raise ValueError(f"unknown label kind {self.kind!r}")
        for i, row in enumerate(self.labels):
            if len(row) < 1:
                raise ValueError(f"sample {i} has no labels")
            if self.kind == "single" and len(row) != 1:
                raise ValueError(f"sample {i} has {len(row)} labels in single-label mode")

    def __len__(self):
        return len(self.labels)

    @classmethod
    def from_array(cls, ids):
        """Single-label set from a 1-D integer array."""
        ids = np.asarray(ids)
        return cls("single", tuple((int(v),) for v in ids))

    def single_array(self):
        """Labels as a 1-D int64 array; only valid for single-label sets."""
        if self.kind != "single":
            raise ValueError("not a single-label set")
        return np.fromiter((row[0] for row in self.labels), dtype=np.int64, count=len(self.labels))


def _check_finite(X, where, row0=0):
    """Raise naming the first non-finite entry; X's rows are numbered from row0."""
    if np.isfinite(X).all():  # one pass; only a bad matrix pays for argwhere
        return
    r, c = np.argwhere(~np.isfinite(X))[0]
    raise FormatError(f"{where}non-finite value at row {row0 + r}, column {c}")


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

    def blocks(self, extra=0):
        """The rows in the blocks that row_blocks(n, d + extra) cuts: those
        an encoder that also holds `extra` values per row cuts from the
        whole array. Fails, before the first block and after the last, if
        the file changed since it was opened, so two reads of one
        FeatureFile give the same rows."""
        self._check_unchanged()
        if self.payload is None:
            X = self._read_csv()
            for b in row_blocks(X.shape[0], X.shape[1] + extra):
                yield X[b]
        else:
            row0 = 0
            for X in self.payload.blocks(block_rows(self.payload.shape[1] + extra)):
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
        (X,) = self.payload.blocks(self.payload.shape[0])  # one read into one array
        for b in row_blocks(*X.shape):  # no n x d bool temporary
            _check_finite(X[b], f"{self.path}: ", b.start)
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
    """Load a label file; the kind is 'single' if every row holds one id.

    One int64 id per line parses in one streaming pass; other files are read
    again row by row, parsing multi-label rows and naming any bad row."""
    with open(path) as f:
        try:
            # int() takes the newline and surrounding blanks, as strip() did
            rows = tuple(zip(np.fromiter(map(int, f), dtype=np.int64).tolist()))
        except (ValueError, OverflowError):
            f.seek(0)
            rows = tuple(_label_row(line, i, path) for i, line in enumerate(f))
    if not rows:
        raise FormatError(f"{path}: no labels")
    return LabelSet("single" if all(len(r) == 1 for r in rows) else "multi", rows)


def _label_row(line, i, path):
    line = line.strip()
    if not line:
        raise FormatError(f"{path}: label row {i} is empty")
    try:
        row = tuple(map(int, line.split(";")))
    except ValueError:
        raise FormatError(f"{path}: label row {i} is not semicolon-separated integers") from None
    if min(row) < -(2**63) or max(row) >= 2**63:
        raise FormatError(f"{path}: label row {i} holds an id outside int64")
    return row


def save_labels(labels, path):
    with open(path, "w") as f:
        for row in labels.labels:
            f.write(";".join(str(v) for v in row) + "\n")


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
