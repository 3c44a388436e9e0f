"""Feature datasets: loading, standardization, synthesis and labels.

Features are (n, d) arrays held at their stored precision. Two on-disk
formats are supported: headerless CSV (one sample per row), loaded as
float64, and a binary container with magic "ESHF", whose float32 rows are
loaded as they are, without a float64 copy. Standardization and training
work in float64; linear encoding takes either precision. Labels are
integer ids, one line per sample, semicolons separating multiple ids.
"""

from dataclasses import dataclass

import numpy as np

from .container import FormatError, Reader, Writer

STD_FLOOR = 1e-12

FEATURE_MAGIC = b"ESHF"
FEATURE_VERSION = 1


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


def _check_finite(X, where):
    if np.isfinite(X).all():  # one pass; only a bad matrix pays for argwhere
        return
    r, c = np.argwhere(~np.isfinite(X))[0]
    raise FormatError(f"{where}non-finite value at row {r}, column {c}")


def _validate_matrix(X, where=""):
    """The matrix, if it is 2-D, non-empty and finite; `where` prefixes errors."""
    if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
        raise FormatError(f"{where}expected a non-empty 2-D feature matrix, got shape {X.shape}")
    _check_finite(X, where)
    return X


def load_features(path, fmt="infer"):
    """Load a feature matrix from `path`.

    fmt is 'csv', 'binary', or 'infer' (by extension: .eshf is binary,
    anything else CSV). CSV gives float64, binary its writable float32
    payload. Rejects empty matrices and non-finite entries.
    """
    path = str(path)
    if fmt == "infer":
        fmt = "binary" if path.endswith(".eshf") else "csv"
    if fmt == "csv":
        try:
            X = np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64)
        except ValueError as e:
            raise FormatError(f"CSV parse failure in {path}: {e}") from None
        return _validate_matrix(X, f"{path}: ")
    if fmt == "binary":
        with Reader(path, FEATURE_MAGIC, FEATURE_VERSION, "feature") as r:
            X = r.array("<f4", r.shape(2), writable=True)
        return _validate_matrix(X, f"{path}: ")
    raise ValueError(f"unknown feature format {fmt!r}")


def save_features(X, path, fmt="infer"):
    """Write a feature matrix; binary stores little-endian float32."""
    X = np.asarray(X, dtype=np.float64)
    _validate_matrix(X)
    path = str(path)
    if fmt == "infer":
        fmt = "binary" if path.endswith(".eshf") else "csv"
    if fmt == "csv":
        np.savetxt(path, X, delimiter=",", fmt="%.17g")
    elif fmt == "binary":
        Writer(FEATURE_MAGIC, FEATURE_VERSION).fields("QQ", *X.shape).array(X, "<f4").save(path)
    else:
        raise ValueError(f"unknown feature format {fmt!r}")


def load_labels(path, kind=None):
    """Load a label file; kind is inferred unless given."""
    rows = []
    with open(path) as f:
        for i, line in enumerate(f):
            line = line.strip()
            if not line:
                raise FormatError(f"label row {i} is empty")
            try:
                rows.append(tuple(int(tok) for tok in line.split(";")))
            except ValueError:
                raise FormatError(f"label row {i} is not semicolon-separated integers") from None
    if not rows:
        raise FormatError(f"{path}: no labels")
    if kind is None:
        kind = "single" if all(len(r) == 1 for r in rows) else "multi"
    return LabelSet(kind, tuple(rows))


def save_labels(labels, path):
    with open(path, "w") as f:
        for row in labels.labels:
            f.write(";".join(str(v) for v in row) + "\n")


def standardize(X):
    """Center each column and scale it to unit population variance.

    Returns the transformed matrix and the stats needed to apply the same
    transform to queries later. Constant columns map to zero (std floored
    at STD_FLOOR). Requires n >= 2.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    if X.shape[0] < 2:
        raise ValueError("standardization needs at least 2 samples")
    mean = X.mean(axis=0)
    std = X.std(axis=0)  # population convention (divide by n)
    std = np.maximum(std, STD_FLOOR)
    stats = StandardizationStats(mean=mean, std=std)
    return apply_standardization(X, stats), stats


def apply_standardization(x, stats):
    """(x - mean) / std elementwise; accepts one row or a matrix."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != stats.mean.shape[0]:
        raise ValueError(f"dimension mismatch: got {x.shape[-1]}, stats have {stats.mean.shape[0]}")
    out = x - stats.mean
    out /= stats.std  # in place: one n x d temporary instead of two
    return out


def generate_synthetic(clusters, per_cluster, dims, spread, seed, center_scale=10.0):
    """Isotropic Gaussian blobs around well-separated random centers.

    Centers are drawn on the radius-`center_scale` sphere and redrawn until
    their pairwise distances are at least 0.7 * center_scale, so separation
    is controlled by the spread / center_scale ratio. Labels are blob ids.
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
        centers *= center_scale / norms
        diff = centers[:, None, :] - centers[None, :, :]
        d = np.sqrt((diff * diff).sum(-1))
        np.fill_diagonal(d, np.inf)
        if d.min() >= 0.7 * center_scale:
            break
    else:
        raise RuntimeError("could not place well-separated centers; too many clusters for dims")
    n = clusters * per_cluster
    X = np.repeat(centers, per_cluster, axis=0) + spread * rng.standard_normal((n, dims))
    ids = np.repeat(np.arange(clusters), per_cluster)
    return X, LabelSet.from_array(ids)
