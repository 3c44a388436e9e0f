"""Anchor graph construction.

A small set of k-means anchors stands in for the full dataset. Each sample
is tied to its s nearest anchors with Gaussian kernel weights, normalized to
sum to one per row. The resulting sparse matrix Z gives a low-rank affinity
A = Z diag(Z^T 1)^{-1} Z^T whose rows sum to one, so the graph Laplacian
degree matrix is the identity and the similarity target for training is
S = X^T A X, computed in factored form without ever forming A.

Distances are float64 (pairwise_sq_dists), but two steps read them only
through an order. Lloyd's assignment step takes its argmin from one
float32 product by kernels.float32_argmin, which rechecks in float64 the
rows whose two nearest centers its rounding bound cannot tell apart.
anchor_weights partitions each row at the (s+1)-th distance instead of
sorting all m, and sorts the rows where that distance ties the s-th.
Both give the indices of the float64 path, ties to the lower index, so
anchors, Z and S are as the float64 argmin and stable sort make them.
Row norms are summed a block of rows at a time.
"""

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .kernels import BLOCK_VALUES, float32_argmin

LAMBDA_FLOOR = 1e-12
SIGMA_FLOOR = 1e-12
# below this many distances (rows x anchors) a stable sort picks the s
# nearest anchors faster than a partition: on a 2-vCPU x86-64 host, 5
# against 35 us on one row, and even near 28 rows of 100 anchors and 6 of 300
SELECT_MIN_VALUES = 2048


def check_sigma2(sigma2):
    """Reject a kernel bandwidth that is not a finite positive number."""
    if not 0 < float(sigma2) < np.inf:  # NaN fails too
        raise ValueError(f"sigma2 must be finite and positive, got {sigma2}")


@dataclass(frozen=True)
class AnchorSet:
    """k-means anchor centers plus the kernel bandwidth and sparsity used."""

    centers: np.ndarray  # (m, d) float64
    sigma2: float
    s: int

    def __post_init__(self):
        if self.centers.ndim != 2 or self.centers.shape[0] < 1:
            raise ValueError("centers must be a non-empty (m, d) matrix")
        check_sigma2(self.sigma2)
        if not 1 <= self.s <= self.centers.shape[0]:
            raise ValueError("s must be in [1, m]")

    @property
    def m(self):
        return self.centers.shape[0]

    @cached_property
    def sq_norms(self):
        """Squared row norms of the centers, summed once per anchor set."""
        return sq_norms(np.asarray(self.centers, dtype=np.float64))


@dataclass(frozen=True)
class SparseAffinityRows:
    """Row-sparse Z: per sample, the indices and weights of its s anchors.

    indices is (n, s) int64 with distinct entries per row in [0, m);
    weights is (n, s) float64, nonnegative, each row summing to one.
    """

    indices: np.ndarray
    weights: np.ndarray
    m: int

    def __post_init__(self):
        if self.indices.shape != self.weights.shape or self.indices.ndim != 2:
            raise ValueError("indices and weights must share an (n, s) shape")
        if self.indices.min() < 0 or self.indices.max() >= self.m:
            raise ValueError("anchor index out of range")
        # distinctness within each row
        srt = np.sort(self.indices, axis=1)
        if np.any(srt[:, 1:] == srt[:, :-1]):
            raise ValueError("repeated anchor index within a row")
        if np.any(self.weights < 0):
            raise ValueError("negative affinity weight")
        if not np.allclose(self.weights.sum(axis=1), 1.0, atol=1e-9):
            raise ValueError("row weights must sum to one")

    @property
    def n(self):
        return self.indices.shape[0]

    @property
    def s(self):
        return self.indices.shape[1]

    def to_csr(self):
        n, s = self.indices.shape
        indptr = np.arange(0, n * s + 1, s)
        return sp.csr_matrix(
            (self.weights.ravel(), self.indices.ravel(), indptr), shape=(n, self.m)
        )


def sq_norms(X):
    """Squared row norms, (X * X).sum(axis=1) a block of rows at a time:
    each row gets the same pairwise sum, without an n x d temporary."""
    rows = max(1, BLOCK_VALUES // max(X.shape[1], 1))
    if X.shape[0] <= rows:
        return (X * X).sum(axis=1)
    out = np.empty(X.shape[0])
    for i in range(0, X.shape[0], rows):
        block = X[i : i + rows]
        out[i : i + rows] = (block * block).sum(axis=1)
    return out


def pairwise_sq_dists(X, C, x_sq=None, c_sq=None):
    """Squared Euclidean distances between rows of X and rows of C.

    One GEMM plus the norm expansion; clipped at zero to kill the tiny
    negatives the expansion produces. Callers that reuse X or C pass their
    row norms (sq_norms) as x_sq or c_sq.
    """
    X = np.asarray(X, dtype=np.float64)
    C = np.asarray(C, dtype=np.float64)
    if x_sq is None:
        x_sq = sq_norms(X)
    if c_sq is None:
        c_sq = sq_norms(C)
    d2 = x_sq[:, None] - 2.0 * (X @ C.T) + c_sq[None, :]
    return np.maximum(d2, 0.0)


def _kmeans_pp_init(X, m, rng, x_sq):
    # classic D^2 seeding
    n = X.shape[0]
    centers = np.empty((m, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    d2 = pairwise_sq_dists(X, centers[:1], x_sq=x_sq).ravel()
    for j in range(1, m):
        total = d2.sum()
        if total <= 0:
            # everything already coincides with a chosen center; any point works
            centers[j] = X[rng.integers(n)]
        else:
            centers[j] = X[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, pairwise_sq_dists(X, centers[j : j + 1], x_sq=x_sq).ravel())
    return centers


def fit_anchors(X, m, iters=10, seed=0, s=3, sigma2=None):
    """k-means anchors for X: k-means++ seeding then `iters` Lloyd rounds.

    Each round assigns every row the nearest center by
    kernels.float32_argmin on one float32 copy of X, the argmin of
    pairwise_sq_dists. Empty clusters are reseeded to the point farthest
    from its nearest center (deterministic argmax), which takes that
    round's float64 distances. When sigma2 is not given it defaults to
    the mean squared distance from samples to their s-th nearest anchor.
    Either is floored to avoid a degenerate kernel.
    """
    if sigma2 is not None:
        check_sigma2(sigma2)
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if not 1 <= m <= n:
        raise ValueError(f"anchor count must be in [1, n={n}], got {m}")
    if iters < 1:
        raise ValueError("iters must be >= 1")
    rng = np.random.default_rng(seed)
    x_sq = sq_norms(X)
    centers = _kmeans_pp_init(X, m, rng, x_sq)
    with np.errstate(over="ignore"):  # rows past float32 range get an infinite band
        X32 = X.astype(np.float32)
    for _ in range(iters):
        c_sq = sq_norms(centers)
        assign = float32_argmin(
            X32, x_sq, centers, c_sq,
            lambda rows: pairwise_sq_dists(X[rows], centers, x_sq=x_sq[rows], c_sq=c_sq))
        counts = np.bincount(assign, minlength=m)
        nonempty = counts > 0
        if not nonempty.all():  # the reseed reads every row's distance to this round's centers
            nearest = pairwise_sq_dists(X, centers, x_sq=x_sq, c_sq=c_sq).min(axis=1)
        # one-hot (m, n) CSR, columns ascending: sums rows in the order add.at would
        sums = sp.csr_matrix((np.ones(n), (assign, np.arange(n))), shape=(m, n)) @ X
        centers[nonempty] = sums[nonempty] / counts[nonempty, None]
        for j in np.flatnonzero(~nonempty):
            far = int(nearest.argmax())
            centers[j] = X[far]
            nearest[far] = 0.0  # don't pick the same point twice
    if sigma2 is None:
        d2 = pairwise_sq_dists(X, centers, x_sq=x_sq)
        kth = np.partition(d2, min(s, m) - 1, axis=1)[:, min(s, m) - 1]
        sigma2 = float(kth.mean())
    sigma2 = max(float(sigma2), SIGMA_FLOOR)
    return AnchorSet(centers=centers, sigma2=sigma2, s=min(s, m))


def _nearest_first(d2, s):
    """Columns of each row's s least entries, least first and ties to the
    lower column: np.argsort(d2, axis=1, kind="stable")[:, :s].

    Blocks of SELECT_MIN_VALUES distances or more partition at the (s+1)-th
    entry and order the s below it by (distance, column). The stable sort
    takes rows whose s-th and (s+1)-th distances are equal, where the
    partition chose among the ties, and s = m.
    """
    if s == d2.shape[1] or d2.size < SELECT_MIN_VALUES:
        return np.argsort(d2, axis=1, kind="stable")[:, :s]
    part = np.argpartition(d2, s, axis=1)
    idx = np.sort(part[:, :s], axis=1)  # by column, so the stable sort below keeps ties in order
    near = np.take_along_axis(d2, idx, axis=1)
    idx = np.take_along_axis(idx, np.argsort(near, axis=1, kind="stable"), axis=1)
    beyond = np.take_along_axis(d2, part[:, s : s + 1], axis=1)[:, 0]
    tied = np.flatnonzero(~(beyond > near.max(axis=1)))  # NaN rows too
    if tied.size:
        idx[tied] = np.argsort(d2[tied], axis=1, kind="stable")[:, :s]
    return idx


def anchor_weights(x_rows, anchors: AnchorSet):
    """Indices and normalized kernel weights of the s nearest anchors.

    Shared by graph construction and query encoding so both produce
    identical rows. Ties in distance resolve to the lower anchor index
    (_nearest_first). The exp is taken after subtracting each row's
    minimum squared distance; the shift cancels in the normalization, so
    weights are exact but can never all underflow to zero.
    """
    x_rows = np.atleast_2d(np.asarray(x_rows, dtype=np.float64))
    d2 = pairwise_sq_dists(x_rows, anchors.centers, c_sq=anchors.sq_norms)
    order = _nearest_first(d2, anchors.s)
    near = np.take_along_axis(d2, order, axis=1)
    shifted = near - near[:, :1]
    w = np.exp(-shifted / anchors.sigma2)
    w /= w.sum(axis=1, keepdims=True)
    return order, w


def build_affinity_rows(X, anchors: AnchorSet):
    """Sparse Z for the dataset: s nearest anchors per row, rows sum to 1."""
    idx, w = anchor_weights(X, anchors)
    return SparseAffinityRows(indices=idx, weights=w, m=anchors.m)


def anchor_mass(Z: SparseAffinityRows):
    """lambda = Z^T 1, the total affinity landing on each anchor."""
    return np.bincount(Z.indices.ravel(), weights=Z.weights.ravel(), minlength=Z.m)


def prune_dead_anchors(X, anchors: AnchorSet, Z: SparseAffinityRows):
    """Drop anchors with (near-)zero mass and rebuild Z until none remain.

    Removing an anchor can only redirect weight toward survivors, so the
    loop terminates; in practice one pass suffices.
    """
    lam = anchor_mass(Z)
    while np.any(lam < LAMBDA_FLOOR):
        keep = lam >= LAMBDA_FLOOR
        if not keep.any():
            raise ValueError("all anchors have zero mass; kernel bandwidth too small")
        kept = int(keep.sum())
        warnings.warn(
            f"dropping {anchors.m - kept} anchor(s) with no affinity mass",
            stacklevel=2,
        )
        anchors = AnchorSet(
            centers=anchors.centers[keep], sigma2=anchors.sigma2, s=min(anchors.s, kept)
        )
        Z = build_affinity_rows(X, anchors)
        lam = anchor_mass(Z)
    return anchors, Z, lam


def similarity_matrix(X, Z: SparseAffinityRows, lam):
    """S = X^T Z diag(lam)^{-1} Z^T X, symmetrized, without forming A.

    Cost is O(n d s) through the sparse product C = Z^T X; the n x n
    affinity never materializes.
    """
    X = np.asarray(X, dtype=np.float64)
    lam = np.asarray(lam, dtype=np.float64)
    if np.any(lam < LAMBDA_FLOOR):
        raise ValueError("anchor mass below floor; prune dead anchors first")
    C = Z.to_csr().T @ X  # (m, d)
    S = C.T @ (C / lam[:, None])
    return 0.5 * (S + S.T)

