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

What is held: the rows X at their own precision (training passes its one
float32 standardized copy), the float64 centers, and n x s indices and
weights. Everything float64 that reads the rows goes a block of rows at
a time (kernels.row_blocks): row norms, Lloyd's center sums, the
reseeding and nearest-anchor distances, and C = Z^T X for S. k-means++
seeding reads the rows as they are, and so does Lloyd's float32 product
when the rows are float32 (float64 rows get one float32 copy).
fit_anchor_graph takes the default sigma2 and Z from one such pass.
"""

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .kernels import float32_argmin, row_blocks

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
    """Squared row norms in float64, (X * X).sum(axis=1) on float64 copies
    of a block of rows at a time: each row gets the same pairwise sum as
    over the whole array, without an n x d temporary."""
    out = np.empty(X.shape[0])
    for b in row_blocks(*X.shape):
        x = np.asarray(X[b], dtype=np.float64)
        out[b] = (x * x).sum(axis=1)
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
    # classic D^2 seeding; each step is one matrix-vector product at the
    # rows' own precision, the rest of the distance in float64
    n = X.shape[0]
    centers = np.empty((m, X.shape[1]))

    def dists(j):
        c = centers[j : j + 1]
        d2 = x_sq - 2.0 * (X @ c.T.astype(X.dtype, copy=False)).ravel() + sq_norms(c)
        return np.maximum(d2, 0.0)

    centers[0] = X[rng.integers(n)]
    d2 = dists(0)
    for j in range(1, m):
        total = d2.sum()
        if total <= 0:
            # everything already coincides with a chosen center; any point works
            centers[j] = X[rng.integers(n)]
        else:
            centers[j] = X[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, dists(j))
    return centers


def _center_sums(X, assign, m):
    """Per center, the float64 sum of its rows in np.add.at order: row by
    row, ascending. One one-hot CSR matrix, columns ascending, multiplies
    float64 copies of a slab of columns at a time; within a slab each sum
    runs over all of its rows in that order."""
    n, d = X.shape
    one_hot = sp.csr_matrix((np.ones(n), (assign, np.arange(n))), shape=(m, n))
    sums = np.empty((m, d))
    for cols in row_blocks(d, n):  # slabs of columns, n values each
        sums[:, cols] = one_hot @ np.asarray(X[:, cols], dtype=np.float64)
    return sums


def _kmeans(X, m, iters, seed):
    """k-means++ seeding, then `iters` Lloyd rounds; float64 centers."""
    rng = np.random.default_rng(seed)
    x_sq = sq_norms(X)
    centers = _kmeans_pp_init(X, m, rng, x_sq)
    with np.errstate(over="ignore"):  # rows past float32 range get an infinite band
        X32 = X.astype(np.float32, copy=False)
    for _ in range(iters):
        c_sq = sq_norms(centers)
        assign = np.empty(X.shape[0], dtype=np.int64)
        for b in row_blocks(X.shape[0], max(X.shape[1], m)):
            rows_b, sq_b = X[b], x_sq[b]
            assign[b] = float32_argmin(
                X32[b], sq_b, centers, c_sq,
                lambda rows: pairwise_sq_dists(rows_b[rows], centers, x_sq=sq_b[rows], c_sq=c_sq))
        counts = np.bincount(assign, minlength=m)
        nonempty = counts > 0
        if not nonempty.all():  # the reseed reads every row's distance to this round's centers
            nearest = np.concatenate([
                pairwise_sq_dists(X[b], centers, x_sq=x_sq[b], c_sq=c_sq).min(axis=1)
                for b in row_blocks(X.shape[0], max(X.shape[1], m))])
        sums = _center_sums(X, assign, m)
        centers[nonempty] = sums[nonempty] / counts[nonempty, None]
        for j in np.flatnonzero(~nonempty):
            far = int(nearest.argmax())
            centers[j] = X[far]
            nearest[far] = 0.0  # don't pick the same point twice
    return centers


def fit_anchor_graph(X, m, iters=10, seed=0, s=3, sigma2=None):
    """k-means anchors for the rows X and the affinity rows Z they give X.

    k-means++ seeding takes one matrix-vector product per center at the
    rows' precision. Each of the `iters` Lloyd rounds assigns every row
    the nearest center by kernels.float32_argmin, from one float32
    product on the rows (or a float32 copy of float64 rows), the argmin
    of pairwise_sq_dists. Empty clusters are reseeded to the point
    farthest from its nearest center (deterministic argmax), which takes
    that round's float64 distances. Then one pass over the rows, a block
    at a time, finds each row's s nearest anchors: their distances give
    the default sigma2, the mean squared distance from samples to their
    s-th nearest anchor, and with sigma2 the weights of Z. Either sigma2
    is floored to avoid a degenerate kernel. Returns (AnchorSet, Z), equal
    to fit_anchors and build_affinity_rows on the same arguments.
    """
    if sigma2 is not None:
        check_sigma2(sigma2)
    X = np.asarray(X)
    n = X.shape[0]
    if not 1 <= m <= n:
        raise ValueError(f"anchor count must be in [1, n={n}], got {m}")
    if iters < 1:
        raise ValueError("iters must be >= 1")
    if not 1 <= s <= m:
        raise ValueError(f"s must be in [1, m={m}], got {s}")
    centers = _kmeans(X, m, iters, seed)
    idx, near = _nearest_anchors(X, centers, sq_norms(centers), s)
    if sigma2 is None:
        sigma2 = float(near[:, s - 1].mean())
    sigma2 = max(float(sigma2), SIGMA_FLOOR)
    anchors = AnchorSet(centers=centers, sigma2=sigma2, s=s)
    return anchors, SparseAffinityRows(indices=idx, weights=_kernel_weights(near, sigma2), m=m)


def fit_anchors(X, m, iters=10, seed=0, s=3, sigma2=None):
    """The anchor set of fit_anchor_graph, for callers that build Z later."""
    return fit_anchor_graph(X, m, iters=iters, seed=seed, s=s, sigma2=sigma2)[0]


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


def _nearest(X, centers, c_sq, s):
    """Per row of X, the columns (_nearest_first) and float64 squared
    distances (pairwise_sq_dists) of its s nearest centers."""
    d2 = pairwise_sq_dists(X, centers, c_sq=c_sq)
    idx = _nearest_first(d2, s)
    return idx, np.take_along_axis(d2, idx, axis=1)


def _nearest_anchors(X, centers, c_sq, s):
    """_nearest a block of rows at a time."""
    n = X.shape[0]
    idx = np.empty((n, s), dtype=np.int64)
    near = np.empty((n, s))
    for b in row_blocks(n, max(X.shape[1], centers.shape[0])):
        idx[b], near[b] = _nearest(X[b], centers, c_sq, s)
    return idx, near


def _kernel_weights(near, sigma2):
    """Gaussian weights of the nearest squared distances, normalized per
    row. The exp is taken after subtracting each row's minimum; the shift
    cancels in the normalization, so weights are exact but can never all
    underflow to zero."""
    w = np.exp(-(near - near[:, :1]) / sigma2)
    w /= w.sum(axis=1, keepdims=True)
    return w


def anchor_weights(x_rows, anchors: AnchorSet):
    """Indices and normalized kernel weights of the s nearest anchors, for
    one block of rows (graph encoding passes its blocks).

    Graph construction computes its rows the same way, so both produce
    identical rows. Ties in distance resolve to the lower anchor index
    (_nearest_first).
    """
    idx, near = _nearest(np.atleast_2d(x_rows), anchors.centers, anchors.sq_norms, anchors.s)
    return idx, _kernel_weights(near, anchors.sigma2)


def build_affinity_rows(X, anchors: AnchorSet):
    """Sparse Z for the dataset: s nearest anchors per row, rows sum to 1,
    a block of rows at a time."""
    idx, near = _nearest_anchors(X, anchors.centers, anchors.sq_norms, anchors.s)
    return SparseAffinityRows(indices=idx, weights=_kernel_weights(near, anchors.sigma2),
                              m=anchors.m)


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
    """S = X^T Z diag(lam)^{-1} Z^T X, without forming A.

    Cost is O(n d s) through the sparse product C = Z^T X, summed over
    float64 copies of a block of rows at a time; the n x n affinity never
    materializes. S is formed as K^T K with K = diag(lam)^{-1/2} C, which
    numpy takes by syrk, so it is symmetric without a d x d temporary.
    """
    X = np.asarray(X)
    lam = np.asarray(lam, dtype=np.float64)
    if np.any(lam < LAMBDA_FLOOR):
        raise ValueError("anchor mass below floor; prune dead anchors first")
    Zr = Z.to_csr()
    C = np.zeros((Z.m, X.shape[1]))
    for b in row_blocks(X.shape[0], X.shape[1]):
        C += Zr[b].T @ np.asarray(X[b], dtype=np.float64)  # (m, d)
    C /= np.sqrt(lam)[:, None]
    return C.T @ C
