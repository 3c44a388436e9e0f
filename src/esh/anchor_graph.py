"""Anchor graph construction.

A small set of k-means anchors stands in for the full dataset. Each sample
is tied to its s nearest anchors with Gaussian kernel weights, normalized to
sum to one per row. The resulting sparse matrix Z gives a low-rank affinity
A = Z diag(Z^T 1)^{-1} Z^T whose rows sum to one, so the graph Laplacian
degree matrix is the identity and the similarity target for training is
S = X^T A X, computed in factored form without ever forming A.
"""

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

LAMBDA_FLOOR = 1e-12
SIGMA_FLOOR = 1e-12


@dataclass(frozen=True)
class AnchorSet:
    """k-means anchor centers plus the kernel bandwidth and sparsity used."""

    centers: np.ndarray  # (m, d) float64
    sigma2: float
    s: int

    def __post_init__(self):
        if self.centers.ndim != 2 or self.centers.shape[0] < 1:
            raise ValueError("centers must be a non-empty (m, d) matrix")
        if not self.sigma2 > 0:
            raise ValueError("sigma2 must be positive")
        if not 1 <= self.s <= self.centers.shape[0]:
            raise ValueError("s must be in [1, m]")

    @property
    def m(self):
        return self.centers.shape[0]

    @cached_property
    def sq_norms(self):
        """Squared row norms of the centers, summed once per anchor set."""
        C = np.asarray(self.centers, dtype=np.float64)
        return (C * C).sum(axis=1)


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


def pairwise_sq_dists(X, C, x_sq=None, c_sq=None):
    """Squared Euclidean distances between rows of X and rows of C.

    One GEMM plus the norm expansion; clipped at zero to kill the tiny
    negatives the expansion produces. Callers that reuse X or C pass their
    row norms as x_sq or c_sq.
    """
    X = np.asarray(X, dtype=np.float64)
    C = np.asarray(C, dtype=np.float64)
    if x_sq is None:
        x_sq = (X * X).sum(axis=1)
    if c_sq is None:
        c_sq = (C * C).sum(axis=1)
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

    Empty clusters are reseeded to the point farthest from its nearest
    center (deterministic argmax). When sigma2 is not given it defaults to
    the mean squared distance from samples to their s-th nearest anchor,
    floored to avoid a degenerate kernel.
    """
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if not 1 <= m <= n:
        raise ValueError(f"anchor count must be in [1, n={n}], got {m}")
    if iters < 1:
        raise ValueError("iters must be >= 1")
    rng = np.random.default_rng(seed)
    x_sq = (X * X).sum(axis=1)
    centers = _kmeans_pp_init(X, m, rng, x_sq)
    for _ in range(iters):
        d2 = pairwise_sq_dists(X, centers, x_sq=x_sq)
        assign = d2.argmin(axis=1)
        counts = np.bincount(assign, minlength=m)
        # one-hot (m, n) CSR, columns ascending: sums rows in the order add.at would
        sums = sp.csr_matrix((np.ones(n), (assign, np.arange(n))), shape=(m, n)) @ X
        nonempty = counts > 0
        centers[nonempty] = sums[nonempty] / counts[nonempty, None]
        if not nonempty.all():
            nearest = d2.min(axis=1)
            for j in np.flatnonzero(~nonempty):
                far = int(nearest.argmax())
                centers[j] = X[far]
                nearest[far] = 0.0  # don't pick the same point twice
    if sigma2 is None:
        d2 = pairwise_sq_dists(X, centers, x_sq=x_sq)
        kth = np.sort(d2, axis=1)[:, min(s, m) - 1]
        sigma2 = float(kth.mean())
    sigma2 = max(float(sigma2), SIGMA_FLOOR)
    return AnchorSet(centers=centers, sigma2=sigma2, s=min(s, m))


def anchor_weights(x_rows, anchors: AnchorSet):
    """Indices and normalized kernel weights of the s nearest anchors.

    Shared by graph construction and query encoding so both produce
    identical rows. Ties in distance resolve to the lower anchor index
    (stable argsort). The exp is taken after subtracting each row's
    minimum squared distance; the shift cancels in the normalization, so
    weights are exact but can never all underflow to zero.
    """
    x_rows = np.atleast_2d(np.asarray(x_rows, dtype=np.float64))
    d2 = pairwise_sq_dists(x_rows, anchors.centers, c_sq=anchors.sq_norms)
    s = anchors.s
    order = np.argsort(d2, axis=1, kind="stable")[:, :s]
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

