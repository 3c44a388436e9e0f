"""Training the projection W on the Stiefel manifold.

The objective trades off similarity preservation against quantization
error:

    L(W) = -(1/n) tr(W^T S W) + (alpha/2n) || |XW| - 1 ||_F^2

subject to W^T W = I. One training loop takes either of two step rules:
projected gradient descent (esh1), which re-orthonormalizes after every
Euclidean step via an SVD, and a Cayley-transform move along a curve on
the manifold with a Barzilai-Borwein step size (esh2), which stays
feasible by construction.

Cost: the Gram term X^T X is formed once, in O(n d^2) time, and folded
with S into one d x d matrix. After that an iteration costs one n x d x k
product in float32, whose result is used only for the signs of XW, one
d x d x k product, and a sparse update where signs flipped. The signs come
from kernels.float32_signs, which linear encoding shares: it bounds the float32
product's rounding error and recomputes in float64 every entry within
that bound of zero, so they are the float64 signs.

Memory: training holds the rows X once, at their own precision (esh
train passes float32 standardized rows), plus two d x d float64 matrices
(S and H), per-row norm bounds and n x k int8 signs. Float64 rows are
never formed whole: the first X^T sgn(XW), auto_alpha's XW, the sign
rechecks and the flip updates each read float64 copies of a block of
rows (kernels.row_blocks) or of just the rows they need, and X^T X reads
blocks of BLOCK_VALUES values or of d rows, whichever is larger. Float64
rows given to train get one float32 copy for the sign product.
"""

import csv
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .kernels import BLOCK_VALUES, float32_signs, row_blocks, row_norm_bounds

TAU_MIN = 1e-10
TAU_MAX = 1e3
AUTO_ALPHA_FLOOR = 1e-12
PROJECT_RANK_FLOOR = 1e-12

TRACE_COLUMNS = ("iteration", "loss", "orth_residual", "step_size", "elapsed_ms")


def init_projection(d, k, seed):
    """Random start on the Stiefel manifold: project a Gaussian matrix."""
    if k > d:
        raise ValueError(f"cannot fit {k} orthonormal columns in {d} dimensions")
    rng = np.random.default_rng(seed)
    return stiefel_project(rng.standard_normal((d, k)))


def orth_residual(W):
    """max |W^T W - I| entrywise, the feasibility error."""
    k = W.shape[1]
    return float(np.abs(W.T @ W - np.eye(k)).max())


def stiefel_project(M):
    """Nearest matrix with orthonormal columns: U V^T from the thin SVD."""
    U, sv, Vt = np.linalg.svd(M, full_matrices=False)
    if sv[-1] < PROJECT_RANK_FLOOR:
        raise ValueError("matrix is rank deficient; no unique orthonormal projection")
    return U @ Vt


def _gram(X):
    """X^T X in float64, from float64 copies of blocks of at least d rows.
    numpy takes each block's b^T b by syrk, exactly symmetric; with d rows
    or more a block costs more to multiply than its d x d sum costs to add
    (on 5000 x 1024 rows, a 2-vCPU x86-64 host and one BLAS thread,
    256-row blocks took twice as long as one syrk over all rows)."""
    n, d = X.shape
    rows = min(n, max(d, BLOCK_VALUES // d))
    block = np.empty((rows, d))
    G = np.zeros((d, d))
    T = np.empty((d, d))
    for i in range(0, n, rows):
        b = block[: min(rows, n - i)]
        b[...] = X[i : i + rows]
        G += np.matmul(b.T, b, out=T)
    return G


class _Objective:
    """Loss and Euclidean gradient of one training problem, one W at a time.

    Set-up folds both d x d terms into H = (alpha X^T X - 2S)/n, so that

        G = H W - (alpha/n) P,  with P = X^T sgn(XW),
        L = tr(W^T H W)/2 - (alpha/n) tr(W^T P) + (alpha/2n) nnz(sgn(XW)).

    X holds the rows at their own precision: float32 rows are used as they
    are, float64 rows get one float32 copy for the sign product. XW enters
    only through its signs, taken by float32_signs from one float32 product
    with per-row norm bounds, with the entries inside its rounding band
    recomputed in float64 from X. P is kept from call to call and updated
    only where a sign changed: a flip adds a multiple of x_i to one column.
    Every float64 product with the rows (X^T X, the first P and the flip
    updates) reads float64 copies of a block of rows, or of flipped rows,
    at a time. A call is therefore one n x d x k product in float32, one
    d x d x k product in float64 and the sparse update; set-up is the
    O(n d^2) Gram matrix.
    """

    def __init__(self, X, S, alpha):
        n, d = X.shape
        self.X = X
        with np.errstate(over="ignore"):  # rows past float32 range get an infinite band
            self.X32 = X.astype(np.float32, copy=False)
        self.x_norms = row_norm_bounds(X)
        self.scale = alpha / n
        # (alpha X^T X - 2S)/n in place: the halving and doubling are exact
        H = _gram(X)
        H *= 0.5 * alpha
        H -= S
        H *= 2.0
        H /= n
        self.H = H
        self.B = None  # int8 sgn(XW) at the last call
        self.Pt = None  # P^T = B^T X, (k, d)

    def _rows64(self, rows):
        return np.asarray(self.X[rows], dtype=np.float64)

    def signs(self, W):
        """sgn(XW) as int8, equal to the sign of the float64 product."""
        def recheck(rows, cols):
            z = np.empty(rows.size)
            for b in row_blocks(rows.size, W.shape[0]):
                z[b] = np.einsum("ij,ij->i", self._rows64(rows[b]), W.T[cols[b]])
            return z
        w_norm = np.sqrt(np.einsum("ij,ij->j", W, W).max())
        return float32_signs(self.X32, W.astype(np.float32), self.x_norms, w_norm, recheck)

    def _add_flips(self, B):
        """P^T += (B - B_old)^T X over the rows where a sign flipped, a
        block of those rows at a time."""
        flips = np.flatnonzero(B != self.B)
        rows, cols = np.divmod(flips, B.shape[1])  # by row, then by column
        first = np.flatnonzero(np.diff(rows, prepend=-1))  # each flipped row's first flip
        hit = rows[first]
        # (k, flipped rows): entry (j, i) is the change in sgn(x_i . w_j)
        D = sp.csc_matrix((B.flat[flips] - self.B.flat[flips], cols, np.append(first, flips.size)),
                          shape=(B.shape[1], hit.size), dtype=np.float64)
        for b in row_blocks(hit.size, self.X.shape[1]):
            self.Pt += D[:, b] @ self._rows64(hit[b])

    def __call__(self, W):
        B = self.signs(W)
        if self.B is None:
            self.Pt = np.zeros((W.shape[1], self.X.shape[1]))
            for b in row_blocks(*self.X.shape):
                self.Pt += B[b].T.astype(np.float64) @ self._rows64(b)
        else:
            self._add_flips(B)
        self.B = B
        HW = self.H @ W
        G = HW - self.scale * self.Pt.T
        loss = (0.5 * np.einsum("ij,ij->", W, HW) - self.scale * np.einsum("ij,ji->", W, self.Pt)
                + 0.5 * self.scale * np.count_nonzero(B))
        return loss, G


def auto_alpha(W0, X, S):
    """Balance the two loss terms at the starting point.

    alpha = |2 T1 / T2| with T1 the similarity term and T2 the unscaled
    quantization term at W0, which is summed over float64 copies of a
    block of rows at a time. Errors out when the quantization term is
    numerically zero (all projections already at +-1), since the ratio is
    then meaningless.
    """
    n = X.shape[0]
    t1 = -np.einsum("ij,ij->", W0, S @ W0) / n
    t2 = 0.0
    for b in row_blocks(n, X.shape[1]):
        XW = np.asarray(X[b], dtype=np.float64) @ W0
        R = XW - np.sign(XW)
        t2 += np.einsum("ij,ij->", R, R)
    t2 /= n
    if t2 < AUTO_ALPHA_FLOOR:
        raise ValueError("quantization term vanishes at W0; cannot balance terms")
    alpha = abs(2.0 * t1 / t2)
    if alpha == 0.0:
        raise ValueError("similarity term vanishes at W0; cannot balance terms")
    return float(alpha)


def tangent_gradient(W, G):
    """Riemannian gradient under the canonical metric: G - W G^T W."""
    return G - W @ (G.T @ W)


def cayley_step(W, G, tau):
    """One Cayley move: Y = (I + tau/2 F)^{-1} (I - tau/2 F) W, F = G W^T - W G^T.

    With F = U V^T, U = [G, W], V = [W, -G] (Wen & Yin 2013), Woodbury gives
    Y = W - tau U (I + tau/2 V^T U)^{-1} V^T W: a 2k x 2k solve, O(d k^2 + k^3).
    F is skew, so I + tau/2 F and (determinant lemma) the 2k x 2k system are
    always invertible; Y keeps orthonormal columns up to the solve's rounding.
    """
    k = W.shape[1]
    U = np.hstack([G, W])
    VtU = np.hstack([W, -G]).T @ U  # its last k columns are V^T W
    return W - tau * (U @ np.linalg.solve(np.eye(2 * k) + 0.5 * tau * VtU, VtU[:, k:]))


def bb_step(step_diff, grad_diff, fallback):
    """Barzilai-Borwein step from successive iterate and gradient changes.

    tau = |tr(step_diff^T grad_diff)| / tr(grad_diff^T grad_diff), clamped
    to [TAU_MIN, TAU_MAX]. A vanishing denominator means the gradient has
    stopped moving; return the fallback then.
    """
    den = float(np.einsum("ij,ij->", grad_diff, grad_diff))
    if den <= 1e-30:
        return fallback
    num = abs(float(np.einsum("ij,ij->", step_diff, grad_diff)))
    return float(np.clip(num / den, TAU_MIN, TAU_MAX))


@dataclass
class TrainConfig:
    """Knobs for a training run. alpha is a float or the string 'auto'."""

    bits: int
    iters: int
    algorithm: str = "esh2"
    eta: float = 0.01
    alpha: object = "auto"
    tau0: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.bits < 1:
            raise ValueError("bits must be >= 1")
        if self.iters < 1:
            raise ValueError("iters must be >= 1")
        if self.algorithm not in _STEP_RULES:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if isinstance(self.alpha, str) and self.alpha != "auto":
            raise ValueError(f"alpha must be a number or 'auto', got {self.alpha!r}")
        numbers = ("eta", "tau0") + (() if self.alpha == "auto" else ("alpha",))
        for name in numbers:
            value = getattr(self, name)
            # NaN fails both comparisons, so it is caught here too
            if not 0 <= float(value) < np.inf:
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")


@dataclass
class TrainTrace:
    """History with exactly one row per executed iteration (1-based).

    The loss at the starting point W0 is kept separately in initial_loss;
    it is not a trace row.
    """

    iteration: np.ndarray
    loss: np.ndarray
    orth_residual: np.ndarray
    step_size: np.ndarray
    elapsed_ms: np.ndarray
    alpha: float
    initial_loss: float

    def to_csv(self, path, include_timing=True):
        """Write the trace. Timing is wall clock, so runs only reproduce
        byte-for-byte with include_timing=False."""
        cols = TRACE_COLUMNS if include_timing else TRACE_COLUMNS[:-1]
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(cols)
            for i in range(len(self.iteration)):
                row = [
                    int(self.iteration[i]),
                    repr(float(self.loss[i])),
                    repr(float(self.orth_residual[i])),
                    repr(float(self.step_size[i])),
                ]
                if include_timing:
                    row.append(repr(float(self.elapsed_ms[i])))
                w.writerow(row)


class _TraceBuilder:
    def __init__(self, alpha, initial_loss):
        self.rows = []
        self.alpha = alpha
        self.initial_loss = initial_loss
        self.t0 = time.perf_counter()

    def add(self, it, loss, res, step):
        ms = (time.perf_counter() - self.t0) * 1e3
        self.rows.append((it, loss, res, step, ms))

    def build(self):
        a = np.array(self.rows, dtype=np.float64).reshape(len(self.rows), 5)
        return TrainTrace(
            iteration=a[:, 0].astype(np.int64),
            loss=a[:, 1],
            orth_residual=a[:, 2],
            step_size=a[:, 3],
            elapsed_ms=a[:, 4],
            alpha=self.alpha,
            initial_loss=self.initial_loss,
        )


def _prepare(X, S, cfg):
    X = np.asarray(X)
    if X.dtype != np.float32:
        X = np.asarray(X, dtype=np.float64)
    S = np.asarray(S, dtype=np.float64)
    d = X.shape[1]
    if S.shape != (d, d):
        raise ValueError(f"similarity matrix must be ({d}, {d}), got {S.shape}")
    W0 = init_projection(d, cfg.bits, cfg.seed)
    alpha = auto_alpha(W0, X, S) if cfg.alpha == "auto" else float(cfg.alpha)
    return X, S, W0, alpha


def _projected_gradient(cfg):
    """esh1: a Euclidean step of size eta, then the SVD projection."""
    def step(W, G):
        return stiefel_project(W - cfg.eta * G), cfg.eta
    return step


def _cayley_bb(cfg):
    """esh2: a Cayley move with a Barzilai-Borwein step.

    The first move uses tau0; afterwards tau comes from the differences to
    the previous move's iterate and tangent gradient, keeping the previous
    tau when they degenerate. BB steps are not monotone, so the loss
    column can wiggle on its way down.
    """
    prev = None  # (W, tangent gradient, tau) of the previous move

    def step(W, G):
        nonlocal prev
        T = tangent_gradient(W, G)
        tau = cfg.tau0 if prev is None else bb_step(W - prev[0], T - prev[1], fallback=prev[2])
        prev = (W, T, tau)
        return cayley_step(W, G, tau), tau
    return step


_STEP_RULES = {"esh1": _projected_gradient, "esh2": _cayley_bb}


def train(X, S, cfg: TrainConfig):
    """Train W from the seeded start with cfg.algorithm's step rule.

    Each iteration takes one step (W, G) -> (W_new, step size), then
    records loss, orth residual and step size, for exactly cfg.iters
    iterations.
    """
    X, S, W, alpha = _prepare(X, S, cfg)
    step = _STEP_RULES[cfg.algorithm](cfg)
    objective = _Objective(X, S, alpha)
    loss, G = objective(W)
    tr = _TraceBuilder(alpha, loss)
    for it in range(1, cfg.iters + 1):
        W, step_size = step(W, G)
        loss, G = objective(W)
        tr.add(it, loss, orth_residual(W), step_size)
    return W, tr.build()
