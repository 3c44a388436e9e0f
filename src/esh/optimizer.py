"""Training the projection W on the Stiefel manifold.

The objective trades off similarity preservation against quantization
error:

    L(W) = -(1/n) tr(W^T S W) + (alpha/2n) || |XW| - 1 ||_F^2

subject to W^T W = I, where the similarity S = K^T K comes as its m x d
factor K (anchor_graph.similarity_factor) and is never formed. One
training loop takes either of two step rules: projected gradient descent
(esh1), which re-orthonormalizes after every Euclidean step via an SVD,
and a Cayley-transform move along a curve on the manifold with a
Barzilai-Borwein step size (esh2), which stays feasible by construction.

Cost: the Gram term X^T X is formed once, in O(n d^2) time, and folded
with K^T K into one d x d matrix. After that an iteration costs one
n x d x k product in float32, whose result is used only for the signs of
XW, one d x d x k product, and one float64 product over the rows where a
sign flipped. The signs come from kernels.float32_signs, which linear
encoding shares: it bounds the float32 product's rounding error and
recomputes in float64 every entry within that bound of zero, so they are
the float64 signs.

Memory: training holds the rows X once, at their own precision (esh
train passes float32 standardized rows), plus K, one d x d float64 matrix
H, per-row norm bounds and n x k int8 signs. Float64 rows are never
formed whole: X^T X, the first X^T sgn(XW), auto_alpha's XW, the sign
rechecks and the flip updates each read float64 copies of a block of
about BLOCK_VALUES values (kernels.row_blocks) or of just the rows they
need (kernels.rows64). H is summed into its own buffer a column panel at
a time, so no other d x d array is formed. Float64 rows given to train
get one float32 copy for the sign product.
"""

import csv
import time
from dataclasses import dataclass

import numpy as np

from .kernels import block_rows, float32_signs, row_blocks, row_norm_bounds, rows64

TAU_MIN = 1e-10
TAU_MAX = 1e3
AUTO_ALPHA_FLOOR = 1e-12
PROJECT_RANK_FLOOR = 1e-12
# rows per panel of H's upper triangle; a panel's product is a GRAM_PANEL x d temporary
GRAM_PANEL = 128


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


def _upper_panel(At, p, buf):
    """Panel p of the upper triangle of At At^T, At[p] At[p.start:]^T, into buf."""
    T = buf[: (p.stop - p.start) * (At.shape[0] - p.start)].reshape(p.stop - p.start, -1)
    return np.matmul(At[p], At[p.start :].T, out=T)


def _fold(X, K, alpha):
    """H = (alpha X^T X - 2 K^T K)/n in one d x d float64 buffer.

    The upper triangle is built a panel of GRAM_PANEL rows at a time: X^T X
    from float64 copies of blocks of about BLOCK_VALUES values of rows,
    stored transposed, then K^T K, each panel's product into one
    GRAM_PANEL x d temporary. The lower triangle is then mirrored from the
    upper, so H is exactly symmetric. On 5000 x 1024 float32 rows (2-vCPU
    x86-64, one BLAS thread, medians of 12 interleaved runs) 256-row
    blocks and 128-row panels summed X^T X in 174 ms, against 157 ms for
    one syrk per 1024-row block, which needs two more d x d arrays.
    256-row panels, or syrk on the diagonal blocks, took as long; panels of
    the lower triangle from untransposed blocks took longer.
    """
    n, d = X.shape
    panels = [slice(j, min(j + GRAM_PANEL, d)) for j in range(0, d, GRAM_PANEL)]
    H = np.zeros((d, d))
    buf = np.empty(min(d, GRAM_PANEL) * d)
    rows = min(n, block_rows(d))
    block = np.empty((d, rows))  # a block of rows, transposed
    for i in range(0, n, rows):
        bt = block[:, : min(rows, n - i)]
        bt[...] = X[i : i + rows].T
        for p in panels:
            H[p, p.start :] += _upper_panel(bt, p, buf)
    for p in panels:
        U = H[p, p.start :]
        # (alpha X^T X - 2 K^T K)/n in place: the halving and doubling are exact
        U *= 0.5 * alpha
        U -= _upper_panel(K.T, p, buf)
        U *= 2.0
        U /= n
    for p in panels:
        H[p.stop :, p] = H[p, p.stop :].T
        D = H[p, p]
        lower = np.tril_indices(D.shape[0], -1)
        D[lower] = D.T[lower]
    return H


class _Objective:
    """Loss and Euclidean gradient of one training problem, one W at a time.

    Set-up folds both d x d terms into H = (alpha X^T X - 2 K^T K)/n, so that

        G = H W - (alpha/n) P,  with P = X^T sgn(XW),
        L = tr(W^T H W)/2 - (alpha/n) tr(W^T P) + (alpha/2n) nnz(sgn(XW)).

    X holds the rows at their own precision: float32 rows are used as they
    are, float64 rows get one float32 copy for the sign product. XW enters
    only through its signs, taken by float32_signs from one float32 product
    with per-row norm bounds, with the entries inside its rounding band
    recomputed in float64 from X. P is kept from call to call and updated
    only where a sign changed: a flip adds a multiple of x_i to one column.
    Every float64 product with the rows (X^T X, the first P, the sign
    rechecks and the flip updates) reads float64 copies of a block of
    rows, or of flipped rows, at a time. A call is therefore one n x d x k
    product in float32, one d x d x k product in float64 and the flip
    update; set-up is the O(n d^2) Gram matrix.
    """

    def __init__(self, X, K, alpha):
        n = X.shape[0]
        self.X = X
        with np.errstate(over="ignore"):  # rows past float32 range get an infinite band
            self.X32 = X.astype(np.float32, copy=False)
        self.x_norms = row_norm_bounds(X)
        self.scale = alpha / n
        self.H = _fold(X, K, alpha)
        self.B = None  # int8 sgn(XW) at the last call
        self.Pt = None  # P^T = B^T X, (k, d)

    def signs(self, W):
        """sgn(XW) as int8, equal to the sign of the float64 product."""
        def recheck(rows, cols):
            # a block gathers rows and columns of W: BLOCK_VALUES values in all
            z = np.empty(rows.size)
            for b in row_blocks(rows.size, 2 * W.shape[0]):
                z[b] = np.einsum("ij,ij->i", rows64(self.X, rows[b]), W.T[cols[b]])
            return z
        w_norm = np.sqrt(np.einsum("ij,ij->j", W, W).max())
        return float32_signs(self.X32, W.astype(np.float32), self.x_norms, w_norm, recheck)

    def _add_flips(self, B):
        """P^T += (B - B_old)^T X over the rows where a sign flipped: one
        float64 product per block of those rows."""
        hit = np.flatnonzero((B != self.B).any(axis=1))
        change = B[hit] - self.B[hit]  # int8 in -2..2
        for b in row_blocks(hit.size, self.X.shape[1]):
            self.Pt += change[b].T.astype(np.float64) @ rows64(self.X, hit[b])

    def __call__(self, W):
        B = self.signs(W)
        if self.B is None:
            self.Pt = np.zeros((W.shape[1], self.X.shape[1]))
            for b in row_blocks(*self.X.shape):
                self.Pt += B[b].T.astype(np.float64) @ np.asarray(self.X[b], dtype=np.float64)
        else:
            self._add_flips(B)
        self.B = B
        HW = self.H @ W
        G = HW - self.scale * self.Pt.T
        loss = (0.5 * np.einsum("ij,ij->", W, HW) - self.scale * np.einsum("ij,ji->", W, self.Pt)
                + 0.5 * self.scale * np.count_nonzero(B))
        return loss, G


def auto_alpha(W0, X, K):
    """Balance the two loss terms at the starting point.

    alpha = |2 T1 / T2| with T1 = -|K W0|_F^2 / n the similarity term and
    T2 the unscaled quantization term at W0, which is summed over float64
    copies of a block of rows at a time. Errors out when the quantization term is
    numerically zero (all projections already at +-1), since the ratio is
    then meaningless.
    """
    n = X.shape[0]
    KW = K @ W0
    t1 = -np.einsum("ij,ij->", KW, KW) / n
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


@dataclass(eq=False)
class TrainTrace:
    """History with exactly one row per executed iteration (1-based).

    The loss at the starting point W0 is kept separately in initial_loss;
    it is not a trace row. elapsed_ms is the wall clock from that initial
    evaluation to the end of each row's iteration. == is identity; compare
    the fields with np.array_equal.
    """

    iteration: np.ndarray
    loss: np.ndarray
    orth_residual: np.ndarray
    step_size: np.ndarray
    elapsed_ms: np.ndarray
    alpha: float
    initial_loss: float

    def to_csv(self, path):
        """Write the trace without elapsed_ms, which is wall clock, so that
        identical runs write identical bytes."""
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(("iteration", "loss", "orth_residual", "step_size"))
            for i in range(len(self.iteration)):
                w.writerow([
                    int(self.iteration[i]),
                    repr(float(self.loss[i])),
                    repr(float(self.orth_residual[i])),
                    repr(float(self.step_size[i])),
                ])


def _prepare(X, K, cfg):
    X = np.asarray(X)
    if X.dtype != np.float32:
        X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValueError(f"X must be (n, d) with n >= 1, got {X.shape}")
    K = np.asarray(K, dtype=np.float64)
    d = X.shape[1]
    if K.ndim != 2 or K.shape[0] < 1 or K.shape[1] != d:
        raise ValueError(f"similarity factor K must be (m, {d}) with m >= 1, got {K.shape}")
    # a block of rows at a time, so the check holds no n x d mask
    if not all(np.isfinite(X[b]).all() for b in row_blocks(*X.shape)):
        raise ValueError("X has non-finite values")
    if not np.isfinite(K).all():
        raise ValueError("K has non-finite values")
    W0 = init_projection(d, cfg.bits, cfg.seed)
    alpha = auto_alpha(W0, X, K) if cfg.alpha == "auto" else float(cfg.alpha)
    return X, K, W0, alpha


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


def train(X, K, cfg: TrainConfig):
    """Train W from the seeded start with cfg.algorithm's step rule, on the
    rows X and the (m, d) factor K of the similarity S = K^T K.

    Each iteration takes one step (W, G) -> (W_new, step size), then
    records loss, orth residual and step size, for exactly cfg.iters
    iterations.
    """
    X, K, W, alpha = _prepare(X, K, cfg)
    step = _STEP_RULES[cfg.algorithm](cfg)
    objective = _Objective(X, K, alpha)
    initial_loss, G = objective(W)
    t0 = time.perf_counter()
    loss, res, step_size, ms = (np.empty(cfg.iters) for _ in range(4))
    for i in range(cfg.iters):
        W, step_size[i] = step(W, G)
        loss[i], G = objective(W)
        res[i] = orth_residual(W)
        ms[i] = (time.perf_counter() - t0) * 1e3
    return W, TrainTrace(np.arange(1, cfg.iters + 1), loss, res, step_size, ms, alpha, initial_loss)
