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
from float32_signs, which linear encoding shares: it bounds the float32
product's rounding error and recomputes in float64 every entry within
that bound of zero, so they are the float64 signs. Memory beyond X is a
float32 copy of X, d x d and n x k int8 signs.
"""

import csv
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

TAU_MIN = 1e-10
TAU_MAX = 1e3
AUTO_ALPHA_FLOOR = 1e-12
PROJECT_RANK_FLOOR = 1e-12
SIGN_BAND_SLACK = 1.01  # gamma_m = m u / (1 - m u) <= 1.01 m u while m u <= 0.0099
F32_UNIT = 2.0**-24  # unit roundoff u of float32
F64_UNIT = 2.0**-53
# g32 s >= 2^-149 sqrt(d) and g32 s^2 >= 2^-149 d for s = NORM_PAD: padding both
# norms by s adds at least 2^-149 (d + sqrt(d)(|x| + |w|)), the float32 underflow
NORM_PAD = 2.0**-60
F32_SAFE = 2.0**126  # while |x| |w| stays below this, no float32 product or sum overflows

TRACE_COLUMNS = ("iteration", "loss", "orth_residual", "step_size", "elapsed_ms")


def sgn(M, zero_rule="zero"):
    """Elementwise sign. zero_rule picks what sgn(0) means:

    'zero' (gradient path) keeps zeros at 0 so they contribute nothing;
    'one' (code path) maps them to +1 so every bit is +-1.
    """
    out = np.sign(np.asarray(M, dtype=np.float64))
    if zero_rule == "one":
        out[out == 0] = 1.0
    elif zero_rule != "zero":
        raise ValueError(f"unknown zero_rule {zero_rule!r}")
    return out


def float32_signs(X, W32, x_norms, w_norm, recheck):
    """sgn(z) as int8, sgn(0) = 0, for z_ij = x_i . w_j, from one float32
    product.

    X holds the rows x_i in float32 or float64 and W32 the float32
    rounding of float64 columns w_j; x_norms (n,) or a scalar bounds the
    rows' 2-norms from above and w_norm the columns'. Y = X W32, in
    float32, then lies within

        band_i = (gamma32_{d+2} + gamma64_{d+4}) |x_i| |w|

    of z (Higham 2002, 3.1), with NORM_PAD added to |x_i| and |w| so that
    float32 underflow is covered too. The float32 part is the dot product
    and two float32 roundings in the factors of each of its terms (one
    each of x and w in training; two of x, its centering and scaling, in
    encoding); the float64 part any float64 rounding of order |x||w| in
    the caller's x, w or z. Entries with |Y| > band have z's sign. The
    rest take the sign of recheck(rows, cols): z, or a positive multiple
    of it, at those entries in float64. Rows whose norms could overflow
    float32 get an infinite band, so they are rechecked whole and their
    float32 product is never read.
    """
    d = X.shape[1]
    gamma = SIGN_BAND_SLACK * ((d + 2) * F32_UNIT + (d + 4) * F64_UNIT)
    w_norm = float(w_norm) + NORM_PAD
    x_norms = np.asarray(x_norms, dtype=np.float64) + NORM_PAD
    x_norms = np.where(np.maximum(x_norms, 1.0) * max(1.0, w_norm) < F32_SAFE, x_norms, np.inf)
    # rounded up to float32, so that the comparisons run in float32; one value per row
    band = np.nextafter((gamma * w_norm * x_norms).astype(np.float32), np.float32(np.inf))[..., None]
    with np.errstate(over="ignore", invalid="ignore"):  # only in rows of infinite band
        Y = X.astype(np.float32, copy=False) @ W32
    B = (Y > band).view(np.int8) - (Y < -band).view(np.int8)
    near = np.flatnonzero(B == 0)  # few as a rule; 2-D nonzero or a mask would cost ~10x more
    if near.size:
        rows, cols = np.divmod(near, B.shape[1])
        B.flat[near] = np.sign(recheck(rows, cols))
    return B


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


class _Objective:
    """Loss and Euclidean gradient of one training problem, one W at a time.

    Set-up folds both d x d terms into H = (alpha X^T X - 2S)/n, so that

        G = H W - (alpha/n) P,  with P = X^T sgn(XW),
        L = tr(W^T H W)/2 - (alpha/n) tr(W^T P) + (alpha/2n) nnz(sgn(XW)).

    XW enters only through its signs, taken by float32_signs from one
    float32 product on unit-norm copies of the rows, with the entries
    inside its rounding band recomputed in float64 from X. P is kept from
    call to call and updated only where a sign changed: a flip adds a
    multiple of x_i to one column. A call is therefore one n x d x k
    product in float32, one d x d x k product in float64 and the sparse
    update; set-up is the O(n d^2) Gram matrix.
    """

    def __init__(self, X, S, alpha):
        n, d = X.shape
        self.X = X
        self.scale = alpha / n
        H = X.T @ X
        H *= alpha
        H -= 2.0 * S
        H /= n
        self.H = H
        norms = np.sqrt(np.einsum("ij,ij->i", X, X))
        self.X_unit = np.empty((n, d), dtype=np.float32)
        np.divide(X, np.where(norms > 0, norms, 1.0)[:, None], out=self.X_unit)
        self.B = None  # int8 sgn(XW) at the last call
        self.Pt = None  # P^T = B^T X, (k, d)

    def signs(self, W):
        """sgn(XW) as int8, equal to the sign of the float64 product."""
        def recheck(rows, cols):
            return np.einsum("ij,ij->i", self.X[rows], W.T[cols])
        w_norm = np.sqrt(np.einsum("ij,ij->j", W, W).max())
        return float32_signs(self.X_unit, W.astype(np.float32), 1.0, w_norm, recheck)

    def __call__(self, W):
        B = self.signs(W)
        if self.B is None:
            self.Pt = B.T.astype(np.float64) @ self.X
        else:
            flips = np.flatnonzero(B != self.B)
            if flips.size:
                rows, cols = np.divmod(flips, B.shape[1])
                # (k, n): entry (j, i) is the change in sgn(x_i . w_j)
                D = sp.csr_matrix((B.flat[flips] - self.B.flat[flips], (cols, rows)),
                                  shape=B.shape[::-1], dtype=np.float64)
                self.Pt += D @ self.X
        self.B = B
        HW = self.H @ W
        G = HW - self.scale * self.Pt.T
        loss = (0.5 * np.einsum("ij,ij->", W, HW) - self.scale * np.einsum("ij,ji->", W, self.Pt)
                + 0.5 * self.scale * np.count_nonzero(B))
        return loss, G


def auto_alpha(W0, X, S):
    """Balance the two loss terms at the starting point.

    alpha = |2 T1 / T2| with T1 the similarity term and T2 the unscaled
    quantization term at W0. Errors out when the quantization term is
    numerically zero (all projections already at +-1), since the ratio is
    then meaningless.
    """
    n = X.shape[0]
    XW = X @ W0
    t1 = -np.einsum("ij,ij->", W0, S @ W0) / n
    R = XW - sgn(XW)
    t2 = np.einsum("ij,ij->", R, R) / n
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


def bb_step(step_diff, grad_diff, fallback=None, tau_min=TAU_MIN, tau_max=TAU_MAX):
    """Barzilai-Borwein step from successive iterate and gradient changes.

    tau = |tr(step_diff^T grad_diff)| / tr(grad_diff^T grad_diff), clamped
    to [tau_min, tau_max]. A vanishing denominator means the gradient has
    stopped moving; return the fallback then (or raise when none given).
    """
    den = float(np.einsum("ij,ij->", grad_diff, grad_diff))
    if den <= 1e-30:
        if fallback is None:
            raise ValueError("degenerate step: gradient difference is zero")
        return fallback
    num = abs(float(np.einsum("ij,ij->", step_diff, grad_diff)))
    return float(np.clip(num / den, tau_min, tau_max))


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
    stop_tol: float = 0.0  # 0 disables early stopping
    stop_patience: int = 10

    def __post_init__(self):
        if self.bits < 1:
            raise ValueError("bits must be >= 1")
        if self.iters < 1:
            raise ValueError("iters must be >= 1")
        if self.algorithm not in _STEP_RULES:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if isinstance(self.alpha, str) and self.alpha != "auto":
            raise ValueError(f"alpha must be a number or 'auto', got {self.alpha!r}")
        numbers = ("eta", "tau0", "stop_tol") + (() if self.alpha == "auto" else ("alpha",))
        for name in numbers:
            value = getattr(self, name)
            # NaN fails both comparisons, so it is caught here too
            if not 0 <= float(value) < np.inf:
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")
        if self.stop_patience < 1:
            raise ValueError("stop_patience must be >= 1")


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
    X = np.asarray(X, dtype=np.float64)
    S = np.asarray(S, dtype=np.float64)
    d = X.shape[1]
    if S.shape != (d, d):
        raise ValueError(f"similarity matrix must be ({d}, {d}), got {S.shape}")
    W0 = init_projection(d, cfg.bits, cfg.seed)
    alpha = auto_alpha(W0, X, S) if cfg.alpha == "auto" else float(cfg.alpha)
    return X, S, W0, alpha


def _should_stop(losses, cfg):
    # relative improvement below stop_tol for stop_patience consecutive iters
    if cfg.stop_tol <= 0 or len(losses) <= cfg.stop_patience:
        return False
    for i in range(-cfg.stop_patience, 0):
        prev, cur = losses[i - 1], losses[i]
        if abs(prev - cur) > cfg.stop_tol * max(1.0, abs(prev)):
            return False
    return True


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
    records loss, orth residual and step size, and checks early stop.
    """
    X, S, W, alpha = _prepare(X, S, cfg)
    step = _STEP_RULES[cfg.algorithm](cfg)
    objective = _Objective(X, S, alpha)
    loss, G = objective(W)
    tr = _TraceBuilder(alpha, loss)
    losses = [loss]
    for it in range(1, cfg.iters + 1):
        W, step_size = step(W, G)
        loss, G = objective(W)
        tr.add(it, loss, orth_residual(W), step_size)
        losses.append(loss)
        if _should_stop(losses, cfg):
            break
    return W, tr.build()
