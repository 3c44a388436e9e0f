"""Training the projection W on the Stiefel manifold.

The objective trades off similarity preservation against quantization
error:

    L(W) = -(1/n) tr(W^T S W) + (alpha/2n) || |XW| - 1 ||_F^2

subject to W^T W = I. One training loop takes either of two step rules:
projected gradient descent (esh1), which re-orthonormalizes after every
Euclidean step via an SVD, and a Cayley-transform move along a curve on
the manifold with a Barzilai-Borwein step size (esh2), which stays
feasible by construction.
"""

import csv
import time
from dataclasses import dataclass

import numpy as np

TAU_MIN = 1e-10
TAU_MAX = 1e3
AUTO_ALPHA_FLOOR = 1e-12
PROJECT_RANK_FLOOR = 1e-12

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


def _eval(W, X, S, alpha):
    """Loss and Euclidean gradient in one pass; XW is computed once."""
    n = X.shape[0]
    XW = X @ W
    R = XW - sgn(XW)  # |XW| - 1 up to signs; sgn(0)=0 keeps zeros inert
    SW = S @ W
    loss = -np.einsum("ij,ij->", W, SW) / n + 0.5 * alpha / n * np.einsum("ij,ij->", R, R)
    G = (-2.0 / n) * SW + (alpha / n) * (X.T @ R)
    return loss, G


def loss_value(W, X, S, alpha):
    return _eval(W, X, S, alpha)[0]


def euclidean_gradient(W, X, S, alpha):
    return _eval(W, X, S, alpha)[1]


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
        if self.eta < 0:
            raise ValueError("eta must be nonnegative")
        if self.tau0 < 0:
            raise ValueError("tau0 must be nonnegative")
        if isinstance(self.alpha, str):
            if self.alpha != "auto":
                raise ValueError(f"alpha must be a number or 'auto', got {self.alpha!r}")
        elif not float(self.alpha) >= 0:
            raise ValueError("alpha must be nonnegative")
        if self.stop_tol < 0:
            raise ValueError("stop_tol must be nonnegative")
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
    loss, G = _eval(W, X, S, alpha)
    tr = _TraceBuilder(alpha, loss)
    losses = [loss]
    for it in range(1, cfg.iters + 1):
        W, step_size = step(W, G)
        loss, G = _eval(W, X, S, alpha)
        tr.add(it, loss, orth_residual(W), step_size)
        losses.append(loss)
        if _should_stop(losses, cfg):
            break
    return W, tr.build()
