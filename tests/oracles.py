"""Test-only oracles: dense or one-output forms of what esh computes in
factored form, and helpers that only tests use."""

import numpy as np

from esh.anchor_graph import SparseAffinityRows, pairwise_sq_dists
from esh.dataset import STD_FLOOR, StandardizationStats, apply_standardization
from esh.encoder import PackedCodes, pack_codes, unpack_codes
from esh.kernels import BAND_SLACK, BLOCK_VALUES, F64_UNIT
from esh.optimizer import _Objective

DENSE_ORACLE_MAX_N = 1000
# the least float32 std that a model's float64 stats accept
STD_FLOOR32 = np.nextafter(np.float32(STD_FLOOR), np.float32(1))


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


def to_dense(Z: SparseAffinityRows):
    """Z as a dense (n, m) matrix."""
    Zd = np.zeros((Z.n, Z.m))
    np.put_along_axis(Zd, Z.indices, Z.weights, axis=1)
    return Zd


def dense_affinity(Z: SparseAffinityRows, lam):
    """Reference A = Z diag(lam)^{-1} Z^T as a dense matrix. Small n only."""
    if Z.n > DENSE_ORACLE_MAX_N:
        raise ValueError(f"dense affinity oracle capped at n={DENSE_ORACLE_MAX_N}")
    Zd = to_dense(Z)
    return Zd @ np.diag(1.0 / np.asarray(lam)) @ Zd.T


def reference_objective(W, X, S, alpha):
    """Loss and Euclidean gradient straight from the definition, in float64,
    with XW, the residual R and X^T R formed in full."""
    n = X.shape[0]
    XW = X @ W
    R = XW - sgn(XW)  # |XW| - 1 up to signs; sgn(0)=0 keeps zeros inert
    SW = S @ W
    loss = -np.einsum("ij,ij->", W, SW) / n + 0.5 * alpha / n * np.einsum("ij,ij->", R, R)
    G = (-2.0 / n) * SW + (alpha / n) * (X.T @ R)
    return loss, G


def objective_terms(W, X, S, alpha):
    """|similarity term| + quantization term: the scale that rounding
    errors in the loss are measured against, since the loss is their
    difference and can be zero."""
    n = X.shape[0]
    XW = X @ W
    R = XW - sgn(XW)
    return abs(np.einsum("ij,ij->", W, S @ W)) / n + 0.5 * alpha / n * np.einsum("ij,ij->", R, R)


def _fresh_objective(W, X, S, alpha):
    """Loss and gradient from a new instance of the evaluator training uses."""
    return _Objective(np.asarray(X, dtype=np.float64), np.asarray(S, dtype=np.float64), alpha)(W)


def loss_value(W, X, S, alpha):
    return _fresh_objective(W, X, S, alpha)[0]


def euclidean_gradient(W, X, S, alpha):
    return _fresh_objective(W, X, S, alpha)[1]


def encode_train(X, W):
    """B = sgn(XW) packed; zeros become +1. X must already be standardized."""
    X = np.asarray(X, dtype=np.float64)
    W = np.asarray(W, dtype=np.float64)
    if X.ndim != 2 or W.ndim != 2 or X.shape[1] != W.shape[0]:
        raise ValueError(f"cannot project {X.shape} features through {W.shape}")
    return pack_codes(sgn(X @ W, zero_rule="one"))


def float64_linear_projection(model, X_raw):
    """((X - mean) / std) W of model.encode_linear, standardizing blocks of
    rows in float64 and projecting them with W in float64, and for each
    entry the most another order of the sums could move it:
    2 gamma64_d |xs_i| |w_j| plus underflow."""
    X = np.atleast_2d(X_raw)
    stats = StandardizationStats(mean=model.mean.astype(np.float64),
                                 std=model.std.astype(np.float64))
    W = model.W.astype(np.float64)
    rows = max(1, BLOCK_VALUES // model.d)
    Z, xs_norms = np.empty((X.shape[0], model.k)), np.empty(X.shape[0])
    for i in range(0, X.shape[0], rows):
        Xs = apply_standardization(X[i : i + rows], stats)
        if not np.all(np.isfinite(Xs)):
            raise ValueError("query contains non-finite values after standardization")
        Z[i : i + rows] = Xs @ W
        xs_norms[i : i + rows] = np.hypot.reduce(Xs, axis=1)  # no overflow in the squares
    gamma = 2 * BAND_SLACK * model.d * F64_UNIT
    slack = gamma * np.outer(xs_norms, np.linalg.norm(W, axis=0)) + model.d * 2.0**-1074
    return Z, slack


def float64_linear_codes(model, X_raw):
    """model.encode_linear by the float64 block encoder; ties at zero become +1."""
    return pack_codes(float64_linear_projection(model, X_raw)[0] >= 0)


def float64_sq_dists(X, C):
    """pairwise_sq_dists(X, C) in one product over all rows, and for each
    entry the most another order of the sums could move it:
    BAND_SLACK u64 (2 (d+3) |x_i| |c_j| + 2 |x_i|^2 + |c_j|^2) plus underflow."""
    X = np.asarray(X, dtype=np.float64)
    C = np.asarray(C, dtype=np.float64)
    d = X.shape[1]
    a = np.hypot.reduce(X, axis=1)[:, None]  # no overflow in the squares
    b = np.hypot.reduce(C, axis=1)[None, :]
    slack = BAND_SLACK * F64_UNIT * (2 * (d + 3) * a * b + 2 * a * a + b * b) + d * 2.0**-1070
    return pairwise_sq_dists(X, C), slack


def stable_nearest(d2, s):
    """Columns of each row's s least entries, least first, ties to the lower column."""
    return np.argsort(d2, axis=1, kind="stable")[:, :s]


def shift_and_sum_pack(bits):
    """Words of pack_codes by shifting each bit into place and summing:
    bit j of a row goes to word j >> 6 at position j & 63."""
    bits = np.asarray(bits)
    n, k = bits.shape
    on = (bits > 0).astype(np.uint64)
    w = (k + 63) >> 6
    padded = np.zeros((n, w * 64), dtype=np.uint64)
    padded[:, :k] = on
    shifts = np.arange(64, dtype=np.uint64)
    return (padded.reshape(n, w, 64) << shifts).sum(axis=2, dtype=np.uint64)


def codes_to_csv(codes: PackedCodes, path):
    """One row of +-1 per sample."""
    np.savetxt(path, unpack_codes(codes), delimiter=",", fmt="%d")


def hamming_distance(a_words, b_words):
    """Differing bits between two packed codes of equal width."""
    a = np.asarray(a_words, dtype=np.uint64)
    b = np.asarray(b_words, dtype=np.uint64)
    if a.shape != b.shape:
        raise ValueError("codes have different word counts")
    return int(np.bitwise_count(np.bitwise_xor(a, b)).sum())
