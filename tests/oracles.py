"""Test-only oracles: dense or one-output forms of what esh computes in factored form."""

import numpy as np

from esh.anchor_graph import SparseAffinityRows
from esh.optimizer import _eval

DENSE_ORACLE_MAX_N = 1000


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


def loss_value(W, X, S, alpha):
    return _eval(W, X, S, alpha)[0]


def euclidean_gradient(W, X, S, alpha):
    return _eval(W, X, S, alpha)[1]
