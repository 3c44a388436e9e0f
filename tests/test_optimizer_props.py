"""Property tests of the similarity factor K and of the matrix H that
training folds from it, against their dense oracles; they need hypothesis
(the test extra)."""

import warnings
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from esh.anchor_graph import fit_anchor_graph, similarity_factor
from esh.optimizer import GRAM_PANEL, _Objective
from oracles import dense_affinity

# below one panel, one panel, two panels, and widths that are not a multiple of it
PANEL_WIDTHS = st.one_of(st.integers(1, GRAM_PANEL - 1), st.just(GRAM_PANEL),
                         st.just(2 * GRAM_PANEL), st.integers(GRAM_PANEL + 1, 2 * GRAM_PANEL + 40))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(12, 150), d=st.integers(1, 10), m=st.integers(1, 24),
       dtype=st.sampled_from([np.float64, np.float32]), seed=st.integers(0, 2**32 - 1))
def test_factor_gram_matches_dense_oracle(n, d, m, dtype, seed):
    # criterion 4's tolerance; m runs past d, where K has more rows than columns
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d)).astype(dtype)
    with warnings.catch_warnings():  # anchors pruned here are not what is tested
        warnings.simplefilter("ignore", UserWarning)
        anchors, Z = fit_anchor_graph(X, min(m, n), iters=3, seed=seed, s=min(3, m))
    K = similarity_factor(X, Z)
    assert K.shape == (anchors.m, d)
    X64 = X.astype(np.float64)
    Sd = X64.T @ dense_affinity(Z) @ X64
    assert np.linalg.norm(K.T @ K - 0.5 * (Sd + Sd.T)) < 1e-8


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 60), d=PANEL_WIDTHS, m=st.integers(1, 2 * GRAM_PANEL + 60),
       alpha=st.sampled_from([0.0, 0.3, 1.0, 4.5]), block_rows=st.integers(1, 9),
       dtype=st.sampled_from([np.float64, np.float32]), seed=st.integers(0, 2**32 - 1))
def test_objective_folds_H_exactly_symmetric(n, d, m, alpha, block_rows, dtype, seed):
    # X^T X summed over blocks of block_rows rows, panel by panel
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d)).astype(dtype)
    K = rng.standard_normal((m, d)) / np.sqrt(n)
    with mock.patch("esh.kernels.BLOCK_VALUES", block_rows * d):
        H = _Objective(X, K, alpha).H
    assert np.array_equal(H, H.T)
    X64 = X.astype(np.float64)
    G, KtK = X64.T @ X64, K.T @ K
    scale = (alpha * np.linalg.norm(G) + 2 * np.linalg.norm(KtK)) / n
    assert np.linalg.norm(H - (alpha * G - 2 * KtK) / n) <= 1e-13 * scale
