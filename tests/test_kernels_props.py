"""Property tests of the kernels against their oracles: the certified
nearest-anchor kernels against float64, and the in-order segment sums
against a loop. They need hypothesis (the test extra)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esh.anchor_graph import (
    AnchorSet,
    _nearest_first,
    anchor_weights,
    pairwise_sq_dists,
    sq_norms,
)
from esh.kernels import F32_UNIT, float32_argmin, segment_sums
from oracles import float64_sq_dists, segment_sums_loop, stable_nearest


def nearest(X, C):
    """float32_argmin with the recheck Lloyd's assignment step gives it."""
    x_sq, c_sq = sq_norms(X), sq_norms(C)
    return float32_argmin(
        X.astype(np.float32), x_sq, C, c_sq,
        lambda rows: pairwise_sq_dists(X[rows], C, x_sq=x_sq[rows], c_sq=c_sq))


def adversarial_rows(rng, C, n):
    """Rows of five kinds against the centers C: random, on a center (the
    distance clips at 0), equidistant from two centers, off equidistant by
    up to the float32 band, and random again far from every center."""
    m, d = C.shape
    kind = rng.integers(0, 5, n)
    X = C.mean(axis=0) + rng.standard_normal((n, d))
    for i in range(n):
        j, k = rng.choice(m, 2, replace=m < 2)
        if kind[i] == 1:
            X[i] = C[j]
        elif kind[i] in (2, 3):
            gap = C[k] - C[j]
            X[i] = 0.5 * (C[j] + C[k])
            if np.any(gap) and kind[i] == 3:
                # from 1 ulp up to the band's 2 (d + 4) ulps, either way
                ulps = rng.choice([-1, 1]) * 2.0 ** rng.uniform(0, np.log2(2 * d + 8))
                off = ulps * F32_UNIT * np.linalg.norm(X[i]) * np.linalg.norm(C[j])
                X[i] += off / (2.0 * np.dot(gap, gap)) * gap
        elif kind[i] == 4:
            X[i] *= 30.0
    return X


@settings(max_examples=200, deadline=None)
@given(d=st.sampled_from([1, 7, 128, 1024]), m=st.sampled_from([1, 2, 3, 17, 300]),
       offset=st.sampled_from([0.0, 1e4]), duplicates=st.booleans(),
       n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_float32_argmin_matches_the_float64_argmin(d, m, offset, duplicates, n, seed):
    rng = np.random.default_rng(seed)
    C = offset + rng.standard_normal((m, d))  # a large offset puts every row inside the band
    if duplicates and m > 1:
        C[rng.integers(m, size=m // 2 + 1)] = C[rng.integers(m)]
    X = adversarial_rows(rng, C, n)
    got = nearest(X, C)
    d2, slack = float64_sq_dists(X, C)
    want = d2.argmin(axis=1)
    r = np.arange(n)
    # where two distances are within the float64 rounding of another order of
    # the sums, the argmin depends on the BLAS call's blocking
    close = d2[r, got] - d2[r, want] <= 2 * (slack[r, got] + slack[r, want])
    assert np.all((got == want) | close)


@settings(max_examples=100, deadline=None)
@given(d=st.sampled_from([1, 5, 64, 1024]), m=st.sampled_from([2, 3, 16, 300]),
       n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_float32_argmin_breaks_exact_ties_to_the_lower_index(d, m, n, seed):
    # quarter-integer entries: every product and sum is exact in float64, so
    # the float64 distances and their ties do not depend on the order of the sums
    rng = np.random.default_rng(seed)
    C = rng.integers(-4, 5, (m, d)) / 4.0
    C[rng.integers(m, size=m // 2 + 1)] = C[rng.integers(m)]  # duplicated centers
    X = rng.integers(-4, 5, (n, d)) / 4.0
    X[: n // 2] = C[rng.integers(m, size=n // 2)]  # rows on a (duplicated) center
    assert np.array_equal(nearest(X, C), pairwise_sq_dists(X, C).argmin(axis=1))


@settings(max_examples=200, deadline=None)
@given(m=st.one_of(st.integers(1, 40), st.just(300)), s=st.integers(1, 40),
       levels=st.integers(1, 6), n=st.sampled_from([1, 7, 60, 700]),
       seed=st.integers(0, 2**32 - 1))
def test_nearest_first_equals_the_stable_sort(m, s, levels, n, seed):
    # few distinct distances put ties at the s-th boundary; s = 1 and s = m
    # included, and blocks on both sides of SELECT_MIN_VALUES
    rng = np.random.default_rng(seed)
    s = min(s, m)
    d2 = rng.integers(0, levels, (n, m)).astype(np.float64)
    d2[rng.random(n) < 0.3] = rng.random(m)  # rows without ties
    assert np.array_equal(_nearest_first(d2, s), stable_nearest(d2, s))


@settings(max_examples=50, deadline=None)
@given(s=st.sampled_from([1, 3, 12]), seed=st.integers(0, 2**32 - 1))
def test_anchor_weights_with_duplicated_anchors_pick_the_lower_index(s, seed):
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((12, 6))
    centers[7], centers[10] = centers[2], centers[4]
    anchors = AnchorSet(centers=centers, sigma2=1.0, s=s)
    X = np.vstack([centers[rng.integers(12, size=40)], rng.standard_normal((40, 6))])
    idx, _ = anchor_weights(X, anchors)
    d2 = pairwise_sq_dists(X, centers, c_sq=anchors.sq_norms)
    assert np.array_equal(idx, stable_nearest(d2, s))


@settings(max_examples=200, deadline=None)
@given(d=st.sampled_from([1, 2, 3, 64]), n=st.integers(1, 80), s=st.integers(1, 4),
       m=st.integers(1, 40), dtype=st.sampled_from([np.float32, np.float64, np.int8]),
       weighted=st.booleans(), block_values=st.sampled_from([1, 64, 700, 2**18]),
       seed=st.integers(0, 2**32 - 1))
def test_segment_sums_equal_the_loop(d, n, s, m, dtype, weighted, block_values, seed):
    # keys from few values leave most keys empty and make long runs; small
    # blocks split the runs; spread magnitudes and -0.0 rows make the order
    # and the zero the sums start from show in the bits
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-8, 9, (n, 1))
    X[rng.random(n) < 0.1] = -0.0
    X = (np.sign(X) if dtype == np.int8 else X).astype(dtype)
    keys = rng.integers(0, max(1, m // 4), (n, s)) * 4 % m
    weights = rng.random((n, s)) * 10.0 ** rng.integers(-3, 4, (n, s)) if weighted else None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("esh.kernels.BLOCK_VALUES", block_values)
        got = segment_sums(X, keys, m, weights)
    want = segment_sums_loop(X, keys, m, weights)
    assert got.tobytes() == want.tobytes()
