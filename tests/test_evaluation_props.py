"""Property tests of the ranking; they need hypothesis (the test extra)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esh.encoder import pack_codes
from esh.evaluation import _nearest, hamming_distances, rank_database


def random_bits(rng, n, k):
    return np.where(rng.standard_normal((n, k)) > 0, 1, -1).astype(np.int8)


def bit_loop_distance(a_bits, b_bits):
    return sum(1 for x, y in zip(a_bits, b_bits) if x != y)


@settings(max_examples=150, deadline=None)
@given(
    k=st.integers(1, 200),
    n=st.integers(1, 60),
    distinct=st.integers(1, 4),
    exclude=st.one_of(st.none(), st.integers(0, 59)),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_rank_equals_lexsort_oracle_under_heavy_ties(k, n, distinct, exclude, seed, data):
    # db rows come from a pool of a few codes, so most distances tie
    rng = np.random.default_rng(seed)
    pool = random_bits(rng, distinct, k)
    B = pool[rng.integers(0, distinct, n)]
    q = pool[:1] if rng.random() < 0.5 else random_bits(rng, 1, k)
    exclude = None if exclude is None or exclude >= n else exclude
    top = data.draw(st.one_of(st.none(), st.integers(1, n + 2)), label="top")
    codes = pack_codes(B)
    r = rank_database(pack_codes(q).words[0], codes, exclude_id=exclude, top=top)
    dist = np.array([bit_loop_distance(q[0], B[i]) for i in range(n)], dtype=np.int64)
    ids = np.arange(n)
    want = np.lexsort((ids, dist))
    if exclude is not None:
        want = want[want != exclude]
    n_left = n - (exclude is not None)
    want = want[:top]
    assert r.ids.size == (n_left if top is None else min(top, n_left))
    assert np.array_equal(r.ids, want)
    assert np.array_equal(r.distances, dist[want])
    assert r.distances.dtype == np.int64
    got = hamming_distances(pack_codes(q).words[0], codes)
    assert got.dtype == np.int64 and np.array_equal(got, dist)


@pytest.mark.parametrize("k", [255, 2**16 - 1])
def test_top_of_a_large_database_equals_stable_sort(k):
    # 70 000 ids take 17 bits. Distances up to 255 fit a 25-bit key, and a
    # partition this large leaves its head unsorted; distances up to 65 535
    # would need a 33-bit key, so the selection falls back to the sort
    rng = np.random.default_rng(7)
    dist = rng.integers(0, k + 1, 70_000).astype(np.uint8 if k < 256 else np.uint16)
    dist[rng.integers(0, dist.size, 500)] = 3  # ties at the top
    want = np.lexsort((np.arange(dist.size), dist))
    for top in (1, 10, 600, 69_999, 70_000):
        assert np.array_equal(_nearest(dist, k, top), want[:top])
