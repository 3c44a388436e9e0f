"""Property tests of code packing and linear encoding; they need hypothesis
(the test extra)."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from esh.anchor_graph import AnchorSet
from esh.encoder import HashModel, pack_codes, unpack_codes
from oracles import STD_FLOOR32, float32_exact, float64_linear_projection, shift_and_sum_pack

# every width up to 200 bits, with the word boundaries drawn on purpose
WIDTHS = st.one_of(st.sampled_from([63, 64, 65, 127, 128, 129]), st.integers(1, 200))


@settings(max_examples=150, deadline=None)
@given(k=WIDTHS, n=st.integers(1, 40), zero_one=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_pack_unpack_round_trip(k, n, zero_one, seed):
    rng = np.random.default_rng(seed)
    on = rng.random((n, k)) < rng.random()  # any density, all-off and all-on included
    bits = on.astype(np.int8) if zero_one else np.where(on, 1, -1).astype(np.int8)
    codes = pack_codes(bits)
    assert (codes.n, codes.k) == (n, k)
    assert codes.words.shape == (n, (k + 63) // 64)
    assert np.array_equal(unpack_codes(codes), np.where(on, 1, -1))
    assert np.array_equal(pack_codes(unpack_codes(codes)).words, codes.words)


@settings(max_examples=150, deadline=None)
@given(k=WIDTHS, n=st.integers(1, 40), zero_one=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_pack_matches_the_shift_and_sum_oracle(k, n, zero_one, seed):
    rng = np.random.default_rng(seed)
    on = rng.random((n, k)) < rng.random()
    bits = on.astype(np.int8) if zero_one else np.where(on, 1, -1).astype(np.int8)
    words = pack_codes(bits).words
    assert words.dtype == np.uint64
    assert np.array_equal(words, shift_and_sum_pack(bits))


def linear_model(mean, std, W):
    """A HashModel for linear encoding; its anchor parts are placeholders."""
    d, k = W.shape
    return HashModel(
        mean=float32_exact(mean), std=float32_exact(std), W=float32_exact(W),
        anchors=AnchorSet(centers=np.zeros((2, d)), sigma2=1.0, s=1), lam=np.ones(2),
        vote_matrix=np.zeros((k, 2)),
    )


@settings(max_examples=200, deadline=None)
@given(d=st.sampled_from([1, 7, 128, 1024]), k=st.sampled_from([1, 63, 64, 65]),
       stats=st.sampled_from(["plain", "constant column", "large offset"]),
       float32=st.booleans(), n=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
# rows at exactly 0 ulps, where two orders of the float64 sums give different signs
@example(d=1024, k=63, stats="plain", float32=False, n=16, seed=0)
def test_encode_linear_matches_the_float64_encoder(d, k, stats, float32, n, seed):
    rng = np.random.default_rng(seed)
    mean, std = rng.standard_normal(d), 0.5 + rng.random(d)
    if stats == "large offset":  # |x| is 1e4 times |(x - mean) / std|
        mean = 1e4 * (1.0 + rng.random(d))
    model = linear_model(mean, std, rng.standard_normal((d, k)) / np.sqrt(d))
    mean, std, W = model.mean, model.std, model.W
    S = rng.standard_normal((n, d))  # the standardized rows
    kind = rng.integers(0, 3, n)  # 0 random, 1 the mean itself, 2 near hyperplanes
    S[kind == 1] = 0.0
    for i in np.flatnonzero(kind == 2):
        WJ = W[:, rng.permutation(k)[: min(k, d - 1)]]
        if WJ.size:  # projects within a few float32 ulps of 0 on every column of WJ
            ulps = rng.integers(-4, 5, WJ.shape[1]) * 2.0**-24 * np.linalg.norm(S[i])
            ulps *= np.linalg.norm(WJ, axis=0)
            S[i] += np.linalg.lstsq(WJ.T, ulps - S[i] @ WJ, rcond=None)[0]
    if stats == "constant column":  # std at the floor, every row at the training value
        c = rng.integers(d)
        model = linear_model(mean, np.where(np.arange(d) == c, STD_FLOOR32, std), W)
        S[:, c] = 0.0
    X = S * std + mean  # float64 rows are not float32-exact
    if float32:
        X = X.astype(np.float32)
    got = unpack_codes(model.encode_linear(X)) > 0
    z, slack = float64_linear_projection(model, X)
    fixed = np.abs(z) > slack  # elsewhere the float64 sign depends on the order of the sums
    assert np.array_equal(got[fixed], z[fixed] >= 0)
    assert np.all(got[kind == 1])
