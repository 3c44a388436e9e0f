"""Property tests of code packing; they need hypothesis (the test extra)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from esh.encoder import pack_codes, unpack_codes
from oracles import shift_and_sum_pack

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
