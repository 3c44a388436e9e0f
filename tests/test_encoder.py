import copy
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from esh import dataset
from esh.anchor_graph import (
    AnchorSet,
    SparseAffinityRows,
    anchor_weights,
    fit_anchor_graph,
    pairwise_sq_dists,
    similarity_factor,
)
from esh.dataset import (
    LabelSet,
    StandardizationStats,
    apply_standardization,
    generate_synthetic,
    standardize,
)
from esh.encoder import (
    FormatError,
    HashModel,
    PackedCodes,
    build_hash_model,
    load_codes,
    load_model,
    pack_codes,
    save_codes,
    save_model,
    unpack_codes,
)
from esh.evaluation import GroundTruth, Ranking, evaluate
from esh.kernels import BLOCK_VALUES
from esh.optimizer import TrainConfig, TrainTrace, init_projection, train
from oracles import (
    codes_to_csv,
    encode_train,
    float32_exact,
    float64_linear_codes,
    sgn,
    to_dense,
    vote_loop,
)


def random_bits(rng, n, k):
    return np.where(rng.standard_normal((n, k)) > 0, 1, -1).astype(np.int8)


def small_pipeline(seed=0, n_per=40, clusters=4, d=8, k=6, s=3):
    """small_model's results, then the affinity rows Z the model was built from."""
    X_raw, labels = generate_synthetic(clusters, n_per, d, 1.0, seed=seed)
    Xs, stats = standardize(X_raw)
    anchors, Z = fit_anchor_graph(Xs, m=12, iters=10, seed=seed + 1, s=s)
    K = similarity_factor(Xs, Z)
    W, _ = train(Xs, K, TrainConfig(bits=k, iters=40, seed=seed + 2))
    model, codes = build_hash_model(stats, W, anchors, Z, X_raw)
    return model, codes, X_raw, labels, Z


def small_model(**kw):
    """A trained model, its training codes, features and labels."""
    return small_pipeline(**kw)[:4]


def test_pack_unpack_bijection_across_widths():
    rng = np.random.default_rng(0)
    for k in (1, 7, 63, 64, 65, 128):
        B = random_bits(rng, 20, k)
        codes = pack_codes(B)
        assert codes.n == 20 and codes.k == k
        assert codes.words.shape == (20, (k + 63) // 64)
        assert np.array_equal(unpack_codes(codes), B)


def test_pack_accepts_zero_one_matrices():
    B01 = np.array([[1, 0, 1], [0, 0, 1]])
    codes = pack_codes(B01)
    assert np.array_equal(unpack_codes(codes), [[1, -1, 1], [-1, -1, 1]])


def test_pack_padding_bits_clean():
    rng = np.random.default_rng(1)
    codes = pack_codes(random_bits(rng, 50, 13))
    assert np.all(codes.words >> np.uint64(13) == 0)


def test_packed_codes_validation():
    with pytest.raises(ValueError, match="uint64"):
        PackedCodes(n=2, k=3, words=np.zeros((2, 1), dtype=np.int64))
    with pytest.raises(ValueError, match="shape"):
        PackedCodes(n=2, k=3, words=np.zeros((2, 2), dtype=np.uint64))
    dirty = np.full((1, 1), 1 << 40, dtype=np.uint64)
    with pytest.raises(ValueError, match="padding"):
        PackedCodes(n=1, k=3, words=dirty)


def test_encode_train_zero_row_gets_all_plus_one():
    W = init_projection(5, 3, seed=2)
    X = np.zeros((4, 5))
    B = unpack_codes(encode_train(X, W))
    assert np.all(B == 1)


def test_encode_train_column_negation_flips_one_bit():
    rng = np.random.default_rng(3)
    W = init_projection(6, 4, seed=4)
    X = rng.standard_normal((30, 6))
    assert np.abs(X @ W).min() > 1e-9  # no zero projections in play
    B = unpack_codes(encode_train(X, W))
    W2 = W.copy()
    W2[:, 2] *= -1.0
    B2 = unpack_codes(encode_train(X, W2))
    flipped = B != B2
    assert np.all(flipped[:, 2])
    assert not flipped[:, [0, 1, 3]].any()


def test_encode_train_matches_sign_oracle():
    rng = np.random.default_rng(5)
    W = init_projection(7, 5, seed=6)
    X = rng.standard_normal((20, 7))
    B = unpack_codes(encode_train(X, W))
    P = X @ W
    for i in range(20):
        for j in range(5):
            want = 1 if P[i, j] > 0 else (-1 if P[i, j] < 0 else 1)
            assert B[i, j] == want


def test_encode_train_shape_error():
    with pytest.raises(ValueError):
        encode_train(np.zeros((3, 4)), np.zeros((5, 2)))


def test_model_linear_rows_consistent():
    model, codes, X_raw, _ = small_model(seed=7)
    for i in (0, 5, 17):
        row = model.encode_linear(X_raw[i])
        assert np.array_equal(row.words[0], codes.words[i])


def test_model_linear_zero_query_all_plus_one():
    model, _, _, _ = small_model(seed=8)
    q = model.mean  # standardizes to the zero vector
    B = unpack_codes(model.encode_linear(q))
    assert np.all(B == 1)


@pytest.mark.parametrize("mode", ["linear", "graph"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_encode_rejects_non_finite_rows_in_both_modes(mode, bad):
    model, _, X_raw, _ = small_model(seed=10)
    X = X_raw[:5].copy()
    X[3, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        model.encode(X, mode=mode)


def random_model(d, k, m=5, seed=0):
    """A HashModel of the given shape from random matrices; no training."""
    rng = np.random.default_rng(seed)
    return HashModel(
        mean=float32_exact(rng.standard_normal(d)),
        std=float32_exact(0.5 + rng.random(d)),
        W=float32_exact(init_projection(d, k, seed=seed)),
        anchors=AnchorSet(centers=float32_exact(rng.standard_normal((m, d))), sigma2=1.0, s=2),
        lam=np.ones(m), vote_matrix=np.zeros((k, m)),
    )


@pytest.mark.parametrize("mode", ["linear", "graph"])
@pytest.mark.parametrize("n", [0, 1])
def test_encode_rejects_a_wrong_width_in_both_modes_even_on_few_rows(mode, n):
    model = random_model(6, 4)
    for d in (5, 7):
        with pytest.raises(ValueError, match=f"dimension mismatch: got {d}, stats have 6"):
            model.encode(np.zeros((n, d)), mode=mode)
    codes = model.encode(np.zeros((n, 6)), mode=mode)
    assert (codes.n, codes.k) == (n, 4)


def test_vote_matrix_bit_identical_to_the_loop(monkeypatch):
    # blocks of 64 values: the vote sums go in pieces of 10 entries
    monkeypatch.setattr("esh.kernels.BLOCK_VALUES", 64)
    model, codes, _, _, Z = small_pipeline(seed=3, n_per=30)
    want = float32_exact(vote_loop(unpack_codes(codes), Z))
    assert model.vote_matrix.tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_build_hash_model_rejects_non_finite_projection(bad):
    X_raw, _ = generate_synthetic(4, 40, 8, 1.0, seed=11)
    Xs, stats = standardize(X_raw)
    anchors, Z = fit_anchor_graph(Xs, m=12, iters=10, seed=12, s=3)
    W = init_projection(8, 6, seed=13)
    W[2, 1] = bad
    with pytest.raises(ValueError, match="W has non-finite"):
        build_hash_model(stats, W, anchors, Z, X_raw)


def test_a_std_just_above_the_floor_that_rounds_below_it_in_float32():
    # 1.00000001e-12 is above STD_FLOOR and its float32 rounding below it;
    # the model holds that rounding and encodes with it
    rng = np.random.default_rng(24)
    X = rng.standard_normal((40, 4))
    X[:, 1] = np.where(np.arange(40) % 2, 1.00000001e-12, -1.00000001e-12)
    Xs, stats = standardize(X)
    assert stats.std[1] > dataset.STD_FLOOR > float(np.float32(stats.std[1]))
    anchors, Z = fit_anchor_graph(Xs, m=6, iters=5, seed=25, s=2)
    W, _ = train(Xs, similarity_factor(Xs, Z), TrainConfig(bits=3, iters=3, seed=26))
    model, codes = build_hash_model(stats, W, anchors, Z, X)
    assert model.std[1] == float(np.float32(stats.std[1]))
    for rows in (X, X.astype(np.float32)):
        assert np.array_equal(model.encode(rows, mode="linear").words, codes.words)
    assert model.encode(X).n == 40


def test_hash_model_rejects_non_finite_or_non_positive_matrices():
    model = random_model(d=6, k=4, seed=12)
    for name in ("mean", "std", "W", "lam", "vote_matrix"):
        bad = getattr(model, name).copy()
        bad.flat[0] = np.nan
        with pytest.raises(ValueError, match=f"{name} has non-finite"):
            replace(model, **{name: bad})
    centers = model.anchors.centers.copy()
    centers[1, 2] = np.inf
    with pytest.raises(ValueError, match="centers has non-finite"):
        replace(model, anchors=replace(model.anchors, centers=centers))
    for value in (0.0, -1.0):
        std = model.std.copy()
        std[1] = value
        with pytest.raises(ValueError, match="std entries must be positive"):
            replace(model, std=std)


def test_hash_model_refuses_matrices_that_float32_cannot_hold():
    # linear encoding standardizes float32 rows in float32, which is exact
    # only for stats that float32 holds; the file stores them in float32 too
    model = random_model(d=6, k=4, seed=13)
    for name in ("mean", "std", "W", "vote_matrix"):
        for value in (0.1, 1e39):
            M = getattr(model, name).copy()
            M.flat[1] = value
            with pytest.raises(ValueError, match=f"{name} holds values that float32 cannot"):
                replace(model, **{name: M})
    centers = model.anchors.centers.copy()
    centers[0, 0] = 0.1
    with pytest.raises(ValueError, match="centers holds values that float32 cannot"):
        replace(model, anchors=replace(model.anchors, centers=centers))
    replace(model, lam=model.lam + 0.1)  # lam is stored in float64


def labelled_report():
    labels = LabelSet.from_array([0, 1, 1])
    codes = pack_codes(np.eye(3))
    return evaluate(codes, codes, GroundTruth(labels, labels))


# each makes an instance whose fields include arrays of more than one value
ARRAY_HOLDERS = {
    "LabelSet": lambda: LabelSet.from_array([0, 1, 1]),
    "StandardizationStats": lambda: StandardizationStats(mean=np.zeros(3), std=np.ones(3)),
    "AnchorSet": lambda: AnchorSet(centers=np.zeros((2, 3)), sigma2=1.0, s=1),
    "SparseAffinityRows": lambda: SparseAffinityRows(
        indices=np.array([[0], [1]]), weights=np.ones((2, 1)), m=2),
    "PackedCodes": lambda: pack_codes(np.eye(3)),
    "HashModel": lambda: random_model(d=6, k=4),
    "Ranking": lambda: Ranking(ids=np.arange(3), distances=np.zeros(3, np.int64)),
    "EvalReport": labelled_report,
    "TrainTrace": lambda: TrainTrace(
        iteration=np.arange(1, 3), loss=np.zeros(2), orth_residual=np.zeros(2),
        step_size=np.zeros(2), elapsed_ms=np.zeros(2), alpha=1.0, initial_loss=0.0),
}


@pytest.mark.parametrize("name", ARRAY_HOLDERS)
def test_equality_of_a_dataclass_holding_arrays_is_identity(name):
    # a field-wise == would ask an array of booleans for one truth value
    a = ARRAY_HOLDERS[name]()
    twin = copy.deepcopy(a)  # equal fields, other arrays
    assert type(a).__name__ == name
    assert a == a and a != twin and not a == twin


def linear_oracle(model, X):
    """sgn(apply_standardization(X) @ W) on the whole input at once."""
    Xs = apply_standardization(np.atleast_2d(X), model)
    return sgn(Xs @ model.W, zero_rule="one").astype(np.int8)


def blocks_of(model):
    return BLOCK_VALUES // model.d


def test_linear_encoding_across_blocks_matches_the_oracle():
    model = random_model(d=512, k=70, seed=1)
    rows = blocks_of(model)
    n = 3 * rows + 77  # three whole blocks and a remainder
    rng = np.random.default_rng(2)
    X = rng.standard_normal((n, model.d)) * 2.0
    X[2 * rows + 5] = model.mean  # standardizes to zero in the third block
    B = unpack_codes(model.encode_linear(X))
    assert np.array_equal(B, linear_oracle(model, X))
    assert np.all(B[2 * rows + 5] == 1)


def graph_oracle(model, X):
    """Graph codes from one standardization, one distance product and one
    stable sort over all rows at once."""
    anchors = model.anchors
    d2 = pairwise_sq_dists(apply_standardization(np.atleast_2d(X), model), anchors.centers)
    idx = np.argsort(d2, axis=1, kind="stable")[:, : anchors.s]
    near = np.take_along_axis(d2, idx, axis=1)
    w = np.exp(-(near - near[:, :1]) / anchors.sigma2)
    w /= w.sum(axis=1, keepdims=True)
    scores = np.einsum("kqs,qs->qk", model.vote_matrix[:, idx], w)
    return np.where(scores >= 0, 1, -1).astype(np.int8)


def test_graph_encoding_across_blocks_matches_the_whole_array_oracle():
    rng = np.random.default_rng(21)
    model = random_model(d=512, k=70, m=40, seed=20)
    model = replace(model, anchors=replace(model.anchors, s=3, sigma2=50.0),
                    vote_matrix=float32_exact(rng.standard_normal((70, 40))))
    rows = BLOCK_VALUES // (model.d + model.m)
    X = rng.standard_normal((3 * rows + 77, model.d))  # three whole blocks and a remainder
    X[2 * rows + 5] = X[2 * rows + 4]  # equal rows in different blocks
    B = unpack_codes(model.encode_graph(X))
    assert np.array_equal(B, graph_oracle(model, X))
    assert np.array_equal(B[2 * rows + 5], B[2 * rows + 4])
    assert np.array_equal(unpack_codes(model.encode_graph(X[7])), B[7:8])


def test_linear_encoding_rejects_non_finite_in_the_last_block():
    model = random_model(d=512, k=8, seed=3)
    X = np.random.default_rng(4).standard_normal((2 * blocks_of(model) + 9, model.d))
    X[-1, 3] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        model.encode_linear(X)


def test_linear_encoding_of_any_layout_matches_the_oracle():
    model = random_model(d=300, k=40, seed=5)
    X = np.random.default_rng(6).standard_normal((2 * blocks_of(model) + 3, model.d))
    for same in (X[4], X.astype(np.float32), np.asfortranarray(X)):
        assert np.array_equal(unpack_codes(model.encode_linear(same)), linear_oracle(model, same))


def test_linear_encoding_beyond_float32_range_matches_the_oracle():
    # rows past float32 range, one whose squared norm overflows float64:
    # their float32 product is never read, they are rechecked in float64
    model = random_model(d=16, k=9, seed=13)
    X = np.random.default_rng(14).standard_normal((6, model.d))
    X[1, 2], X[2, 5], X[3] = 1e39, -1e200, 1e160
    assert np.array_equal(model.encode_linear(X).words, float64_linear_codes(model, X).words)
    # 4e38 x 1e-40 adds 0.04 to a bit the second entry sets to -1; in float32
    # the first entry is inf and would outvote it
    tiny = replace(random_model(d=2, k=1, seed=15), mean=np.zeros(2), std=np.ones(2),
                   W=float32_exact([[1e-40], [-1.0]]))
    assert unpack_codes(tiny.encode_linear(np.array([4e38, 1.0])))[0, 0] == -1


def test_linear_encoding_holds_no_copy_of_its_input(tmp_path):
    model = random_model(d=128, k=64, seed=7)
    X = np.random.default_rng(8).standard_normal((20000, model.d))  # 20.5 MB
    tracemalloc.start()
    try:
        model.encode_linear(X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < X.nbytes / 2
    # from an .eshf file: loading and encoding together stay below X in float64
    dataset.save_features(X, tmp_path / "x.eshf")
    tracemalloc.start()
    try:
        codes = model.encode_linear(dataset.load_features(tmp_path / "x.eshf"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < X.nbytes
    assert np.array_equal(codes.words, float64_linear_codes(model, X.astype(np.float32)).words)


def test_stored_codes_equal_models_own_encoding():
    model, codes, X_raw, _ = small_model(seed=9)
    again = model.encode_linear(X_raw)
    assert np.array_equal(again.words, codes.words)


def test_graph_one_hot_vote_column():
    model, _, _, _ = small_model(seed=10, s=1)
    # a query sitting on an anchor with s=1 gets exactly that anchor's column
    for j in (0, 3, 7):
        raw = model.anchors.centers[j] * model.std + model.mean
        got = unpack_codes(model.encode_graph(raw))[0]
        col = model.vote_matrix[:, j]
        want = np.where(col > 0, 1, np.where(col < 0, -1, 1))
        assert np.array_equal(got, want)


def test_graph_unanimous_neighborhood_bit():
    model, _, X_raw, _ = small_model(seed=11)
    V = model.vote_matrix
    checked = 0
    for i in range(X_raw.shape[0]):
        idx, _ = anchor_weights(apply_standardization(X_raw[i], model), model.anchors)
        cols = V[:, idx[0]]  # (k, s)
        code = unpack_codes(model.encode_graph(X_raw[i]))[0]
        for t in range(model.k):
            if np.all(cols[t] > 0):
                assert code[t] == 1
                checked += 1
            elif np.all(cols[t] < 0):
                assert code[t] == -1
                checked += 1
    assert checked > 0


def test_graph_matches_exhaustive_argmax():
    model, codes, X_raw, _, Z = small_pipeline(seed=12, k=6)
    rng = np.random.default_rng(13)
    queries = X_raw[rng.choice(X_raw.shape[0], 10, replace=False)]
    queries = queries + 0.05 * rng.standard_normal(queries.shape)

    B = unpack_codes(codes).astype(np.float64)  # (n, k)
    Zd = to_dense(Z)  # (n, m)
    lam, mean, std = model.lam, model.mean, model.std
    centers, s, sigma2 = model.anchors.centers, model.anchors.s, model.anchors.sigma2

    all_codes = np.array(
        [[1 if (c >> t) & 1 else -1 for t in range(model.k)] for c in range(2**model.k)],
        dtype=np.float64,
    )
    for q in queries:
        xs = (q - mean) / std
        d2 = ((centers - xs) ** 2).sum(axis=1)
        order = np.argsort(d2, kind="stable")[:s]
        w = np.exp(-(d2[order] - d2[order].min()) / sigma2)
        w /= w.sum()
        z = np.zeros(centers.shape[0])
        z[order] = w
        v = B.T @ (Zd @ (z / lam))
        assert np.abs(v).min() > 1e-12  # no sign ties for these seeds
        best = all_codes[np.argmax(all_codes @ v)]
        got = unpack_codes(model.encode_graph(q))[0]
        assert np.array_equal(got, best.astype(np.int8))


def test_model_round_trip_bit_exact(tmp_path):
    model, _, _, _ = small_model(seed=14)
    p = tmp_path / "m.eshm"
    save_model(model, p)
    back = load_model(p)
    for name in ("mean", "std", "W", "lam", "vote_matrix"):
        a, b = getattr(back, name), getattr(model, name)
        assert a.dtype == b.dtype == np.float64 and np.array_equal(a, b), name
    assert back.anchors.centers.dtype == np.float64
    assert np.array_equal(back.anchors.centers, model.anchors.centers)
    assert back.anchors.sigma2 == model.anchors.sigma2
    assert back.anchors.s == model.anchors.s
    assert back.query_mode == model.query_mode


def test_model_replay_after_reload(tmp_path):
    model, _, X_raw, _ = small_model(seed=15)
    rng = np.random.default_rng(16)
    Q = X_raw[rng.choice(X_raw.shape[0], 100)] + 0.1 * rng.standard_normal((100, X_raw.shape[1]))
    before_g = model.encode_graph(Q).words
    before_l = model.encode_linear(Q).words
    p = tmp_path / "m.eshm"
    save_model(model, p)
    back = load_model(p)
    assert np.array_equal(back.encode_graph(Q).words, before_g)
    assert np.array_equal(back.encode_linear(Q).words, before_l)


def test_model_truncation_detected(tmp_path):
    model, _, _, _ = small_model(seed=17)
    p = tmp_path / "m.eshm"
    save_model(model, p)
    data = p.read_bytes()
    p.write_bytes(data[:-9])
    with pytest.raises(FormatError):
        load_model(p)


def test_model_corruption_detected(tmp_path):
    model, _, _, _ = small_model(seed=18)
    p = tmp_path / "m.eshm"
    save_model(model, p)
    data = bytearray(p.read_bytes())
    data[len(data) // 2] ^= 0xFF
    p.write_bytes(bytes(data))
    with pytest.raises(FormatError, match="checksum"):
        load_model(p)


def test_model_version_check(tmp_path):
    import struct
    import zlib

    model, _, _, _ = small_model(seed=19)
    p = tmp_path / "m.eshm"
    save_model(model, p)
    body = bytearray(p.read_bytes()[:-4])
    body[4] = 250  # version byte
    p.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(bytes(body))))
    with pytest.raises(FormatError, match="version"):
        load_model(p)


def test_model_rejects_non_model_file(tmp_path):
    p = tmp_path / "m.eshm"
    p.write_bytes(b"garbage")
    with pytest.raises(FormatError):
        load_model(p)


def test_codes_file_round_trip(tmp_path):
    rng = np.random.default_rng(20)
    codes = pack_codes(random_bits(rng, 33, 17))
    p = tmp_path / "c.eshb"
    save_codes(codes, p)
    back = load_codes(p)
    assert back.n == codes.n and back.k == codes.k
    assert np.array_equal(back.words, codes.words)


@pytest.mark.parametrize("n, k", [(0, 8), (3, 0), (0, 0)])
def test_save_codes_rejects_what_load_codes_refuses(tmp_path, n, k):
    codes = PackedCodes(n=n, k=k, words=np.zeros((n, (k + 63) // 64), dtype=np.uint64))
    p = tmp_path / "c.eshb"
    with pytest.raises(ValueError, match="at least one"):
        save_codes(codes, p)
    assert not p.exists()


def test_codes_file_truncation(tmp_path):
    rng = np.random.default_rng(21)
    codes = pack_codes(random_bits(rng, 10, 8))
    p = tmp_path / "c.eshb"
    save_codes(codes, p)
    p.write_bytes(p.read_bytes()[:-3])
    with pytest.raises(FormatError, match="payload"):
        load_codes(p)


def test_truncated_files_raise_the_dataset_format_error(tmp_path):
    # one FormatError for every file format, so one except clause covers them
    assert FormatError is dataset.FormatError
    codes_p, model_p = tmp_path / "c.eshb", tmp_path / "m.eshm"
    save_codes(pack_codes(random_bits(np.random.default_rng(22), 10, 8)), codes_p)
    save_model(small_model(seed=23)[0], model_p)
    for path, load in ((codes_p, load_codes), (model_p, load_model)):
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(dataset.FormatError):
            load(path)


def test_codes_csv_export(tmp_path):
    B = np.array([[1, -1, 1], [-1, 1, -1]])
    p = tmp_path / "c.csv"
    codes_to_csv(pack_codes(B), p)
    got = np.loadtxt(p, delimiter=",", dtype=int)
    assert np.array_equal(got, B)
