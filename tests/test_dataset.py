import tracemalloc

import numpy as np
import pytest

from esh.dataset import (
    CENTER_SCALE,
    FormatError,
    LabelSet,
    apply_standardization,
    generate_synthetic,
    load_features,
    load_labels,
    save_features,
    save_labels,
    standardize,
)
from oracles import label_set


def test_csv_parse_small(tmp_path):
    p = tmp_path / "f.csv"
    p.write_text("1,2\n3,4\n5,6\n")
    X = load_features(p)
    assert X.shape == (3, 2)
    assert np.array_equal(X, [[1, 2], [3, 4], [5, 6]])


def test_csv_single_row_and_column(tmp_path):
    p = tmp_path / "f.csv"
    p.write_text("7\n")
    X = load_features(p)
    assert X.shape == (1, 1)


def test_csv_nan_rejected_with_location(tmp_path):
    p = tmp_path / "f.csv"
    p.write_text("1,2\n3,nan\n5,6\n")
    with pytest.raises(FormatError, match="row 1, column 1"):
        load_features(p)


def test_csv_inf_rejected(tmp_path):
    p = tmp_path / "f.csv"
    p.write_text("1,inf\n")
    with pytest.raises(FormatError):
        load_features(p)


def test_csv_load_holds_its_rows_about_once(tmp_path):
    # 4000 x 64 float64 rows (2 MB), parsed at once: loadtxt grows its
    # result in place, so the load never holds the rows twice (as it would
    # with parsed blocks and a concatenation of them)
    X = np.random.default_rng(9).standard_normal((4000, 64))
    p = tmp_path / "f.csv"
    save_features(X, p)
    tracemalloc.start()
    try:
        Y = load_features(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(Y, X)
    assert peak < 1.25 * X.nbytes, f"peak {peak / X.nbytes:.2f} x the rows"


def test_binary_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.standard_normal((13, 5)).astype(np.float32).astype(np.float64)
    p = tmp_path / "f.eshf"
    save_features(X, p)
    Y = load_features(p)
    assert np.array_equal(X, Y)  # float32 payload, input already float32-exact


def test_features_load_at_their_stored_precision(tmp_path):
    X = np.random.default_rng(1).standard_normal((13, 5)).astype(np.float32).astype(np.float64)
    save_features(X, tmp_path / "f.eshf")
    save_features(X, tmp_path / "f.csv")
    binary, text = load_features(tmp_path / "f.eshf"), load_features(tmp_path / "f.csv")
    assert binary.dtype == np.float32 and text.dtype == np.float64
    for Y in (binary, text):
        assert Y.flags.writeable and Y.flags.aligned
        assert np.array_equal(Y, X)
    binary[0, 0] = 7.0  # the payload is the caller's own
    assert load_features(tmp_path / "f.eshf")[0, 0] == np.float32(X[0, 0])


def test_binary_empty_rejected(tmp_path):
    import struct

    p = tmp_path / "f.eshf"
    p.write_bytes(b"ESHF" + struct.pack("<BQQ", 1, 0, 4))
    with pytest.raises(FormatError, match="invalid shape"):
        load_features(p)


def test_binary_bad_magic(tmp_path):
    p = tmp_path / "f.eshf"
    p.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(FormatError, match="magic"):
        load_features(p)


def test_binary_truncated_payload(tmp_path):
    p = tmp_path / "f.eshf"
    X = np.ones((4, 3))
    save_features(X, p)
    data = p.read_bytes()
    p.write_bytes(data[:-5])
    with pytest.raises(FormatError, match="payload"):
        load_features(p)


def test_binary_wrong_version(tmp_path):
    import struct

    p = tmp_path / "f.eshf"
    p.write_bytes(b"ESHF" + struct.pack("<BQQ", 9, 1, 1) + b"\x00" * 4)
    with pytest.raises(FormatError, match="version"):
        load_features(p)


def test_standardize_two_point_column():
    X = np.array([[1.0], [3.0]])
    Y, stats = standardize(X)
    assert np.allclose(Y, [[-1.0], [1.0]])
    assert stats.mean[0] == 2.0
    assert stats.std[0] == 1.0


def test_standardize_constant_column_floored():
    X = np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]])
    Y, stats = standardize(X)
    assert np.all(Y[:, 0] == 0.0)
    assert stats.std[0] == 1e-12


def test_standardize_random_moments():
    rng = np.random.default_rng(3)
    X = 4.0 * rng.standard_normal((100, 8)) + 2.0
    Y, _ = standardize(X)
    assert np.all(np.abs(Y.mean(axis=0)) < 1e-8)
    assert np.all(np.abs(Y.std(axis=0) - 1.0) < 1e-6)


def test_standardize_is_idempotent():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((50, 6)) * 3 + 1
    Y, _ = standardize(X)
    Z, stats2 = standardize(Y)
    assert np.all(np.abs(Z - Y) < 1e-10)
    assert np.all(np.abs(stats2.mean) < 1e-12)
    assert np.all(np.abs(stats2.std - 1.0) < 1e-9)


def test_standardize_keeps_float32_rows_in_float32(monkeypatch):
    monkeypatch.setattr("esh.kernels.BLOCK_VALUES", 64)  # many blocks of rows
    rng = np.random.default_rng(7)
    X = (rng.standard_normal((300, 9)) * 5.0 + 40.0).astype(np.float32)
    X[:, 4] = 0.1  # a constant column that is not float32-exact
    Y, stats = standardize(X)
    assert Y.dtype == np.float32 and stats.mean.dtype == stats.std.dtype == np.float64
    Y64, stats64 = standardize(X.astype(np.float64))
    assert Y64.dtype == np.float64
    assert np.allclose(stats.mean, stats64.mean, rtol=1e-14, atol=0)
    assert np.allclose(stats.std, stats64.std, rtol=1e-12, atol=0)
    assert stats.std[4] == 1e-12 and not Y[:, 4].any()
    # the float32 rounding of the float64 transform, row for row
    assert np.array_equal(Y, apply_standardization(X, stats).astype(np.float32))


def test_standardize_needs_two_rows():
    with pytest.raises(ValueError, match="2 samples"):
        standardize(np.ones((1, 3)))


def test_apply_at_mean_and_one_std():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((20, 4)) * 2 + 7
    _, stats = standardize(X)
    assert np.allclose(apply_standardization(stats.mean, stats), 0.0)
    assert np.allclose(apply_standardization(stats.mean + stats.std, stats), 1.0)


def test_apply_reproduces_training_rows_exactly():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((30, 5)) * 1.7 - 0.3
    Y, stats = standardize(X)
    for i in range(X.shape[0]):
        assert np.array_equal(apply_standardization(X[i], stats), Y[i])


def test_apply_dimension_mismatch():
    _, stats = standardize(np.eye(3))
    with pytest.raises(ValueError, match="dimension"):
        apply_standardization(np.zeros(5), stats)


def test_synthetic_deterministic():
    Xa, la = generate_synthetic(2, 1, 2, 0.5, seed=7)
    Xb, lb = generate_synthetic(2, 1, 2, 0.5, seed=7)
    assert np.array_equal(Xa, Xb)
    assert np.array_equal(la.single_array(), lb.single_array())


def synthetic_by_repeat(clusters, per_cluster, dims, spread, seed):
    """generate_synthetic's rows as first written: the centers repeated row
    by row, plus the scaled noise."""
    rng = np.random.default_rng(seed)
    while True:
        centers = rng.standard_normal((clusters, dims))
        norms = np.linalg.norm(centers, axis=1, keepdims=True)
        if np.any(norms == 0):
            continue
        centers *= CENTER_SCALE / norms
        diff = centers[:, None, :] - centers[None, :, :]
        d = np.sqrt((diff * diff).sum(-1))
        np.fill_diagonal(d, np.inf)
        if d.min() >= 0.7 * CENTER_SCALE:
            break
    noise = rng.standard_normal((clusters * per_cluster, dims))
    return np.repeat(centers, per_cluster, axis=0) + spread * noise


@pytest.mark.parametrize("shape, spread, seed", [((3, 10, 8), 0.3, 0), ((50, 62, 128), 2.0, 1),
                                                 ((20, 65, 1024), 1.5, 3), ((2, 1, 1), 1e-3, 5)])
def test_synthetic_rows_equal_the_repeat_formula(shape, spread, seed):
    X, _ = generate_synthetic(*shape, spread, seed)
    assert X.tobytes() == synthetic_by_repeat(*shape, spread, seed).tobytes()


def test_standardize_in_place_equals_a_new_array(monkeypatch):
    monkeypatch.setattr("esh.kernels.BLOCK_VALUES", 64)  # many blocks of rows
    rng = np.random.default_rng(8)
    for dtype in (np.float32, np.float64):
        X = (rng.standard_normal((300, 9)) * 5.0 + 40.0).astype(dtype)
        want, want_stats = standardize(X)
        Y, stats = standardize(X, in_place=True)
        assert Y is X
        assert Y.tobytes() == want.tobytes()
        assert np.array_equal(stats.mean, want_stats.mean)
        assert np.array_equal(stats.std, want_stats.std)


def test_synthetic_small_spread_tightens_clusters():
    X, labels = generate_synthetic(3, 40, 4, 1e-6, seed=1)
    ids = labels.single_array()
    for c in range(3):
        pts = X[ids == c]
        diff = pts[:, None, :] - pts[None, :, :]
        assert np.sqrt((diff**2).sum(-1)).max() < 1e-4


def test_synthetic_nearest_neighbor_accuracy():
    # separated blobs must be almost perfectly 1-NN classifiable
    X, labels = generate_synthetic(10, 500, 32, 1.0, seed=2)
    ids = labels.single_array()
    sq = (X * X).sum(axis=1)
    hits = 0
    for lo in range(0, X.shape[0], 500):
        rows = np.arange(lo, min(lo + 500, X.shape[0]))
        d2 = sq[rows, None] + sq[None, :] - 2.0 * (X[rows] @ X.T)  # |x|^2 + |y|^2 - 2 x.y
        d2[np.arange(rows.size), rows] = np.inf  # leave-one-out
        hits += (ids[d2.argmin(axis=1)] == ids[rows]).sum()
    assert hits / X.shape[0] > 0.99


def test_synthetic_validates_counts():
    with pytest.raises(ValueError):
        generate_synthetic(1, 5, 2, 1.0, seed=0)
    with pytest.raises(ValueError):
        generate_synthetic(2, 0, 2, 1.0, seed=0)
    with pytest.raises(ValueError):
        generate_synthetic(2, 5, 0, 1.0, seed=0)
    with pytest.raises(ValueError):
        generate_synthetic(2, 5, 2, 0.0, seed=0)


def test_labels_round_trip(tmp_path):
    labels = label_set(((1,), (2, 3), (4,)))
    p = tmp_path / "labels.csv"
    save_labels(labels, p)
    assert p.read_text() == "1\n2;3\n4\n"
    back = load_labels(p)
    assert np.array_equal(back.ids, [1, 2, 3, 4])
    assert np.array_equal(back.starts, [0, 1, 3, 4])
    assert back.row(1).tolist() == [2, 3]
    with pytest.raises(ValueError, match="not a single-label set"):
        back.single_array()


def test_labels_of_one_id_per_row_are_single(tmp_path):
    p = tmp_path / "labels.csv"
    p.write_text("3\n1\n3\n")
    labels = load_labels(p)
    assert np.array_equal(labels.starts, [0, 1, 2, 3])
    assert np.array_equal(labels.single_array(), [3, 1, 3])


def test_labels_after_a_byte_order_mark(tmp_path):
    p = tmp_path / "bom.csv"
    p.write_bytes(b"\xef\xbb\xbf1\n2\n")  # as some editors save UTF-8
    labels = load_labels(p)
    assert np.array_equal(labels.ids, [1, 2]) and np.array_equal(labels.starts, [0, 1, 2])


def test_labels_bad_token(tmp_path):
    p = tmp_path / "labels.csv"
    p.write_text("1\nx\n")
    with pytest.raises(FormatError, match="row 1"):
        load_labels(p)


@pytest.mark.parametrize("ids, why", [
    ([1.7], "integer"),  # would be read as class 1
    (np.array([2**63], np.uint64), "int64"),
    (np.array([[1, 2]]), "1-D"),
    ([2**64], "integer"),  # numpy holds it as an object
    (np.array([True, False]), "integer"),
])
def test_label_ids_from_an_array_must_be_int64(ids, why):
    with pytest.raises(ValueError, match=why):
        LabelSet.from_array(ids)


def test_labels_empty_row_rejected():
    with pytest.raises(ValueError, match="sample 1 has no labels"):
        label_set(((1,), ()))


@pytest.mark.parametrize("ids, starts, why", [
    (np.array([1.0]), np.array([0, 1]), "1-D int64 arrays"),
    (np.array([1]), np.array([[0, 1]]), "run from 0"),
    (np.array([1, 2]), np.array([0, 1]), "starts"),  # the last id in no row
    (np.array([1, 2]), np.array([1, 2]), "starts"),  # the first id in no row
    (np.array([1]), np.array([], dtype=np.int64), "starts"),
])
def test_label_rows_must_cover_the_ids(ids, starts, why):
    with pytest.raises(ValueError, match=why):
        LabelSet(ids, starts)
