import warnings

import numpy as np
import pytest

from esh.anchor_graph import (
    LAMBDA_FLOOR,
    AnchorSet,
    SparseAffinityRows,
    _kmeans,
    build_affinity_rows,
    fit_anchor_graph,
    fit_anchors,
    pairwise_sq_dists,
    prune_dead_anchors,
    similarity_factor,
    sq_norms,
)
from esh.dataset import StandardizationStats, generate_synthetic
from esh.encoder import build_hash_model
from esh.kernels import BLOCK_VALUES
from esh.optimizer import init_projection
from oracles import dense_affinity, factor_loop, float64_sq_dists, to_dense


def brute_sq_dists(X, C):
    out = np.zeros((X.shape[0], C.shape[0]))
    for i in range(X.shape[0]):
        for j in range(C.shape[0]):
            out[i, j] = ((X[i] - C[j]) ** 2).sum()
    return out


def kmeans_oracle(X, m, iters, seed, s=3):
    """fit_anchor_graph's anchors with per-call norms and np.add.at sums; also counts
    reseeds and the rounds with an assignment whose two nearest centers lie
    within the rounding of another order of the sums, where the argmin
    depends on the BLAS call (as in test_kernels_props.py). Seeding takes
    its products at X's precision; all else reads X in float64."""
    X64 = np.asarray(X, dtype=np.float64)

    def dists(C, rows=X64):
        P = rows @ C.T.astype(rows.dtype)
        d2 = (X64 * X64).sum(axis=1)[:, None] - 2.0 * P + (C * C).sum(axis=1)[None, :]
        return np.maximum(d2, 0.0)

    n = X.shape[0]
    rng = np.random.default_rng(seed)
    centers = np.empty((m, X.shape[1]))
    centers[0] = X64[rng.integers(n)]
    d2 = dists(centers[:1], X).ravel()
    for j in range(1, m):
        total = d2.sum()
        centers[j] = X64[rng.integers(n) if total <= 0 else rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, dists(centers[j : j + 1], X).ravel())
    reseeds = near_ties = 0
    for _ in range(iters):
        d2 = dists(centers)
        assign = d2.argmin(axis=1)
        _, slack = float64_sq_dists(X64, centers)
        r = np.arange(n)
        gap = d2 - d2[r, assign][:, None]
        gap[r, assign] = np.inf
        near_ties += int(np.any(gap <= 2 * (slack + slack[r, assign][:, None])))
        counts = np.bincount(assign, minlength=m)
        sums = np.zeros_like(centers)
        np.add.at(sums, assign, X64)
        nonempty = counts > 0
        centers[nonempty] = sums[nonempty] / counts[nonempty, None]
        nearest = d2.min(axis=1)
        for j in np.flatnonzero(~nonempty):
            far = int(nearest.argmax())
            centers[j] = X64[far]
            nearest[far] = 0.0
            reseeds += 1
    sigma2 = max(float(np.sort(dists(centers), axis=1)[:, min(s, m) - 1].mean()), 1e-12)
    return centers, sigma2, reseeds, near_ties


def pruned_oracle(X, centers, sigma2, s):
    """The centers that keep mass: drop those the dense Z's column sums put
    below LAMBDA_FLOOR and rebuild Z from the rest, until none is dropped."""
    while True:
        Z = build_affinity_rows(X, AnchorSet(centers=centers, sigma2=sigma2, s=min(s, len(centers))))
        alive = to_dense(Z).sum(axis=0) >= LAMBDA_FLOOR
        if alive.all():
            return centers
        centers = centers[alive]


def fit_quietly(X, **kwargs):
    """fit_anchor_graph with its warning about dropped anchors silenced."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return fit_anchor_graph(X, **kwargs)


def dup_rows():
    """12 distinct points, 4 copies each: seeding runs out of distinct points
    at m=16, so duplicate centers leave clusters empty and get reseeded."""
    return np.repeat(np.random.default_rng(15).standard_normal((12, 5)), 4, axis=0)


def test_kmeans_bit_identical_to_add_at_oracle():
    blobs, _ = generate_synthetic(6, 150, 64, 1.5, seed=16)
    for X, m, want_reseed in ((blobs, 40, False), (dup_rows(), 16, True)):
        anchors, _ = fit_quietly(X, m=m, iters=10, seed=17, s=3)
        centers, sigma2, reseeds, _ = kmeans_oracle(X, m, iters=10, seed=17)
        assert (reseeds > 0) == want_reseed
        assert np.array_equal(_kmeans(X, m, 10, 17), centers)
        assert np.array_equal(anchors.centers, pruned_oracle(X, centers, sigma2, 3))
        assert anchors.sigma2 == sigma2


def test_fit_drops_anchors_with_no_mass_itself():
    # two of the 16 k-means centers are no row's 3 nearest
    X = dup_rows()
    assert len(_kmeans(X, 16, 10, 17)) == 16
    with pytest.warns(UserWarning, match=r"dropping 2 anchor\(s\)") as record:
        anchors, Z = fit_anchor_graph(X, m=16, iters=10, seed=17, s=3)
    assert record[0].filename == __file__  # the warning names fit_anchor_graph's caller
    assert anchors.m == Z.m == 14
    assert np.all(Z.lam >= LAMBDA_FLOOR)
    K = similarity_factor(X, Z)
    assert K.shape == (14, 5) and np.all(np.isfinite(K))
    stats = StandardizationStats(mean=np.zeros(5), std=np.ones(5))
    model, _ = build_hash_model(stats, init_projection(5, 4, seed=18), anchors, Z, X)
    assert model.m == 14 and np.array_equal(model.lam, Z.lam)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_kmeans_by_many_blocks_bit_identical_to_add_at_oracle(dtype, monkeypatch):
    # blocks of 2048 entries: the Lloyd assignment, the center sums, the
    # reseeding distances and the nearest-anchor pass all go in many pieces
    monkeypatch.setattr("esh.kernels.BLOCK_VALUES", 2048)
    rng = np.random.default_rng(20)
    blobs, _ = generate_synthetic(6, 150, 64, 1.5, seed=16)
    # 120 distinct integer points, 4 copies each: duplicate centers leave
    # clusters empty, and every distance and mean is exact in any order
    dup = np.repeat(rng.integers(-8, 9, (120, 5)).astype(np.float64), 4, axis=0)
    for X, m, want_reseed in ((blobs, 40, False), (dup, 160, True)):
        X = X.astype(dtype)
        anchors, _ = fit_quietly(X, m=m, iters=10, seed=17, s=3)
        centers, sigma2, reseeds, near_ties = kmeans_oracle(X, m, iters=10, seed=17)
        assert (reseeds > 0) == want_reseed
        if not want_reseed:
            assert near_ties == 0  # no argmin here depends on how BLAS orders its sums
        assert np.array_equal(_kmeans(X, m, 10, 17), centers)
        # the oracle prunes with fit's sigma2, which its own equals only to rounding
        assert np.array_equal(anchors.centers, pruned_oracle(X, centers, anchors.sigma2, 3))
        # the same distances, summed from one product per block of rows
        assert abs(anchors.sigma2 - sigma2) <= 1e-12 * sigma2


def test_kmeans_beyond_float32_range_matches_the_oracle():
    # rows past float32 range: their float32 copies are inf, so every row whose
    # band they reach is assigned from its float64 distances
    rng = np.random.default_rng(18)
    X = rng.standard_normal((60, 5))
    X[3, 1], X[40] = 1e39, -1e100
    anchors, _ = fit_quietly(X, m=6, iters=4, seed=19, s=2)
    centers, sigma2, _, _ = kmeans_oracle(X, 6, iters=4, seed=19, s=2)
    assert np.array_equal(_kmeans(X, 6, 4, 19), centers)
    assert np.array_equal(anchors.centers, pruned_oracle(X, centers, sigma2, 2))
    assert anchors.sigma2 == sigma2


def test_pairwise_sq_dists_matches_loops():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((17, 4))
    C = rng.standard_normal((5, 4))
    assert np.allclose(pairwise_sq_dists(X, C), brute_sq_dists(X, C), atol=1e-10)


def test_sq_norms_by_blocks_equal_the_whole_array_sums():
    X = np.random.default_rng(1).standard_normal((3 * BLOCK_VALUES // 1024 + 5, 1024))
    assert np.array_equal(sq_norms(X), (X * X).sum(axis=1))


def test_pairwise_with_given_center_norms_is_bit_identical():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((23, 6))
    anchors = AnchorSet(centers=rng.standard_normal((7, 6)), sigma2=1.0, s=2)
    plain = pairwise_sq_dists(X, anchors.centers)
    assert np.array_equal(pairwise_sq_dists(X, anchors.centers, c_sq=anchors.sq_norms), plain)
    assert np.array_equal(anchors.sq_norms, (anchors.centers ** 2).sum(axis=1))


def test_pairwise_never_negative():
    rng = np.random.default_rng(1)
    X = 1e8 * rng.standard_normal((40, 3))
    assert pairwise_sq_dists(X, X.copy()).min() >= 0.0


def test_kmeans_m_equals_n_fixed_point():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((12, 3))
    anchors, _ = fit_anchor_graph(X, m=12, iters=10, seed=0)
    got = anchors.centers[np.lexsort(anchors.centers.T)]
    want = X[np.lexsort(X.T)]
    assert np.allclose(got, want, atol=1e-12)


def test_kmeans_two_blobs_recovers_means():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((200, 2)) * 0.1 + [0, 0]
    b = rng.standard_normal((200, 2)) * 0.1 + [50, 50]
    X = np.vstack([a, b])
    anchors, _ = fit_anchor_graph(X, m=2, iters=20, seed=1, s=2)
    centers = anchors.centers[np.argsort(anchors.centers[:, 0])]
    assert np.allclose(centers[0], a.mean(axis=0), atol=1e-6)
    assert np.allclose(centers[1], b.mean(axis=0), atol=1e-6)


def test_kmeans_deterministic():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((60, 5))
    a1, _ = fit_anchor_graph(X, m=8, iters=10, seed=9)
    a2, _ = fit_anchor_graph(X, m=8, iters=10, seed=9)
    assert np.array_equal(a1.centers, a2.centers)
    assert a1.sigma2 == a2.sigma2


def test_kmeans_rejects_bad_args():
    X = np.ones((5, 2))
    with pytest.raises(ValueError):
        fit_anchor_graph(X, m=6, iters=10, seed=0)
    with pytest.raises(ValueError):
        fit_anchor_graph(X, m=2, iters=0, seed=0)


@pytest.mark.parametrize("s", [0, 6, 9])
def test_s_outside_one_to_m_rejected(s):
    X = np.random.default_rng(21).standard_normal((40, 3))
    for fit in (fit_anchors, fit_anchor_graph):
        with pytest.raises(ValueError, match=r"s must be in \[1, m=5\]"):
            fit(X, m=5, s=s)


@pytest.mark.parametrize("sigma2", [None, 0.7])
def test_one_pass_gives_the_two_pass_sigma2_and_Z(sigma2):
    rng = np.random.default_rng(22)
    X = rng.standard_normal((300, 6)).astype(np.float32)
    anchors, Z = fit_anchor_graph(X, 12, iters=5, seed=23, s=3, sigma2=sigma2)
    # the two passes: the s-th distances of all rows for sigma2, then Z
    kth = np.sort(pairwise_sq_dists(X, anchors.centers), axis=1)[:, 2]
    assert anchors.sigma2 == (kth.mean() if sigma2 is None else sigma2)
    two_pass = build_affinity_rows(X, anchors)
    assert np.array_equal(Z.indices, two_pass.indices)
    assert np.array_equal(Z.weights, two_pass.weights)
    again = fit_anchors(X, 12, iters=5, seed=23, s=3, sigma2=sigma2)
    assert np.array_equal(again.centers, anchors.centers) and again.sigma2 == anchors.sigma2


@pytest.mark.parametrize("sigma2", [np.inf, -np.inf, np.nan])
def test_non_finite_sigma2_rejected(sigma2, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("k-means started before sigma2 was checked")

    monkeypatch.setattr("esh.anchor_graph._kmeans_pp_init", fail)
    with pytest.raises(ValueError, match="sigma2 must be finite"):
        fit_anchor_graph(np.ones((5, 2)), m=2, seed=0, sigma2=sigma2)
    with pytest.raises(ValueError, match="sigma2 must be finite"):
        AnchorSet(centers=np.zeros((2, 2)), sigma2=sigma2, s=1)


def test_default_sigma2_is_mean_sth_distance():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((40, 3))
    anchors, _ = fit_anchor_graph(X, m=10, iters=10, seed=2, s=3)
    d2 = np.sort(brute_sq_dists(X, anchors.centers), axis=1)
    assert np.isclose(anchors.sigma2, d2[:, 2].mean(), rtol=1e-12)


def test_build_Z_single_anchor_rows():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((30, 4))
    anchors, Z = fit_anchor_graph(X, m=6, iters=5, seed=3, s=1)
    assert Z.s == 1
    assert np.all(Z.weights == 1.0)
    d2 = brute_sq_dists(X, anchors.centers)
    assert np.array_equal(Z.indices.ravel(), d2.argmin(axis=1))


def test_build_Z_equidistant_uniform_weights():
    centers = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 9.0]])
    anchors = AnchorSet(centers=centers, sigma2=0.7, s=2)
    Z = build_affinity_rows(np.array([[0.0, 0.4]]), anchors)
    assert set(Z.indices[0]) == {0, 1}
    assert np.allclose(Z.weights[0], 0.5)


def test_build_Z_rows_sum_to_one_and_pick_true_neighbors():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((80, 6))
    anchors, Z = fit_anchor_graph(X, m=15, iters=8, seed=4, s=4)
    assert np.all(np.abs(Z.weights.sum(axis=1) - 1.0) < 1e-12)
    d2 = brute_sq_dists(X, anchors.centers)
    for i in range(X.shape[0]):
        want = set(np.sort(d2[i].argsort(kind="stable")[:4]))
        assert set(Z.indices[i]) == want


def test_build_Z_weights_match_kernel_formula():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((25, 3))
    anchors, Z = fit_anchor_graph(X, m=7, iters=6, seed=5, s=3)
    d2 = brute_sq_dists(X, anchors.centers)
    for i in range(X.shape[0]):
        raw = np.exp(-d2[i, Z.indices[i]] / anchors.sigma2)
        assert np.allclose(Z.weights[i], raw / raw.sum(), rtol=1e-12)


def test_build_Z_survives_tiny_bandwidth():
    # raw kernel underflows; normalized weights must stay finite
    rng = np.random.default_rng(9)
    X = rng.standard_normal((20, 3))
    anchors, Z = fit_anchor_graph(X, m=5, iters=5, seed=6, s=2, sigma2=1e-8)
    assert np.all(np.isfinite(Z.weights))
    assert np.all(np.abs(Z.weights.sum(axis=1) - 1.0) < 1e-12)


def test_affinity_rows_validation():
    with pytest.raises(ValueError, match="repeated"):
        SparseAffinityRows(
            indices=np.array([[0, 0]]), weights=np.array([[0.5, 0.5]]), m=3
        )
    with pytest.raises(ValueError, match="range"):
        SparseAffinityRows(
            indices=np.array([[0, 3]]), weights=np.array([[0.5, 0.5]]), m=3
        )
    with pytest.raises(ValueError, match="sum"):
        SparseAffinityRows(
            indices=np.array([[0, 1]]), weights=np.array([[0.5, 0.9]]), m=3
        )


def test_lambda_single_anchor():
    Z = SparseAffinityRows(
        indices=np.zeros((9, 1), dtype=np.int64), weights=np.ones((9, 1)), m=1
    )
    assert np.array_equal(Z.lam, [9.0])


def test_lambda_hand_case():
    Z = SparseAffinityRows(
        indices=np.array([[0, 1], [0, 1]]), weights=np.full((2, 2), 0.5), m=2
    )
    assert np.allclose(Z.lam, [1.0, 1.0])


def test_lambda_matches_dense_column_sums():
    rng = np.random.default_rng(10)
    X = rng.standard_normal((50, 4))
    anchors, Z = fit_anchor_graph(X, m=9, iters=6, seed=7, s=3)
    assert np.allclose(Z.lam, to_dense(Z).sum(axis=0), atol=1e-12)
    assert abs(Z.lam.sum() - X.shape[0]) < 1e-9


def test_prune_drops_anchor_nobody_uses():
    X = np.vstack([np.zeros((10, 1)), np.full((10, 1), 10.0)])
    anchors = AnchorSet(
        centers=np.array([[0.0], [10.0], [1000.0]]), sigma2=4.0, s=1
    )
    Z = build_affinity_rows(X, anchors)
    with pytest.warns(UserWarning, match="dropping 1 anchor"):
        anchors2, Z2 = prune_dead_anchors(X, anchors, Z)
    assert anchors2.m == Z2.m == 2
    assert np.all(Z2.lam >= LAMBDA_FLOOR)
    assert abs(Z2.lam.sum() - X.shape[0]) < 1e-9


def test_prune_no_op_when_all_alive():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((40, 3))
    anchors, Z = fit_anchor_graph(X, m=5, iters=8, seed=8, s=3)
    anchors2, Z2 = prune_dead_anchors(X, anchors, Z)
    assert anchors2 is anchors
    assert Z2 is Z


def test_similarity_zero_features():
    Z = SparseAffinityRows(
        indices=np.array([[0], [1], [0]]), weights=np.ones((3, 1)), m=2
    )
    K = similarity_factor(np.zeros((3, 4)), Z)
    assert K.shape == (2, 4)
    S = K.T @ K
    assert np.array_equal(S, np.zeros((4, 4)))


def test_similarity_scalar_case():
    # one anchor, one dim: S collapses to (sum x)^2 / n
    x = np.array([[1.0], [2.0], [4.0]])
    Z = SparseAffinityRows(
        indices=np.zeros((3, 1), dtype=np.int64), weights=np.ones((3, 1)), m=1
    )
    K = similarity_factor(x, Z)
    S = K.T @ K
    assert np.isclose(S[0, 0], (1 + 2 + 4) ** 2 / 3.0)


def test_similarity_matches_dense_oracle():
    rng = np.random.default_rng(12)
    for trial in range(5):
        n = int(rng.integers(20, 200))
        X = rng.standard_normal((n, 5))
        anchors, Z = fit_anchor_graph(X, m=min(12, n), iters=5, seed=trial, s=3)
        K = similarity_factor(X, Z)
        S = K.T @ K
        A = dense_affinity(Z)
        assert np.linalg.norm(S - X.T @ A @ X) < 1e-8
        assert np.abs(S - S.T).max() < 1e-10
        ev = np.linalg.eigvalsh(S)
        assert ev.min() >= -1e-8 * max(ev.max(), 1.0)


def test_similarity_of_float32_rows_matches_dense_oracle_of_their_float64_values(monkeypatch):
    # criterion 4's tolerances, with C = Z^T X summed over many blocks of rows
    monkeypatch.setattr("esh.kernels.BLOCK_VALUES", 256)
    rng = np.random.default_rng(24)
    for n, d, m in ((50, 4, 5), (200, 16, 8), (150, 5, 15)):
        X = rng.standard_normal((n, d)).astype(np.float32)
        anchors, Z = fit_anchor_graph(X, m, iters=5, seed=n + d, s=3)
        K = similarity_factor(X, Z)
        S = K.T @ K
        X64 = X.astype(np.float64)
        Sd = X64.T @ dense_affinity(Z) @ X64
        assert np.linalg.norm(S - 0.5 * (Sd + Sd.T)) < 1e-8
        assert np.array_equal(S, S.T)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_similarity_factor_by_blocks_bit_identical_to_the_loop(dtype, monkeypatch):
    # blocks of 512 values: 32-row blocks of rows, each summed in three pieces
    # of its 96 entries, so anchors' runs cross both kinds of boundary
    monkeypatch.setattr("esh.kernels.BLOCK_VALUES", 512)
    X, _ = generate_synthetic(5, 40, 16, 1.5, seed=21)
    X = X.astype(dtype)
    _, Z = fit_anchor_graph(X, m=12, iters=5, seed=22, s=3)
    assert similarity_factor(X, Z).tobytes() == factor_loop(X, Z).tobytes()


def test_similarity_rejects_dead_lambda():
    # no row uses anchor 1, so Z gives it no mass
    Z = SparseAffinityRows(
        indices=np.zeros((3, 1), dtype=np.int64), weights=np.ones((3, 1)), m=2
    )
    assert np.array_equal(Z.lam, [3.0, 0.0])
    with pytest.raises(ValueError, match="floor"):
        similarity_factor(np.ones((3, 2)), Z)


def test_dense_affinity_single_anchor_uniform():
    Z = SparseAffinityRows(
        indices=np.zeros((6, 1), dtype=np.int64), weights=np.ones((6, 1)), m=1
    )
    A = dense_affinity(Z)
    assert np.allclose(A, np.full((6, 6), 1 / 6), atol=1e-15)


def test_dense_affinity_row_sums_symmetry_psd():
    rng = np.random.default_rng(13)
    X = rng.standard_normal((50, 4))
    anchors, Z = fit_anchor_graph(X, m=8, iters=6, seed=14, s=3)
    A = dense_affinity(Z)
    assert np.all(np.abs(A.sum(axis=1) - 1.0) < 1e-10)
    assert np.abs(A - A.T).max() < 1e-12
    assert A.min() >= 0.0
    assert np.linalg.eigvalsh(A).min() >= -1e-9


def test_dense_affinity_cap():
    Z = SparseAffinityRows(
        indices=np.zeros((1001, 1), dtype=np.int64), weights=np.ones((1001, 1)), m=1
    )
    with pytest.raises(ValueError, match="capped"):
        dense_affinity(Z)


def test_pipeline_on_blobs_keeps_everything_finite():
    X, _ = generate_synthetic(4, 50, 8, 1.0, seed=3)
    anchors, Z = fit_anchor_graph(X, m=20, iters=10, seed=0, s=3)
    K = similarity_factor(X, Z)
    assert np.all(np.isfinite(K))
