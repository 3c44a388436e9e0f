import csv

import numpy as np
import pytest

from esh.anchor_graph import anchor_mass, fit_anchor_graph, similarity_matrix
from esh.dataset import generate_synthetic, standardize
from esh.optimizer import (
    TrainConfig,
    auto_alpha,
    bb_step,
    cayley_step,
    init_projection,
    orth_residual,
    stiefel_project,
    tangent_gradient,
    train,
)
from esh.optimizer import _STEP_RULES, _Objective, _prepare, _TraceBuilder
from oracles import euclidean_gradient, loss_value, objective_terms, reference_objective, sgn


def naive_loss(W, X, S, alpha):
    # literal double-loop transcription of the objective
    n, k = X.shape[0], W.shape[1]
    WSW = W.T @ S @ W
    t1 = -sum(WSW[j, j] for j in range(k)) / n
    XW = X @ W
    t2 = 0.0
    for i in range(n):
        for j in range(k):
            t2 += (abs(XW[i, j]) - 1.0) ** 2
    return t1 + 0.5 * alpha * t2 / n


def random_instance(rng, n, d, k):
    X = rng.standard_normal((n, d))
    M = rng.standard_normal((d, d))
    S = M @ M.T / n
    W = init_projection(d, k, int(rng.integers(1 << 30)))
    return X, S, W


def blob_problem(n_per, clusters, d, seed):
    X_raw, _ = generate_synthetic(clusters, n_per, d, 1.0, seed=seed)
    X, _ = standardize(X_raw)
    _, Z = fit_anchor_graph(X, m=30, iters=10, seed=seed, s=3)
    S = similarity_matrix(X, Z, anchor_mass(Z))
    return X, S


# The two training loops that `train` replaced, kept verbatim but for the
# evaluator they share with it, as the reference that its step rules must
# reproduce bit for bit.
def esh1_train(X, S, cfg: TrainConfig):
    """Projected gradient descent: Euclidean step, then SVD projection."""
    X, S, W, alpha = _prepare(X, S, cfg)
    objective = _Objective(X, S, alpha)
    loss, G = objective(W)
    tr = _TraceBuilder(alpha, loss)
    for it in range(1, cfg.iters + 1):
        W = stiefel_project(W - cfg.eta * G)
        loss, G = objective(W)
        tr.add(it, loss, orth_residual(W), cfg.eta)
    return W, tr.build()


def esh2_train(X, S, cfg: TrainConfig):
    """Cayley curve search with Barzilai-Borwein steps."""
    X, S, W, alpha = _prepare(X, S, cfg)
    objective = _Objective(X, S, alpha)
    loss, G = objective(W)
    T = tangent_gradient(W, G)
    tr = _TraceBuilder(alpha, loss)
    tau = cfg.tau0
    for it in range(1, cfg.iters + 1):
        W_new = cayley_step(W, G, tau)
        loss, G_new = objective(W_new)
        T_new = tangent_gradient(W_new, G_new)
        tr.add(it, loss, orth_residual(W_new), tau)
        tau = bb_step(W_new - W, T_new - T, fallback=tau)
        W, G, T = W_new, G_new, T_new
    return W, tr.build()


def test_sgn_zero_rules():
    M = np.array([-2.0, 0.0, 3.0])
    assert np.array_equal(sgn(M), [-1.0, 0.0, 1.0])
    assert np.array_equal(sgn(M, zero_rule="one"), [-1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        sgn(M, zero_rule="weird")


def test_sgn_idempotent():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((6, 4))
    M[2, 1] = 0.0
    for rule in ("zero", "one"):
        once = sgn(M, zero_rule=rule)
        assert np.array_equal(sgn(once, zero_rule=rule), once)


def test_init_square_is_orthogonal():
    W = init_projection(5, 5, seed=1)
    assert abs(abs(np.linalg.det(W)) - 1.0) < 1e-8


def test_init_deterministic_and_feasible():
    a = init_projection(64, 16, seed=2)
    b = init_projection(64, 16, seed=2)
    assert np.array_equal(a, b)
    assert orth_residual(a) < 1e-10


def test_init_rejects_wide():
    with pytest.raises(ValueError):
        init_projection(3, 4, seed=0)


def test_loss_identity_similarity():
    n, d, k = 10, 6, 3
    W = init_projection(d, k, seed=3)
    X = np.zeros((n, d))
    assert np.isclose(loss_value(W, X, np.eye(d), 0.0), -k / n)


def test_loss_quantization_free():
    rng = np.random.default_rng(4)
    d, k, n = 7, 3, 15
    W = init_projection(d, k, seed=5)
    B = np.where(rng.standard_normal((n, k)) > 0, 1.0, -1.0)
    X = B @ W.T  # XW = B exactly, all entries +-1
    S = np.zeros((d, d))
    assert abs(reference_objective(W, X, S, alpha=10.0)[0]) < 1e-20
    # training's evaluator forms the quantization term from Gram terms of
    # size alpha k / 2 each, so it returns zero up to their rounding
    assert abs(loss_value(W, X, S, alpha=10.0)) < 1e-12


def test_loss_matches_naive_oracle():
    rng = np.random.default_rng(6)
    for _ in range(5):
        X, S, W = random_instance(rng, 30, 8, 3)
        alpha = float(rng.uniform(0.1, 5.0))
        assert np.isclose(
            loss_value(W, X, S, alpha), naive_loss(W, X, S, alpha), rtol=1e-12
        )


def assert_matches_reference(objective, W, X, S, alpha, rtol=1e-12):
    loss, G = objective(W)
    ref_loss, ref_G = reference_objective(W, X, S, alpha)
    assert abs(loss - ref_loss) <= rtol * objective_terms(W, X, S, alpha)
    assert np.linalg.norm(G - ref_G) <= rtol * np.linalg.norm(ref_G)
    return G


def check_objective_over_shapes(n, d, k, dtype):
    """_Objective on rows of dtype against the reference on their float64 values."""
    rng = np.random.default_rng(n + d + k)
    X, S, W = random_instance(rng, n, d, k)
    X = X.astype(dtype)
    alpha = float(rng.uniform(0.1, 5.0))
    objective = _Objective(X, S, alpha)
    X = X.astype(np.float64)
    assert_matches_reference(objective, W, X, S, alpha)
    # a second, unrelated W flips about half the signs at once
    assert_matches_reference(objective, init_projection(d, k, seed=n), X, S, alpha)


SHAPES = [(40, 6, 2), (300, 32, 8), (500, 64, 64), (2000, 128, 16)]


@pytest.mark.parametrize("n, d, k", SHAPES)
def test_objective_matches_reference_over_shapes(n, d, k):
    check_objective_over_shapes(n, d, k, np.float64)


@pytest.mark.parametrize("n, d, k", SHAPES)
def test_objective_on_float32_rows_matches_reference_over_shapes(n, d, k):
    check_objective_over_shapes(n, d, k, np.float32)


def check_objective_along_300_iterations(algorithm, dtype):
    # P = X^T sgn(XW) is updated where signs flip; drift would show here
    X, S = blob_problem(150, 8, 32, seed=41)
    cfg = TrainConfig(bits=16, iters=300, algorithm=algorithm, eta=0.05, seed=42)
    X, S, W, alpha = _prepare(X.astype(dtype), S, cfg)
    step = _STEP_RULES[algorithm](cfg)
    objective = _Objective(X, S, alpha)
    X = X.astype(np.float64)
    flips, G = 0, objective(W)[1]
    for _ in range(cfg.iters):
        W, _ = step(W, G)
        before = objective.B
        G = assert_matches_reference(objective, W, X, S, alpha)
        flips += int(np.count_nonzero(objective.B != before))
    assert flips > 100
    fresh = objective.B.T.astype(np.float64) @ X
    assert np.linalg.norm(objective.Pt - fresh) <= 1e-12 * np.linalg.norm(fresh)


@pytest.mark.parametrize("algorithm", ["esh1", "esh2"])
def test_objective_matches_reference_along_300_iterations(algorithm):
    check_objective_along_300_iterations(algorithm, np.float64)


@pytest.mark.parametrize("algorithm", ["esh1", "esh2"])
def test_objective_on_float32_rows_by_blocks_along_300_iterations(algorithm, monkeypatch):
    # blocks of 256 entries: X^T X, the first P, each flip update and the
    # sign rechecks go over many blocks of rows
    monkeypatch.setattr("esh.kernels.BLOCK_VALUES", 256)
    check_objective_along_300_iterations(algorithm, np.float32)


def test_objective_keeps_zero_rows_and_exact_zeros_of_XW():
    # w_0 lives on dims 0-3 and w_1 on dims 4-7, so rows on the other half
    # project to exactly zero in any precision and summation order
    rng = np.random.default_rng(44)
    d, n = 8, 40
    W = np.zeros((d, 2))
    W[:4, 0] = init_projection(4, 1, seed=45)[:, 0]
    W[4:, 1] = init_projection(4, 1, seed=46)[:, 0]
    X = rng.standard_normal((n, d))
    X[:10, :4] = 0.0
    X[10:20, 4:] = 0.0
    X[20:25] = 0.0
    M = rng.standard_normal((d, d))
    S = M @ M.T / n
    XW = X @ W
    assert np.count_nonzero(XW == 0.0) >= 25
    objective = _Objective(X, S, 2.0)
    B = objective.signs(W)
    assert not B[20:25].any()
    assert np.array_equal(B, np.sign(XW))
    assert_matches_reference(objective, W, X, S, 2.0)


def check_float32_signs_inside_the_error_band(dtype):
    # rows moved to within 1e-10 of the hyperplane of w_j (float32 rows: to
    # within their rounding of it): the float32 product gets some of their
    # signs wrong, the evaluator must not
    rng = np.random.default_rng(47)
    n, d, k = 400, 64, 4
    X, S, W = random_instance(rng, n, d, k)
    j = np.arange(n) % k
    t = rng.choice([-1.0, 1.0], n) * 1e-10 * rng.uniform(1.0, 2.0, n)
    Wj = W[:, j].T
    X -= ((np.einsum("ij,ij->i", X, Wj) - t) / np.einsum("ij,ij->i", Wj, Wj))[:, None] * Wj
    objective = _Objective(X.astype(dtype), S, 0.7)
    X = X.astype(dtype).astype(np.float64)
    exact = np.sign(X @ W)
    float32 = np.sign(objective.X32 @ W.astype(np.float32))
    assert np.count_nonzero(float32 != exact) >= 10
    assert np.array_equal(objective.signs(W), exact)
    assert_matches_reference(objective, W, X, S, 0.7)


def test_objective_corrects_float32_signs_inside_the_error_band():
    check_float32_signs_inside_the_error_band(np.float64)


def test_objective_of_float32_rows_corrects_signs_inside_the_error_band():
    check_float32_signs_inside_the_error_band(np.float32)


def test_gradient_identity_similarity():
    W = init_projection(6, 2, seed=7)
    X = np.zeros((40, 6))
    G = euclidean_gradient(W, X, np.eye(6), 0.0)
    assert np.allclose(G, -2.0 / 40 * W, atol=1e-14)


def test_gradient_regularizer_vanishes_at_pm_one():
    rng = np.random.default_rng(8)
    d, k, n = 6, 3, 12
    W = init_projection(d, k, seed=9)
    B = np.where(rng.standard_normal((n, k)) > 0, 1.0, -1.0)
    X = B @ W.T
    M = rng.standard_normal((d, d))
    S = M @ M.T
    G = euclidean_gradient(W, X, S, alpha=7.0)
    assert np.allclose(G, -2.0 / n * S @ W, atol=1e-12)


def finite_diff_gradient(W, X, S, alpha, h=1e-6):
    G = np.zeros_like(W)
    for a in range(W.shape[0]):
        for b in range(W.shape[1]):
            Wp = W.copy()
            Wm = W.copy()
            Wp[a, b] += h
            Wm[a, b] -= h
            G[a, b] = (loss_value(Wp, X, S, alpha) - loss_value(Wm, X, S, alpha)) / (2 * h)
    return G


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(10)
    done = 0
    while done < 3:
        X, S, W = random_instance(rng, 40, 6, 2)
        if np.abs(X @ W).min() <= 1e-3:
            continue  # |XW| near zero makes the loss locally non-smooth
        alpha = float(rng.uniform(0.5, 3.0))
        G = euclidean_gradient(W, X, S, alpha)
        Gfd = finite_diff_gradient(W, X, S, alpha)
        assert np.linalg.norm(G - Gfd) / np.linalg.norm(Gfd) < 1e-5
        done += 1


def test_auto_alpha_constructed_case():
    # one sample, one dim: T1 = -1, T2 = 2 so alpha = 1
    W = np.array([[1.0]])
    S = np.array([[1.0]])
    X = np.array([[1.0 + np.sqrt(2.0)]])
    assert np.isclose(auto_alpha(W, X, S), 1.0, rtol=1e-12)


def test_auto_alpha_balances_terms():
    rng = np.random.default_rng(11)
    for _ in range(5):
        X, S, W = random_instance(rng, 50, 7, 3)
        alpha = auto_alpha(W, X, S)
        n = X.shape[0]
        t1 = -np.trace(W.T @ S @ W) / n
        t2 = 0.5 * alpha / n * ((np.abs(X @ W) - 1.0) ** 2).sum()
        assert abs(abs(t1) - t2) < 1e-9 * max(abs(t1), 1e-30)
        assert alpha > 0


def test_auto_alpha_of_float32_rows_is_that_of_their_float64_values(monkeypatch):
    monkeypatch.setattr("esh.kernels.BLOCK_VALUES", 64)  # XW over many blocks of rows
    rng = np.random.default_rng(43)
    X, S, W = random_instance(rng, 200, 7, 3)
    X = X.astype(np.float32)
    alpha = auto_alpha(W, X, S)
    assert alpha == auto_alpha(W, X.astype(np.float64), S)
    t1 = -np.trace(W.T @ S @ W) / 200
    t2 = 0.5 * alpha / 200 * ((np.abs(X.astype(np.float64) @ W) - 1.0) ** 2).sum()
    assert abs(abs(t1) - t2) < 1e-9 * abs(t1)


def test_auto_alpha_rejects_vanishing_quantization():
    W = init_projection(5, 2, seed=12)
    B = np.where(np.random.default_rng(13).standard_normal((8, 2)) > 0, 1.0, -1.0)
    X = B @ W.T
    with pytest.raises(ValueError, match="quantization"):
        auto_alpha(W, X, np.eye(5))


def test_project_fixed_point_and_scaling():
    Q = init_projection(6, 3, seed=14)
    assert np.abs(stiefel_project(Q) - Q).max() < 1e-10
    assert np.abs(stiefel_project(3.0 * Q) - Q).max() < 1e-10


def test_project_beats_random_candidates():
    rng = np.random.default_rng(15)
    for d, k in ((5, 3), (20, 8)):
        W = rng.standard_normal((d, k))
        P = stiefel_project(W)
        base = np.linalg.norm(W - P)
        for _ in range(200):
            Q, _ = np.linalg.qr(rng.standard_normal((d, k)))
            assert base <= np.linalg.norm(W - Q) + 1e-12


def test_project_rejects_rank_deficient():
    W = np.ones((4, 2))  # rank 1
    with pytest.raises(ValueError, match="rank"):
        stiefel_project(W)


def test_tangent_gradient_special_cases():
    W = init_projection(7, 3, seed=16)
    assert np.abs(tangent_gradient(W, W)).max() < 1e-12
    assert np.array_equal(tangent_gradient(W, np.zeros_like(W)), np.zeros_like(W))


def test_tangent_gradient_antisymmetric_part():
    rng = np.random.default_rng(17)
    W = init_projection(9, 4, seed=18)
    G = rng.standard_normal((9, 4))
    T = tangent_gradient(W, G)
    A = W.T @ T  # equals W^T G - G^T W, antisymmetric
    assert np.abs(A + A.T).max() < 1e-10
    assert np.allclose(A, W.T @ G - G.T @ W, atol=1e-12)


def test_cayley_fixed_points():
    W = init_projection(8, 3, seed=19)
    G = np.random.default_rng(20).standard_normal((8, 3))
    assert np.allclose(cayley_step(W, np.zeros_like(W), 0.5), W, atol=1e-14)
    assert np.allclose(cayley_step(W, G, 0.0), W, atol=1e-14)


def test_cayley_preserves_orthonormality():
    rng = np.random.default_rng(21)
    for d, k in ((10, 4), (64, 16), (33, 5)):
        W = init_projection(d, k, seed=int(rng.integers(1 << 30)))
        G = rng.standard_normal((d, k))
        F = G @ W.T - W @ G.T
        assert np.abs(F + F.T).max() < 1e-12
        for tau in (1e-3, 0.1, 1.0):
            Y = cayley_step(W, G, tau)
            assert orth_residual(Y) < 1e-10


def dense_cayley(W, G, tau):
    # the d x d form: Y = (I + tau/2 F)^{-1} (I - tau/2 F) W, F = G W^T - W G^T
    I = np.eye(W.shape[0])
    F = G @ W.T - W @ G.T
    return np.linalg.solve(I + 0.5 * tau * F, (I - 0.5 * tau * F) @ W)


def test_cayley_matches_dense_oracle():
    rng = np.random.default_rng(39)
    # (12, 8) has 2k > d, so the low-rank system is larger than the dense one
    for d, k in ((12, 8), (40, 3), (128, 16), (300, 32)):
        W = init_projection(d, k, seed=int(rng.integers(1 << 30)))
        G = rng.standard_normal((d, k))
        for tau in (1e-3, 0.1, 10.0):
            Y = cayley_step(W, G, tau)
            assert np.abs(Y - dense_cayley(W, G, tau)).max() <= 1e-12
            assert orth_residual(Y) < 1e-12


def test_bb_step_formula_cases():
    M = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.isclose(bb_step(M, M, fallback=0.5), 1.0)
    # trace-orthogonal pair clamps at the floor
    A = np.array([[1.0, 0.0], [0.0, 0.0]])
    B = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert bb_step(A, B, fallback=0.5) == 1e-10


def test_bb_step_matches_scalar_oracle():
    rng = np.random.default_rng(22)
    for _ in range(5):
        M = rng.standard_normal((6, 3))
        Y = rng.standard_normal((6, 3))
        num = abs(sum(M[i, j] * Y[i, j] for i in range(6) for j in range(3)))
        den = sum(Y[i, j] ** 2 for i in range(6) for j in range(3))
        assert np.isclose(bb_step(M, Y, fallback=0.5), np.clip(num / den, 1e-10, 1e3), rtol=1e-12)


def test_bb_step_stagnation_fallback():
    M = np.ones((3, 2))
    Z = np.zeros((3, 2))
    assert bb_step(M, Z, fallback=0.42) == 0.42


def test_train_config_validation():
    ok = dict(bits=4, iters=10)
    TrainConfig(**ok)
    for bad in (
        dict(ok, bits=0),
        dict(ok, iters=0),
        dict(ok, algorithm="esh3"),
        dict(ok, eta=-0.1),
        dict(ok, tau0=-1.0),
        dict(ok, alpha=-2.0),
        dict(ok, alpha="automatic"),
    ):
        with pytest.raises(ValueError):
            TrainConfig(**bad)


@pytest.mark.parametrize("field", ["eta", "tau0", "alpha"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_train_config_rejects_non_finite_numbers(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        TrainConfig(bits=4, iters=10, **{field: value})


def test_esh1_zero_step_is_projection_of_start():
    X, S = blob_problem(40, 3, 6, seed=23)
    cfg = TrainConfig(bits=3, iters=1, algorithm="esh1", eta=0.0, seed=24)
    W, trace = train(X, S, cfg)
    W0 = init_projection(X.shape[1], 3, seed=24)
    assert np.array_equal(W, stiefel_project(W0))
    assert np.abs(W - W0).max() < 1e-10
    assert len(trace.iteration) == 1


def test_esh2_zero_tau_keeps_start():
    X, S = blob_problem(40, 3, 6, seed=25)
    cfg = TrainConfig(bits=3, iters=1, algorithm="esh2", tau0=0.0, seed=26)
    W, trace = train(X, S, cfg)
    assert np.array_equal(W, init_projection(X.shape[1], 3, seed=26))
    assert len(trace.iteration) == 1


def test_esh1_descends_on_blobs():
    X, S = blob_problem(250, 8, 16, seed=27)
    cfg = TrainConfig(bits=8, iters=200, algorithm="esh1", seed=28)
    W, trace = train(X, S, cfg)
    assert trace.loss[-1] <= trace.initial_loss
    assert len(trace.iteration) == 200
    assert trace.orth_residual.max() < 1e-8
    assert np.all(trace.step_size == 0.01)


def test_esh2_descends_on_blobs():
    X, S = blob_problem(250, 8, 16, seed=29)
    cfg = TrainConfig(bits=8, iters=200, algorithm="esh2", seed=30)
    W, trace = train(X, S, cfg)
    assert trace.loss[-1] <= trace.initial_loss
    assert trace.orth_residual.max() < 1e-6
    assert trace.step_size[0] == cfg.tau0


def test_train_matches_the_two_reference_loops_bit_for_bit():
    X, S = blob_problem(60, 4, 8, seed=39)
    reference = {"esh1": esh1_train, "esh2": esh2_train}
    for over in (
        {},
        {"tau0": 0.0},
        {"alpha": 0.0},
        {"alpha": 2.5, "eta": 0.05, "tau0": 0.5},
    ):
        for algo, ref_train in reference.items():
            cfg = TrainConfig(bits=4, iters=40, algorithm=algo, seed=40, **over)
            W_ref, ref = ref_train(X, S, cfg)
            W, got = train(X, S, cfg)
            assert np.array_equal(W, W_ref), (algo, over)
            for col in ("iteration", "loss", "orth_residual", "step_size"):
                assert np.array_equal(getattr(got, col), getattr(ref, col)), (algo, over, col)
            assert got.alpha == ref.alpha and got.initial_loss == ref.initial_loss


@pytest.mark.parametrize("algo", ["esh1", "esh2"])
def test_train_on_float32_rows_is_train_on_their_float64_values(algo, monkeypatch):
    # both read float64 copies of the same blocks, and both get the float64
    # signs, so they agree bit for bit, and with the reference loops
    monkeypatch.setattr("esh.kernels.BLOCK_VALUES", 256)
    X, S = blob_problem(60, 4, 8, seed=39)
    X32 = X.astype(np.float32)
    cfg = TrainConfig(bits=4, iters=40, algorithm=algo, seed=40)
    W, got = train(X32, S, cfg)
    for W_ref, ref in (train(X32.astype(np.float64), S, cfg),
                       {"esh1": esh1_train, "esh2": esh2_train}[algo](X32, S, cfg)):
        assert np.array_equal(W, W_ref)
        for col in ("iteration", "loss", "orth_residual", "step_size"):
            assert np.array_equal(getattr(got, col), getattr(ref, col)), col
        assert got.alpha == ref.alpha and got.initial_loss == ref.initial_loss


def test_training_deterministic():
    X, S = blob_problem(60, 4, 8, seed=31)
    cfg = TrainConfig(bits=4, iters=30, algorithm="esh2", seed=32)
    W1, t1 = train(X, S, cfg)
    W2, t2 = train(X, S, cfg)
    assert np.array_equal(W1, W2)
    assert np.array_equal(t1.loss, t2.loss)
    assert np.array_equal(t1.step_size, t2.step_size)


def test_loss_depends_on_X_only_through_S_and_XW():
    # zero X with alpha=0 leaves exactly the similarity trace term
    rng = np.random.default_rng(35)
    d, k, n = 6, 3, 20
    M = rng.standard_normal((d, d))
    S = M @ M.T
    W = init_projection(d, k, seed=36)
    got = loss_value(W, np.zeros((n, d)), S, 0.0)
    assert np.isclose(got, -np.trace(W.T @ S @ W) / n, rtol=1e-12)


def test_trace_csv_round_trip(tmp_path):
    X, S = blob_problem(40, 3, 6, seed=37)
    cfg = TrainConfig(bits=3, iters=7, algorithm="esh2", seed=38)
    _, trace = train(X, S, cfg)
    full = tmp_path / "full.csv"
    trace.to_csv(full)
    with open(full) as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["iteration", "loss", "orth_residual", "step_size", "elapsed_ms"]
    assert len(rows) == 8
    assert [int(r[0]) for r in rows[1:]] == list(range(1, 8))
    assert np.allclose([float(r[1]) for r in rows[1:]], trace.loss)
    bare = tmp_path / "bare.csv"
    trace.to_csv(bare, include_timing=False)
    with open(bare) as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["iteration", "loss", "orth_residual", "step_size"]
