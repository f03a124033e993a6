"""Each reference check accepts a correct answer and rejects a perturbed one."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

import reference as ref
from reference import CheckFailed


def _tall(n, d, seed):
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((n, d)))
    V, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return (U * 0.8 ** np.arange(d)) @ V.T


# -- ridge ---------------------------------------------------------------


@pytest.fixture
def ridge_case():
    A = _tall(300, 12, 0)
    rng = np.random.default_rng(1)
    b = A @ rng.standard_normal(12) + 0.01 * rng.standard_normal(300)
    lam = 0.05
    return A, b, lam, ref.ridge_reference(A, b, lam)


def test_ridge_reference_solves_normal_equations(ridge_case):
    A, b, lam, r = ridge_case
    x = np.linalg.solve(A.T @ A + lam * np.eye(A.shape[1]), A.T @ b)
    assert ref.check_ridge(r, A, b, lam, x, None) == pytest.approx(1.0, abs=1e-12)


def test_ridge_exact_rejects_perturbed_solution(ridge_case):
    A, b, lam, r = ridge_case
    with pytest.raises(CheckFailed):
        ref.check_ridge(r, A, b, lam, r["x"] * (1 + 1e-4), None)


def test_ridge_sketched_rule(ridge_case):
    A, b, lam, r = ridge_case
    assert ref.check_ridge(r, A, b, lam, r["x"] * 0.9, 0.5) <= 1.5
    with pytest.raises(CheckFailed):
        ref.check_ridge(r, A, b, lam, np.zeros_like(r["x"]), 0.01)


# -- ridge low-rank --------------------------------------------------------


@pytest.fixture
def lowrank_case():
    A = _tall(80, 30, 2)
    k, lam = 4, 0.05
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    w = np.sqrt(np.maximum(s[:k] - lam, 0.0))
    return A, k, lam, U[:, :k] * w, w[:, None] * Vt[:k], ref.lowrank_reference(A, k, lam)


def test_lowrank_optimum_matches_shrinkage_factors(lowrank_case):
    A, k, lam, Y, X, r = lowrank_case
    assert ref.check_lowrank(r, A, Y, X, lam, None) == pytest.approx(1.0, abs=1e-12)


def test_lowrank_optimum_is_a_lower_bound(lowrank_case):
    A, k, lam, Y, X, r = lowrank_case
    rng = np.random.default_rng(3)
    for _ in range(5):
        Yp = Y + 1e-3 * rng.standard_normal(Y.shape)
        assert ref.lowrank_objective(A, Yp, X, lam) > r["objective"]


def test_lowrank_exact_rejects_perturbed_factors(lowrank_case):
    A, k, lam, Y, X, r = lowrank_case
    with pytest.raises(CheckFailed):
        ref.check_lowrank(r, A, Y * 1.001, X, lam, None)


def test_lowrank_sketched_rejects_poor_factors(lowrank_case):
    A, k, lam, Y, X, r = lowrank_case
    with pytest.raises(CheckFailed):
        ref.check_lowrank(r, A, Y[:, :1] @ np.ones((1, k)) * 0, X, lam, 0.5)


# -- regularized CCA -------------------------------------------------------


@pytest.fixture
def cca_case():
    rng = np.random.default_rng(4)
    Z = rng.standard_normal((500, 3))
    A = scipy.sparse.csr_matrix(np.hstack([Z, rng.standard_normal((500, 3))]) * (rng.random((500, 6)) < 0.5))
    B = np.hstack([Z[:, :2] + 0.5 * rng.standard_normal((500, 2)), rng.standard_normal((500, 2))])
    lam = 2.0
    r = ref.cca_reference(A, B, lam, lam)
    # weights from the whitened cross product: U = L_A^{-T} M, V = L_B^{-T} N
    LA, LB = np.linalg.cholesky(r["GA"]), np.linalg.cholesky(r["GB"])
    W = scipy.linalg.solve_triangular(LB, scipy.linalg.solve_triangular(LA, r["C"], lower=True).T, lower=True).T
    M, s, Nt = np.linalg.svd(W, full_matrices=False)
    U = scipy.linalg.solve_triangular(LA.T, M, lower=False)
    V = scipy.linalg.solve_triangular(LB.T, Nt.T, lower=False)
    return r, s, U, V


def test_cca_exact_answer_passes(cca_case):
    r, s, U, V = cca_case
    assert ref.check_cca(r, s, U, V, None) <= 1e-9


@pytest.mark.parametrize("perturb", ["sigma", "constraint", "alignment"])
def test_cca_rejects_each_broken_condition(cca_case, perturb):
    r, s, U, V = cca_case
    s2, U2, V2 = s.copy(), U.copy(), V.copy()
    if perturb == "sigma":
        s2[0] += 0.2
    elif perturb == "constraint":
        U2 = U2 * 1.3
    else:
        # swapping two B-side directions keeps the constraints but breaks alignment
        V2[:, [0, 1]] = V2[:, [1, 0]]
    with pytest.raises(CheckFailed):
        ref.check_cca(r, s2, U2, V2, 0.1)


# -- group lasso -----------------------------------------------------------


@pytest.fixture
def group_lasso_case():
    A = _tall(200, 8, 5)
    rng = np.random.default_rng(6)
    Xt = rng.standard_normal((8, 3))
    Xt[5:] = 0.0
    B = A @ Xt + 0.01 * rng.standard_normal((200, 3))
    mu = 0.05
    return A, B, mu, ref.group_lasso_reference(A, B, mu)


def test_group_lasso_reference_meets_optimality(group_lasso_case):
    A, B, mu, r = group_lasso_case
    X = r["X"]
    grad = 2.0 * A.T @ (A @ X - B)
    for i in range(X.shape[0]):
        norm = np.linalg.norm(X[i])
        if norm > 0:
            np.testing.assert_allclose(grad[i] + mu * X[i] / norm, 0.0, atol=1e-8)
        else:
            assert np.linalg.norm(grad[i]) <= mu * (1 + 1e-8)


def test_group_lasso_exact_rejects_perturbed_answer(group_lasso_case):
    A, B, mu, r = group_lasso_case
    assert ref.check_group_lasso(r, A, B, mu, r["X"], None) == pytest.approx(1.0)
    with pytest.raises(CheckFailed):
        ref.check_group_lasso(r, A, B, mu, r["X"] * 1.01, None)


def test_group_lasso_sketched_rejects_zero(group_lasso_case):
    A, B, mu, r = group_lasso_case
    with pytest.raises(CheckFailed):
        ref.check_group_lasso(r, A, B, mu, np.zeros_like(r["X"]), 0.5)
