import tracemalloc

import numpy as np
import pytest
import scipy.sparse

from regsketch import la, problems, ridge
from regsketch import sketch as sk


def make_problem(n, d, seed, lam=None, sd_range=(3.0, 8.0)):
    A, b = problems.generate_problem(n, d, seed)
    if lam is None:
        lam = problems.lambda_for_sd(A, *sd_range)
    return ridge.RidgeProblem(A, b, lam)


class TestSolveExact:
    def test_identity_case(self):
        p = ridge.RidgeProblem(np.eye(2), np.array([2.0, 4.0]), 1.0)
        sol = ridge.solve_exact(p)
        np.testing.assert_allclose(sol.x, [1.0, 2.0], atol=1e-12)
        # ||Ax-b||^2 + ||x||^2 = (1+4) + (1+4) = 10
        assert abs(sol.objective - 10.0) <= 1e-10

    def test_lambda_zero_identity(self):
        p = ridge.RidgeProblem(np.eye(2), np.array([2.0, 4.0]), 0.0)
        sol = ridge.solve_exact(p)
        np.testing.assert_allclose(sol.x, [2.0, 4.0], atol=1e-12)
        assert sol.objective <= 1e-12

    def test_stationarity(self):
        rng = la.make_rng(1)
        A = rng.standard_normal((30, 8))
        b = rng.standard_normal(30)
        p = ridge.RidgeProblem(A, b, 0.7)
        sol = ridge.solve_exact(p)
        grad = 2 * A.T @ (A @ sol.x - b) + 2 * 0.7 * sol.x
        assert np.linalg.norm(grad) <= 1e-8 * (np.linalg.norm(A, 2) ** 2 + 0.7) * np.linalg.norm(sol.x)

    def test_min_norm_flag_on_rank_deficient(self):
        A = np.array([[1.0, 1.0], [2.0, 2.0]])
        sol = ridge.solve_exact(ridge.RidgeProblem(A, np.array([1.0, 2.0]), 0.0))
        assert sol.min_norm

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            ridge.RidgeProblem(np.eye(2), np.zeros(2), -1.0)

    def test_objective_monotone_in_lambda(self):
        for seed in range(20):
            p1 = make_problem(40, 6, seed, lam=0.1)
            p2 = ridge.RidgeProblem(p1.A, p1.rhs, 0.9)
            assert ridge.solve_exact(p1).objective <= ridge.solve_exact(p2).objective + 1e-12


def _sparse_problem(n, d, seed, density):
    rng = la.make_rng(seed, 53)
    A = scipy.sparse.random(n, d, density=density, format="csr", random_state=rng, data_rvs=rng.standard_normal)
    return A, rng.standard_normal(n), rng.standard_normal((n, 3))


class TestSparseExact:
    @pytest.mark.parametrize("n,d,lam", [(2000, 20, 0.3), (30, 300, 0.3), (2000, 20, 0.0)])
    def test_csr_matches_dense(self, n, d, lam):
        A, b, B = _sparse_problem(n, d, 4, 0.2)
        for rhs in (b, B):
            got = ridge.solve_exact(ridge.RidgeProblem(A, rhs, lam))
            want = ridge.solve_exact(ridge.RidgeProblem(A.toarray(), rhs, lam))
            np.testing.assert_allclose(got.x, want.x, rtol=0, atol=1e-10 * np.abs(want.x).max())
            assert abs(got.objective - want.objective) <= 1e-10 * want.objective

    def test_never_densifies_csr(self):
        A, b, _ = _sparse_problem(100_000, 50, 5, 0.02)
        dense_bytes = A.shape[0] * A.shape[1] * 8
        ridge.solve_exact(ridge.RidgeProblem(A[:100], b[:100], 0.5))  # imports outside the trace
        tracemalloc.start()
        try:
            ridge.solve_exact(ridge.RidgeProblem(A, b, 0.5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < dense_bytes / 4


class TestSketchedRows:
    def test_identity_matches_exact(self):
        p = make_problem(50, 6, 2, lam=0.4)
        ex = ridge.solve_exact(p)
        sol = ridge.solve_sketched_rows(p, sk.identity())
        assert abs(sol.objective - ex.objective) <= 1e-6 * ex.objective

    def test_identity_spec_never_densifies_csr(self):
        # the identity hands the CSR A to the solve, which reads it through
        # its Gram, as solve_exact does: the same x and no dense copy of A
        A, b, _ = _sparse_problem(40_000, 50, 5, 0.02)
        p = ridge.RidgeProblem(A, b, 0.5)
        # a small solve first, so imports fall outside the trace
        ridge.solve_sketched_rows(ridge.RidgeProblem(A[:100], b[:100], 0.5), sk.identity())
        tracemalloc.start()
        try:
            sol = ridge.solve_sketched_rows(p, sk.identity())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < A.shape[0] * A.shape[1] * 8 / 4
        assert np.array_equal(sol.x, ridge.solve_exact(p).x)

    def test_large_lambda_guard(self):
        rng = la.make_rng(3)
        A = rng.standard_normal((60, 5))
        b = rng.standard_normal(60)
        p = ridge.RidgeProblem(A, b, 1e6)
        sol = ridge.solve_sketched_rows(p, sk.countsketch(8, seed=1))
        assert sol.objective <= float(np.sum(b**2)) + 1e-12

    def test_guard_dominance_across_sizes(self):
        p = make_problem(80, 10, 4, lam=2.0)
        bnorm2 = float(np.sum(np.asarray(p.rhs) ** 2))
        for m in (1, 3, 10, 40):
            sol = ridge.solve_sketched_rows(p, sk.countsketch(m, seed=m))
            assert sol.objective <= bnorm2 + 1e-12

    def test_policy_sizes_within_eps(self):
        hits = 0
        policy = sk.SizePolicy()
        for seed in range(10):
            p = make_problem(1500, 25, seed)
            ex = ridge.solve_exact(p)
            s = np.linalg.svd(np.asarray(p.A), compute_uv=False)
            sd = float(np.sum(s**2 / (s**2 + p.lam)))
            m = min(1500, sk.recommend_sizes(policy, sd, 0.5, "ridge_rows"))
            sol = ridge.solve_sketched_rows(p, sk.countsketch(m, seed=seed))
            hits += sol.objective <= 1.5 * ex.objective + 1e-12
        assert hits >= 8


class TestMultipleResponse:
    def test_single_column_reduces_to_vector_solver(self):
        p = make_problem(60, 8, 7, lam=0.3)
        B = np.asarray(p.rhs).reshape(-1, 1)
        pm = ridge.RidgeProblem(p.A, B, p.lam)
        v = ridge.solve_sketched_rows(p, sk.countsketch(30, seed=2))
        m = ridge.solve_sketched_rows(pm, sk.countsketch(30, seed=2))
        np.testing.assert_allclose(m.x.reshape(-1), v.x, atol=1e-12)

    def test_identity_matches_exact_normal_equations(self):
        rng = la.make_rng(8)
        A = rng.standard_normal((40, 6))
        B = rng.standard_normal((40, 5))
        lam = 0.6
        pm = ridge.RidgeProblem(A, B, lam)
        sol = ridge.solve_sketched_rows(pm, sk.identity())
        X = np.linalg.solve(A.T @ A + lam * np.eye(6), A.T @ B)
        np.testing.assert_allclose(sol.x, X, atol=1e-8)

    def test_policy_sizes_within_eps(self):
        policy = sk.SizePolicy()
        hits = 0
        for seed in range(10):
            A, _ = problems.generate_problem(800, 20, seed)
            rng = la.make_rng(seed, 99)
            B = np.asarray(A @ rng.standard_normal((20, 15)))
            B += 0.01 * rng.standard_normal(B.shape)
            lam = problems.lambda_for_sd(A, 3.0, 8.0)
            pm = ridge.RidgeProblem(A, B, lam)
            ex = ridge.solve_exact(pm)
            s = np.linalg.svd(np.asarray(A), compute_uv=False)
            sd = float(np.sum(s**2 / (s**2 + lam)))
            m = min(800, sk.recommend_sizes(policy, sd, 0.5, "ridge_rows"))
            sol = ridge.solve_sketched_rows(pm, sk.countsketch(m, seed=seed))
            hits += sol.objective <= 1.5 * ex.objective + 1e-12
        assert hits >= 8
