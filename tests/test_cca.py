import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from regsketch import cca, la, problems, statdim
from regsketch import sketch as sk


def _views(seed, n=200, d1=6, d2=5):
    rng = la.make_rng(seed, 41)
    shared = rng.standard_normal((n, 3))
    A = shared @ rng.standard_normal((3, d1)) + 0.3 * rng.standard_normal((n, d1))
    B = shared @ rng.standard_normal((3, d2)) + 0.3 * rng.standard_normal((n, d2))
    return A, B


class TestExact:
    def test_identical_single_column_unregularized(self):
        a = np.array([[1.0], [0.0], [0.0]])
        res = cca.solve_exact_cca(a, a, 0.0, 0.0)
        assert abs(res.sigmas[0] - 1.0) <= 1e-12

    def test_identical_column_unit_regularization(self):
        # ||a||^2 = 1, lambda = 1 on both sides: correlation 1/sqrt(2)^2 = 0.5
        a = np.array([[1.0], [0.0], [0.0]])
        res = cca.solve_exact_cca(a, a, 1.0, 1.0)
        assert abs(res.sigmas[0] - 0.5) <= 1e-12

    def test_orthogonal_columns_zero_correlation(self):
        a = np.array([[1.0], [0.0]])
        b = np.array([[0.0], [1.0]])
        res = cca.solve_exact_cca(a, b, 0.0, 0.0)
        assert abs(res.sigmas[0]) <= 1e-12

    def test_constraints_hold(self):
        for seed in range(5):
            A, B = _views(seed)
            res = cca.solve_exact_cca(A, B, 0.5, 0.7)
            GA = A.T @ A + 0.5 * np.eye(A.shape[1])
            GB = B.T @ B + 0.7 * np.eye(B.shape[1])
            assert np.max(np.abs(res.U.T @ GA @ res.U - np.eye(res.q))) <= 1e-8
            assert np.max(np.abs(res.V.T @ GB @ res.V - np.eye(res.q))) <= 1e-8

    def test_correlations_bounded_by_one(self):
        for seed in range(10):
            A, B = _views(seed + 100)
            res = cca.solve_exact_cca(A, B, 0.1, 0.1)
            assert np.all(res.sigmas <= 1.0 + 1e-10)
            assert np.all(np.diff(res.sigmas) <= 1e-12)

    def test_rank_deficient_unregularized_rejected(self):
        A = np.zeros((4, 2))
        A[:, 0] = [1.0, 0, 0, 0]
        A[:, 1] = A[:, 0]
        with pytest.raises(ValueError):
            cca.solve_exact_cca(A, np.eye(4)[:, :2], 0.0, 0.0)

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cca.solve_exact_cca(np.eye(3), np.eye(4), 1.0, 1.0)

    def test_prefix_trace_optimality(self):
        # among Gram-constrained pairs, the exact weights maximize each
        # prefix trace of U' A' B V; random feasible competitors never beat it
        for seed in range(20):
            A, B = _views(seed + 300, n=80, d1=4, d2=4)
            res = cca.solve_exact_cca(A, B, 0.3, 0.3)
            cross_exact = res.U.T @ (A.T @ (B @ res.V))
            rng = la.make_rng(seed, 43)
            GA = A.T @ A + 0.3 * np.eye(4)
            GB = B.T @ B + 0.3 * np.eye(4)
            La = np.linalg.cholesky(GA)
            Lb = np.linalg.cholesky(GB)
            for _ in range(5):
                Qa = np.linalg.qr(rng.standard_normal((4, 4)))[0]
                Qb = np.linalg.qr(rng.standard_normal((4, 4)))[0]
                U = np.linalg.solve(La.T, Qa)
                V = np.linalg.solve(Lb.T, Qb)
                cross = U.T @ (A.T @ (B @ V))
                for L in range(1, res.q + 1):
                    assert np.trace(cross[:L, :L]) <= np.trace(cross_exact[:L, :L]) + 1e-9


def _assert_same_pairs(got, want, tol):
    """Equal correlations, and weights equal up to the sign of each pair."""
    np.testing.assert_allclose(got.sigmas, want.sigmas, rtol=0, atol=tol)
    signs = np.sign(np.sum(got.U * want.U, axis=0))
    for W, V in ((got.U, want.U), (got.V, want.V)):
        np.testing.assert_allclose(W * signs, V, rtol=0, atol=tol * np.abs(V).max())


def _forbid(monkeypatch, module, name):
    def forbidden(*args, **kwargs):
        raise AssertionError(f"{name} ran")

    monkeypatch.setattr(module, name, forbidden)


class TestGramRoute:
    def test_matches_lambda_qr_route(self, monkeypatch):
        for seed in range(5):
            A, B = _views(seed + 20)
            A[np.abs(A) < 0.5] = 0.0
            with monkeypatch.context() as mp:
                _forbid(mp, cca, "lambda_qr")
                dense = cca.solve_exact_cca(A, B, 0.5, 0.7)
                csr = cca.solve_exact_cca(scipy.sparse.csr_matrix(A), scipy.sparse.csr_matrix(B), 0.5, 0.7)
            with monkeypatch.context() as mp:
                mp.setattr(cca, "GRAM_COND_MAX", 0.0)
                _forbid(mp, scipy.linalg, "cholesky")
                qr = cca.solve_exact_cca(A, B, 0.5, 0.7)
            _assert_same_pairs(dense, qr, 1e-10)
            _assert_same_pairs(csr, qr, 1e-10)

    @pytest.mark.parametrize("lams", [(1e-9, 0.5), (0.5, 1e-9), (0.0, 0.5)])
    def test_outside_the_bound_takes_lambda_qr(self, lams, monkeypatch):
        A, B = _views(21)
        bounds = [(np.trace(M.T @ M) + lam) / lam if lam > 0 else np.inf for M, lam in zip((A, B), lams)]
        assert max(bounds) > cca.GRAM_COND_MAX
        _forbid(monkeypatch, scipy.linalg, "cholesky")
        res = cca.solve_exact_cca(A, B, *lams)
        GA = A.T @ A + lams[0] * np.eye(A.shape[1])
        GB = B.T @ B + lams[1] * np.eye(B.shape[1])
        assert np.max(np.abs(res.U.T @ GA @ res.U - np.eye(res.q))) <= 1e-8
        assert np.max(np.abs(res.V.T @ GB @ res.V - np.eye(res.q))) <= 1e-8


class TestSketched:
    def test_identity_sketch_matches_exact(self):
        A, B = _views(7)
        exact = cca.solve_exact_cca(A, B, 0.4, 0.4)
        sketched = cca.solve_sketched_cca(A, B, 0.4, 0.4, sk.identity())
        np.testing.assert_allclose(sketched.sigmas, exact.sigmas, atol=1e-10)

    def test_policy_sized_sketch_validates(self):
        eta = 0.25
        policy = sk.SizePolicy()
        hits = 0
        for seed in range(10):
            A, B = _views(seed, n=1500, d1=8, d2=6)
            lam = 0.5
            exact = cca.solve_exact_cca(A, B, lam, lam, )
            sd_max = max(statdim.sd_exact(A, lam), statdim.sd_exact(B, lam))
            m = cca.cca_sketch_size(policy, sd_max, eta)
            spec = sk.countsketch(min(m, 1500), seed=seed)
            cand = cca.solve_sketched_cca(A, B, lam, lam, spec)
            val = cca.validate_cca(A, B, lam, lam, cand, exact, eta)
            hits += val.passed
        assert hits >= 8

    def test_csr_views_share_one_draw(self):
        A, B = _views(3, n=600)
        A[np.abs(A) < 0.8] = 0.0
        B[np.abs(B) < 0.8] = 0.0
        As, Bs = scipy.sparse.csr_matrix(A), scipy.sparse.csr_matrix(B)
        spec = sk.countsketch(120, seed=3)
        res = cca.solve_sketched_cca(As, Bs, 0.5, 0.5, spec)
        ref = cca.solve_exact_cca(sk.apply(spec, As), sk.apply(spec, Bs), 0.5, 0.5)
        dense = cca.solve_sketched_cca(A, B, 0.5, 0.5, spec)
        for name in ("sigmas", "U", "V"):
            assert np.array_equal(getattr(res, name), getattr(ref, name))
            np.testing.assert_allclose(getattr(res, name), getattr(dense, name), rtol=0, atol=1e-12)

    def test_row_count_mismatch_rejected(self):
        A, B = _views(4)
        with pytest.raises(ValueError):
            cca.solve_sketched_cca(A, B[:-1], 0.5, 0.5, sk.countsketch(50, seed=1))

    def test_shared_sketch_required(self):
        # sketching the two views with independent draws breaks the
        # correlation estimates at small eta
        eta = 0.02
        failures = 0
        for seed in range(10):
            A, B = _views(seed, n=1000, d1=8, d2=6)
            exact = cca.solve_exact_cca(A, B, 0.5, 0.5)
            m = 400
            SA = sk.apply(sk.countsketch(m, seed=seed), A)
            SB = sk.apply(sk.countsketch(m, seed=seed + 5000), B)
            cand = cca.solve_exact_cca(SA, SB, 0.5, 0.5)
            val = cca.validate_cca(A, B, 0.5, 0.5, cand, exact, eta)
            failures += not val.passed
        assert failures >= 8


class TestValidator:
    def test_planted_perturbation_fails(self):
        A, B = _views(9)
        eta = 0.1
        exact = cca.solve_exact_cca(A, B, 0.4, 0.4)
        tampered = cca.CcaResult(
            sigmas=exact.sigmas - 2 * eta,
            U=exact.U,
            V=exact.V,
            lambda1=0.4,
            lambda2=0.4,
            q=exact.q,
        )
        val = cca.validate_cca(A, B, 0.4, 0.4, tampered, exact, eta)
        assert not val.passed
        assert val.max_sigma_dev >= 2 * eta - 1e-12

    def test_exact_candidate_passes_tightly(self):
        A, B = _views(10)
        exact = cca.solve_exact_cca(A, B, 0.4, 0.4)
        val = cca.validate_cca(A, B, 0.4, 0.4, exact, exact, 1e-6)
        assert val.passed
        assert val.max_constraint_dev <= 1e-8
        assert all(abs(g) <= 1e-10 for g in val.trace_gaps)

    def test_q_mismatch_rejected(self):
        A, B = _views(11)
        exact = cca.solve_exact_cca(A, B, 0.4, 0.4)
        other = cca.CcaResult(
            sigmas=exact.sigmas[:-1],
            U=exact.U[:, :-1],
            V=exact.V[:, :-1],
            lambda1=0.4,
            lambda2=0.4,
            q=exact.q - 1,
        )
        with pytest.raises(ValueError):
            cca.validate_cca(A, B, 0.4, 0.4, other, exact, 0.1)


class TestSparseViews:
    @staticmethod
    def _csr(n, d, seed):
        rng = la.make_rng(seed, 47)
        return scipy.sparse.random(n, d, density=0.02, format="csr", random_state=rng, data_rvs=rng.standard_normal)

    def test_validator_csr_matches_dense(self):
        A, B = _views(13, n=2000)
        A[np.abs(A) < 0.8] = 0.0
        B[np.abs(B) < 0.8] = 0.0
        exact = cca.solve_exact_cca(A, B, 0.4, 0.4)
        cand = cca.solve_sketched_cca(A, B, 0.4, 0.4, sk.countsketch(300, seed=1))
        dense = cca.validate_cca(A, B, 0.4, 0.4, cand, exact, 0.25)
        csr = cca.validate_cca(scipy.sparse.csr_matrix(A), scipy.sparse.csr_matrix(B), 0.4, 0.4, cand, exact, 0.25)
        for name in ("max_sigma_dev", "max_constraint_dev", "max_alignment_dev", "trace_gaps"):
            np.testing.assert_allclose(getattr(csr, name), getattr(dense, name), rtol=0, atol=1e-10)
        assert csr.passed == dense.passed

    def test_exact_and_validator_never_densify_csr(self):
        A, B = self._csr(100_000, 50, 1), self._csr(100_000, 30, 2)
        dense_bytes = A.shape[0] * A.shape[1] * 8
        warm = cca.solve_exact_cca(A[:50], B[:50], 1.0, 1.0)  # imports and caches outside the trace
        cca.validate_cca(A[:50], B[:50], 1.0, 1.0, warm, warm, 0.1)
        tracemalloc.start()
        try:
            exact = cca.solve_exact_cca(A, B, 1.0, 1.0)
            val = cca.validate_cca(A, B, 1.0, 1.0, exact, exact, 1e-6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert val.passed
        assert peak < dense_bytes / 4
