import tracemalloc

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

from regsketch import genreg, la, lowrank, problems, statdim
from regsketch import sketch as sk

from oracles import als_reference


class TestExactShrink:
    def test_diag_hand_case(self):
        # diag(3,2,1), k=2, lam=1.5: YX = diag(1.5, 0.5, 0);
        # fit (3-1.5)^2+(2-0.5)^2+1^2 = 5.5, penalty 1.5*2*2 = 6, total 11.5
        A = np.diag([3.0, 2.0, 1.0])
        f = lowrank.solve_exact_shrink(A, 2, 1.5)
        np.testing.assert_allclose(f.Y @ f.X, np.diag([1.5, 0.5, 0.0]), atol=1e-10)
        assert abs(f.objective - 11.5) <= 1e-10

    def test_lambda_zero_full_rank(self):
        rng = la.make_rng(0)
        A = rng.standard_normal((6, 4))
        f = lowrank.solve_exact_shrink(A, 4, 0.0)
        assert np.linalg.norm(f.Y @ f.X - A) <= 1e-10 * np.linalg.norm(A)
        assert f.objective <= 1e-10

    def test_lambda_above_top_singular_value(self):
        A = np.diag([3.0, 2.0, 1.0])
        f = lowrank.solve_exact_shrink(A, 2, 5.0)
        assert np.all(f.Y == 0) and np.all(f.X == 0)
        assert abs(f.objective - 14.0) <= 1e-12  # ||A||_F^2

    def test_matches_alternating_minimization(self):
        for seed in range(20):
            rng = la.make_rng(seed, 17)
            A = rng.standard_normal((8, 6))
            closed = lowrank.solve_exact_shrink(A, 3, 0.8)
            _, _, als_obj = als_reference(A, 3, 0.8, seed=seed)
            assert closed.objective <= als_obj + 1e-6 * max(als_obj, 1.0)
            assert abs(closed.objective - als_obj) <= 1e-6 * max(als_obj, 1.0)

    def test_local_minimality(self):
        rng = la.make_rng(1, 23)
        A = rng.standard_normal((8, 6))
        f = lowrank.solve_exact_shrink(A, 3, 0.8)
        for t in range(200):
            dY = 1e-3 * rng.standard_normal(f.Y.shape)
            dX = 1e-3 * rng.standard_normal(f.X.shape)
            perturbed = lowrank.objective_value(A, f.Y + dY, f.X + dX, 0.8)
            assert f.objective <= perturbed + 1e-12


class TestObjectiveValue:
    @staticmethod
    def full_residual(A, Y, X, lam):
        R = Y @ X - la.as_dense(A)
        return float(np.sum(R * R) + lam * (np.sum(Y * Y) + np.sum(X * X)))

    @pytest.mark.parametrize("sparse", [False, True])
    def test_blocked_sum_matches_full_residual(self, sparse):
        # 1200 x 300 spans three row blocks
        rng = la.make_rng(13)
        A = rng.standard_normal((1200, 300)) * (rng.random((1200, 300)) < 0.3)
        A = scipy.sparse.csr_matrix(A) if sparse else A
        assert len(la.row_blocks(*A.shape)) > 1
        Y, X = rng.standard_normal((1200, 4)), rng.standard_normal((4, 300))
        for lam in (0.0, 0.3):
            want = self.full_residual(A, Y, X, lam)
            assert abs(lowrank.objective_value(A, Y, X, lam) - want) <= 1e-12 * want

    def test_csr_blocks_give_the_dense_bits(self, monkeypatch):
        # CSR row blocks are sliced from A's own arrays (la.row_block); each
        # densifies to the dense input's block, so the sum is bit for bit the
        # dense input's, with empty rows at both ends and across block edges
        monkeypatch.setattr(la, "BLOCK_ENTRIES", 60)
        rng = la.make_rng(15)
        A = rng.standard_normal((100, 12)) * (rng.random((100, 12)) < 0.3)
        A[:7] = A[33:52] = A[95:] = 0.0
        Y, X = rng.standard_normal((100, 3)), rng.standard_normal((3, 12))
        assert len(la.row_blocks(*A.shape)) > 10
        for lam in (0.0, 0.3):
            want = lowrank.objective_value(A, Y, X, lam)
            assert lowrank.objective_value(scipy.sparse.csr_array(A), Y, X, lam) == want

    def test_blocks_allocate_only_their_residual(self):
        # every block's residual is formed in place in one buffer: the peak is
        # one block of la.BLOCK_ENTRIES entries, where Y X - A and R * R,
        # allocated anew per block, took three
        rng = la.make_rng(14)
        A = rng.standard_normal((2000, 300))
        Y, X = rng.standard_normal((2000, 4)), rng.standard_normal((4, 300))
        tracemalloc.start()
        try:
            lowrank.objective_value(A, Y, X, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * la.BLOCK_ENTRIES

    @pytest.mark.parametrize("sparse", [False, True])
    def test_exactly_rank_k_input(self, sparse):
        # A has rank 4 and unit singular values, so the shrinkage factors at
        # weight w leave a residual of exactly 4 w^2, a millionth of ||A||^2:
        # a factored ||A||^2 - 2<Y, AX'> + ... form would cancel it away
        A, _ = problems.generate_problem(1000, 300, 3, kind="flat", rank=4, noise=0)
        w = 1e-3
        f = lowrank.solve_exact_shrink(A, 4, w)
        A = scipy.sparse.csr_matrix(A) if sparse else A
        for lam in (0.0, w):
            want = self.full_residual(A, f.Y, f.X, lam)
            assert abs(lowrank.objective_value(A, f.Y, f.X, lam) - want) <= 1e-12 * want
        assert abs(lowrank.objective_value(A, f.Y, f.X, 0.0) - 4 * w**2) <= 1e-9 * 4 * w**2


class TestShrinkSd:
    def test_hand_value(self):
        # (1 - 1.5/3) + (1 - 1.5/2) = 0.75
        assert abs(lowrank.shrink_sd(np.array([3.0, 2.0, 1.0]), 1.5, 2) - 0.75) <= 1e-12

    def test_factor_sd_can_exceed_the_sizing_reading(self):
        # core_sizes reads min(sd_lam(A), k); the optimal factor's sd_lam is
        # shrink_sd, whose term 1 - lam/sigma exceeds A's term
        # sigma^2 / (sigma^2 + lam) wherever sigma (1 - sigma) > lam
        A, _ = problems.generate_problem(400, 100, 1, kind="geometric")
        A = 0.5 * A  # sigma_i about 0.5^(i + 1)
        sigma = statdim.singular_values(A)
        k, lam = 8, 1e-3
        kept = sigma[:k][sigma[:k] > lam]
        assert kept.size == k and np.all(kept * (1.0 - kept) > lam)
        factor = lowrank.shrink_sd(sigma, lam, k)
        assert abs(factor - statdim.sd_exact(lowrank.solve_exact_shrink(A, k, lam).Y, lam)) <= 1e-9
        assert factor > min(statdim.sd_exact(sigma, lam), k) + 1.0

    def test_factor_sd_symmetry(self):
        rng = la.make_rng(2)
        A = rng.standard_normal((10, 7))
        lam = 0.5
        f = lowrank.solve_exact_shrink(A, 4, lam)
        sd_y = statdim.sd_exact(f.Y, lam)
        sd_x = statdim.sd_exact(f.X, lam)
        assert abs(sd_y - sd_x) <= 1e-12


def _planted(n, d, sigma, seed):
    """n x d with singular values sigma and Haar singular vectors."""
    rng = la.make_rng(seed, 5)
    U, _ = np.linalg.qr(rng.standard_normal((n, len(sigma))))
    V, _ = np.linalg.qr(rng.standard_normal((d, len(sigma))))
    return (U * sigma) @ V.T


# 400 x 300 inputs for k = 8, below the truncated-SVD fraction (8 <= 30)
TRUNCATED_CASES = {
    "geometric": lambda: problems.generate_problem(400, 300, 1, kind="geometric")[0],
    "flat": lambda: problems.generate_problem(400, 300, 1, kind="flat")[0],
    # sigma_5 .. sigma_10 tie, so sigma_k = sigma_8 sits inside the cluster
    "clustered_at_k": lambda: _planted(
        400, 300, np.r_[np.linspace(3.0, 1.2, 4), [1.0] * 6, 0.5 ** np.arange(1, 291)], 2
    ),
    "rank_5": lambda: problems.generate_problem(400, 300, 1, kind="flat", rank=5, noise=0)[0],
}


def _exact_by_full_svd(monkeypatch, A, k, lam):
    """solve_exact_shrink with the truncated path switched off."""
    with monkeypatch.context() as m:
        m.setattr(lowrank, "TRUNCATED_SVD_MAX_K_FRACTION", 0.0)
        return lowrank.solve_exact_shrink(A, k, lam)


class TestTruncatedSvd:
    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("case", sorted(TRUNCATED_CASES))
    def test_matches_full_svd(self, case, sparse, monkeypatch):
        A = TRUNCATED_CASES[case]()
        M = scipy.sparse.csr_matrix(A) if sparse else A
        k = 8
        assert k <= lowrank.TRUNCATED_SVD_MAX_K_FRACTION * min(A.shape)
        sigma = np.linalg.svd(A, compute_uv=False)[:k]
        _, got, _ = lowrank._truncated_svd(M, k)
        assert np.all(np.abs(got - sigma) <= 1e-12 * sigma[0])
        fro2 = float(np.sum(A * A))
        for lam in (0.0, 0.5):
            want = _exact_by_full_svd(monkeypatch, M, k, lam)
            f = lowrank.solve_exact_shrink(M, k, lam)
            assert abs(f.objective - want.objective) <= 1e-12 * max(want.objective, fro2 * 1e-12)
            assert abs(f.sd_factor - want.sd_factor) <= 1e-12 * max(want.sd_factor, 1.0)

    def test_fraction_picks_the_path(self, monkeypatch):
        A, _ = problems.generate_problem(400, 300, 3, kind="power")
        at_bound = int(lowrank.TRUNCATED_SVD_MAX_K_FRACTION * 300)

        def refuse(*args, **kwargs):
            raise AssertionError("wrong SVD path")

        with monkeypatch.context() as m:
            m.setattr(lowrank, "svds", refuse)
            above = lowrank.solve_exact_shrink(A, at_bound + 1, 0.1)
        with monkeypatch.context() as m:
            m.setattr(np.linalg, "svd", refuse)
            below = lowrank.solve_exact_shrink(A, at_bound, 0.1)
        assert above.Y.shape == (400, at_bound + 1) and below.Y.shape == (400, at_bound)

    @pytest.mark.parametrize("error", ["no_convergence", "arpack_error"])
    def test_arpack_failure_falls_back_to_full_svd(self, error, monkeypatch):
        A, _ = problems.generate_problem(400, 300, 4, kind="geometric")
        want = _exact_by_full_svd(monkeypatch, A, 8, 0.5)

        def fail(*args, **kwargs):
            if error == "no_convergence":
                raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((300, 0)))
            raise scipy.sparse.linalg.ArpackError(-9999)

        monkeypatch.setattr(lowrank, "svds", fail)
        got = lowrank.solve_exact_shrink(A, 8, 0.5)
        assert np.array_equal(got.Y, want.Y) and np.array_equal(got.X, want.X)
        assert got.objective == want.objective

    def test_zero_input_gives_zero_factors(self):
        # ARPACK cannot start on a zero operator; either path gives zero factors
        f = lowrank.solve_exact_shrink(np.zeros((400, 300)), 8, 0.5)
        assert np.all(f.Y == 0) and np.all(f.X == 0) and f.objective == 0.0

    @pytest.mark.parametrize("sparse", [False, True])
    def test_deterministic(self, sparse):
        A, _ = problems.generate_problem(400, 300, 5, kind="geometric")
        A = scipy.sparse.csr_matrix(A) if sparse else A
        first, second = (lowrank.solve_exact_shrink(A, 8, 0.5) for _ in range(2))
        assert np.array_equal(first.Y, second.Y) and np.array_equal(first.X, second.X)


# sizes all four sketches past n and d, so each one is the identity
COLLAPSE = sk.SizePolicy(k_sparse=1e6, k_affine=1e6)


def _identity_pieces(A):
    """The core pieces with every sketch the identity."""
    left, right = sk.identity(), sk.identity(side="right")
    return lowrank._assemble_core(A, left, right, left, right, {})


class TestBuildCore:
    def test_identity_pieces_are_input(self):
        rng = la.make_rng(3)
        A = rng.standard_normal((12, 9))
        pieces = _identity_pieces(A)
        for name in ("SA", "S2AR", "SAR2", "S2AR2"):
            np.testing.assert_array_equal(getattr(pieces, name), A)

    def test_dimensions_match_policy(self):
        A, _ = problems.generate_problem(300, 200, 4)
        policy = sk.SizePolicy()
        sizes = lowrank.core_sizes(A, 5, 0.5, 0.0, policy, seed=4)
        pieces = lowrank.build_core_sized(A, sizes, seed=4)
        assert pieces.SA.shape == (min(sizes["m"], 300), 200)
        assert pieces.S2AR.shape == (min(sizes["p"], 300), min(sizes["m_prime"], 200))
        assert pieces.SAR2.shape == (min(sizes["m"], 300), min(sizes["p_prime"], 200))

    def test_countsketch_touches_each_entry_once_per_stage(self):
        # every stage is a real CountSketch (one entry per operator column, so
        # one multiply-add per input entry) and each piece is its operator
        # product, associated in the order the stages run: A meets only the
        # left sketches, and the right ones meet SA and S2 A
        rng = la.make_rng(5)
        dense = rng.standard_normal((150, 80)) * (rng.random((150, 80)) < 0.1)
        A = scipy.sparse.csr_matrix(dense)
        sizes = {"m": 40, "m_prime": 30, "p": 20, "p_prime": 15, "sd_hat": 5.0}
        pieces = lowrank.build_core_sized(A, sizes, seed=5)
        assert all(spec.variant == "countsketch" for spec in pieces.specs.values())
        ops = {}
        for name, spec in pieces.specs.items():
            ops[name] = sk._operator(spec, A.shape[0] if spec.side == "left" else A.shape[1])
            assert ops[name].nnz == ops[name].shape[1]
        S, R, S2, R2 = (ops[k] for k in ("S", "R", "S2", "R2"))
        expected = {
            "SA": S @ A,
            "S2AR": (S2 @ A) @ R.T,
            "SAR2": (S @ A) @ R2.T,
            "S2AR2": (S2 @ A) @ R2.T,
        }
        for name, product in expected.items():
            assert np.array_equal(getattr(pieces, name), product.toarray()), name


class TestSolveCore:
    def test_identity_bases_reduce_to_shrink(self):
        G = np.diag([3.0, 2.0, 1.0])
        Z_R, Z_S, truncated = lowrank.solve_core(np.eye(3), np.eye(3), G, 2, 1.5)
        np.testing.assert_allclose(Z_R @ Z_S, np.diag([1.5, 0.5, 0.0]), atol=1e-10)
        assert not truncated

    def test_planted_rank_two_lambda_zero(self):
        rng = la.make_rng(6)
        C = rng.standard_normal((8, 4))
        D = rng.standard_normal((4, 8))
        M = rng.standard_normal((4, 2)) @ rng.standard_normal((2, 4))
        G = C @ M @ D
        Z_R, Z_S, _ = lowrank.solve_core(C, D, G, 2, 0.0)
        # G lies in colspace(C) x rowspan(D) and has rank 2, so the fit is exact
        assert np.linalg.norm(C @ Z_R @ Z_S @ D - G) <= 1e-8 * np.linalg.norm(G)

    def test_huge_lambda_zeroes_factors(self):
        rng = la.make_rng(7)
        C = rng.standard_normal((6, 3))
        D = rng.standard_normal((3, 6))
        G = C @ rng.standard_normal((3, 3)) @ D
        Z_R, Z_S, _ = lowrank.solve_core(C, D, G, 2, 1e9)
        assert np.all(Z_R == 0) and np.all(Z_S == 0)

    def test_restricted_optimum(self):
        # objective of the core solution equals the best achievable objective
        # over factors constrained to colspace(C) / rowspan(D)
        rng = la.make_rng(8)
        C = rng.standard_normal((10, 4))
        D = rng.standard_normal((5, 12))
        G = rng.standard_normal((10, 12))
        lam = 0.2
        Z_R, Z_S, _ = lowrank.solve_core(C, D, G, 3, lam)
        got = (
            np.sum((C @ Z_R @ Z_S @ D - G) ** 2)
            + lam * np.sum((C @ Z_R) ** 2)
            + lam * np.sum((Z_S @ D) ** 2)
        )
        U_C = np.linalg.qr(C)[0]
        U_D = np.linalg.qr(D.T)[0]
        core = lowrank.solve_exact_shrink(U_C.T @ G @ U_D, 3, lam)
        offspace = np.sum(G * G) - np.sum((U_C.T @ G @ U_D) ** 2)
        assert abs(got - (core.objective + offspace)) <= 1e-8 * max(got, 1.0)

    def test_matrix_pythagoras(self):
        rng = la.make_rng(9)
        C = rng.standard_normal((10, 4))
        D = rng.standard_normal((5, 12))
        G = rng.standard_normal((10, 12))
        Z_R, Z_S, _ = lowrank.solve_core(C, D, G, 3, 0.2)
        P_C = C @ np.linalg.pinv(C)
        P_D = np.linalg.pinv(D) @ D
        R = C @ Z_R @ Z_S @ D - G
        total = np.sum(R * R)
        split = (
            np.sum((P_C @ R @ P_D) ** 2)
            + np.sum(((np.eye(10) - P_C) @ G) ** 2)
            + np.sum((P_C @ G @ (np.eye(12) - P_D)) ** 2)
        )
        assert abs(total - split) <= 1e-8 * max(total, 1.0)


class TestSolveSketched:
    def test_identity_collapse(self):
        rng = la.make_rng(10)
        A = rng.standard_normal((20, 14))
        exact = lowrank.solve_exact_shrink(A, 4, 0.7)
        sol = lowrank.solve_sketched(A, 4, 0.7, 0.5, policy=COLLAPSE)
        assert [sol.sizes[key] for key in ("m", "m_prime", "p", "p_prime")] == [20, 14, 20, 14]
        assert abs(sol.objective - exact.objective) <= 1e-6 * exact.objective

    def test_lambda_zero_identity_exact_fit(self):
        rng = la.make_rng(11)
        A = rng.standard_normal((10, 6))
        sol = lowrank.solve_sketched(A, 6, 0.0, 0.5, policy=COLLAPSE)
        assert sol.objective <= 1e-8 * np.sum(A * A)

    def test_policy_sizes_within_eps(self):
        hits = 0
        for seed in range(10):
            A, _ = problems.generate_problem(400, 250, seed)
            s = np.linalg.svd(np.asarray(A), compute_uv=False)
            lam = float(np.median(s))
            exact = lowrank.solve_exact_shrink(A, 8, lam)
            sol = lowrank.solve_sketched(A, 8, lam, 0.5, seed=seed)
            hits += sol.objective <= 1.5 * exact.objective + 1e-12
        assert hits >= 8

    def test_transpose_dispatch(self):
        rng = la.make_rng(12)
        A = rng.standard_normal((10, 30))
        sol = lowrank.solve_sketched(A, 3, 0.4, 0.5, seed=1)
        exact = lowrank.solve_exact_shrink(A, 3, 0.4)
        assert sol.Y.shape == (10, 3) and sol.X.shape == (3, 30)
        assert sol.objective >= exact.objective - 1e-9

    def test_sizes_read_off_the_left_sketch(self, monkeypatch):
        def no_estimate(*args, **kwargs):
            raise AssertionError("lowrank sizing called statdim.sd_estimate")

        monkeypatch.setattr(statdim, "sd_estimate", no_estimate)
        A, _ = problems.generate_problem(2000, 400, 14, kind="geometric")
        lam = problems.lambda_for_sd(A, 3.0, 8.0)
        policy = sk.SizePolicy()
        sizes = lowrank.core_sizes(A, 10, 0.5, lam, policy, seed=14)
        pieces = lowrank.build_core_sized(A, sizes, seed=14)
        # A is sketched for S once: the sizing draw is the solve's SA
        assert pieces.SA is sizes["SA"]
        assert np.array_equal(pieces.SA, sk.apply(pieces.specs["S"], A))
        assert pieces.specs["S"].variant == "countsketch"
        assert sizes["m"] == pieces.SA.shape[0] < 2000
        assert sizes["m"] >= sk.recommend_sizes(policy, sizes["sd_hat"], 0.5, "lowrank_S")
        assert 0.5 <= sizes["sd_hat"] / statdim.sd_exact(A, lam) <= 2.0
        assert pieces.specs["S"] == sk.countsketch(sizes["m"], pieces.specs["S"].seed, fold=sizes["m_drawn"])
        assert sizes["m_drawn"] > sizes["m"] and sizes["levels_read"] > 1 and "SA" not in pieces.sizes
        sol = lowrank.solve_sketched(A, 10, lam, 0.5, policy=policy, seed=14)
        assert sol.sizes == pieces.sizes
        assert set(sol.sizes) == {"m", "m_prime", "p", "p_prime", "sd_hat", "m_drawn", "levels_read"}

    def test_sizing_sketches_a_once(self, monkeypatch):
        A, _ = problems.generate_problem(2000, 400, 14, kind="geometric")
        lam = problems.lambda_for_sd(A, 3.0, 8.0)
        on_a = []
        apply = sk.apply
        monkeypatch.setattr(sk, "apply", lambda spec, M, *more: on_a.append(M is A) or apply(spec, M, *more))
        sizes = lowrank.core_sizes(A, 10, 0.5, lam, sk.SizePolicy(), seed=14)
        assert sum(on_a) == 1 and sizes["levels_read"] > 1

    def test_sizes_survive_transpose_dispatch(self):
        A, _ = problems.generate_problem(300, 800, 15, kind="power")
        lam = problems.lambda_for_sd(A, 3.0, 8.0)
        sol = lowrank.solve_sketched(A, 5, lam, 0.5, seed=15)
        direct = lowrank.solve_sketched(A.T.copy(), 5, lam, 0.5, seed=15)
        assert sol.sizes == direct.sizes and sol.sizes["m"] <= 800

    def test_csr_input_lifts_through_r_without_densifying(self):
        # Y = A (R Z_R): no n x m' A R is formed, so the whole solve on a CSR A
        # peaks below a quarter of A's dense bytes (A R alone is m'/d of them)
        rng = la.make_rng(16)
        n, d, k = 20_000, 200, 5
        A = scipy.sparse.random(
            n, d, density=0.02, format="csr", random_state=rng, data_rvs=rng.standard_normal
        )
        A = A @ scipy.sparse.diags(0.7 ** np.arange(d) + 0.05)
        lam = problems.lambda_for_sd(A, 6.0, 8.0)
        tracemalloc.start()
        try:
            sol = lowrank.solve_sketched(A, k, lam, 0.5, seed=16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * d * 8 / 4
        sizes = lowrank.core_sizes(A, k, 0.5, lam, sk.SizePolicy(), seed=16)
        pieces = lowrank.build_core_sized(A, sizes, seed=16)
        assert pieces.specs["R"].variant == "countsketch"
        assert sizes["m_prime"] / d > 1 / 4
        Z_R, _, _ = lowrank.solve_core(pieces.S2AR, pieces.SAR2, pieces.S2AR2, k, lam)
        AR = sk.apply(pieces.specs["R"], A)
        np.testing.assert_allclose(sol.Y, AR @ Z_R, rtol=0, atol=1e-12 * np.abs(sol.Y).max())

    def test_lambda_zero_sizes_from_k(self):
        A, _ = problems.generate_problem(300, 200, 4)
        sizes = lowrank.core_sizes(A, 5, 0.5, 0.0, sk.SizePolicy(), seed=4)
        assert sizes["sd_hat"] == 5.0 and sizes["m_drawn"] == sizes["levels_read"] == 0 and "SA" not in sizes


def _shared_input():
    """A dense 2000 x 400 geometric input whose sizing draw (384 rows) is
    long enough for S2, at k = 10 and eps = 0.5."""
    A, _ = problems.generate_problem(2000, 400, 14, kind="geometric")
    return A, problems.lambda_for_sd(A, 3.0, 8.0)


def _fallback_input(case):
    """(A, lam, k) whose S2 is drawn apart, a CountSketch: at 400 x 250 and
    k = 8 the sizing draw (192 rows) is shorter than p, and at lam = 0
    nothing is drawn."""
    A, _ = problems.generate_problem(400, 250, 0)
    if case == "lambda zero":
        return A, 0.0, 3
    return A, problems.lambda_for_sd(A, 3.0, 8.0), 8


class TestSharedDraw:
    def test_s2_is_a_level_of_the_sizing_draw(self):
        A, lam = _shared_input()
        policy = sk.SizePolicy()
        sizes = lowrank.core_sizes(A, 10, 0.5, lam, policy, seed=14)
        S2A = sizes["S2A"]
        pieces = lowrank.build_core_sized(A, sizes, seed=14)
        assert "S2A" not in sizes  # taken out, so the core does not keep it
        S, S2, M = pieces.specs["S"], pieces.specs["S2"], sizes["m_drawn"]
        assert S == sk.countsketch(sizes["m"], S.seed, fold=M)
        assert S2 == sk.countsketch(sizes["p"], S.seed, fold=M)
        # the smallest level at or above S's with at least the affine rows
        p_min = int(np.ceil(policy.k_affine * sizes["m_prime"] / 0.5**2))
        assert sizes["m"] < sizes["p"] <= M and p_min <= sizes["p"] and sizes["p"] // 2 < p_min
        assert np.array_equal(S2A, sk.apply(S2, A))
        SAR2 = pieces.S2AR2
        while SAR2.shape[0] > sizes["m"]:
            SAR2 = sk.halve(SAR2)
        assert np.array_equal(pieces.SAR2, SAR2)

    def test_solve_reads_a_with_one_sketch_apply(self, monkeypatch):
        # the other read of A is the one product that lifts Y and gives the
        # fit: the blocked residual never runs
        def no_blocked_sum(*args):
            raise AssertionError("the fit fell back to objective_value")

        A, lam = _shared_input()
        on_a = []
        apply = sk.apply
        monkeypatch.setattr(sk, "apply", lambda spec, M, *more: on_a.append(M is A) or apply(spec, M, *more))
        monkeypatch.setattr(lowrank, "objective_value", no_blocked_sum)
        sol = lowrank.solve_sketched(A, 10, lam, 0.5, seed=14)
        assert sum(on_a) == 1 and sol.sizes["p"] <= sol.sizes["m_drawn"]

    @pytest.mark.parametrize("case", ["short draw", "lambda zero"])
    def test_fallback_draws_s2_apart(self, case):
        A, lam, k = _fallback_input(case)
        policy = sk.SizePolicy()
        sizes = lowrank.core_sizes(A, k, 0.5, lam, policy, seed=3)
        assert "S2A" not in sizes and sizes["p"] > sizes["m_drawn"]
        assert sizes["p"] == int(np.ceil(policy.k_affine * sizes["m_prime"] / 0.5**2))
        pieces = lowrank.build_core_sized(A, sizes, seed=3)
        S2 = sk.countsketch_or_identity(sizes["p"], A.shape[0], la.derive_seeds(3, 31, 4)[2], "left")
        assert pieces.specs["S2"] == S2 and S2.variant == "countsketch"
        assert np.array_equal(pieces.SAR2, sk.apply(pieces.specs["R2"], pieces.SA))

    def test_sizing_keeps_two_levels_through_the_build(self):
        # the draw's levels, M + M/2 + ... < 2M rows, are alive only while
        # sizing reads them; the build keeps S's and S2's levels (at most
        # M/2 + M rows) and adds the p x p' S2 A R2, with p <= M
        A, lam = _shared_input()
        d = A.shape[1]
        sizes = lowrank.core_sizes(A, 10, 0.5, lam, sk.SizePolicy(), seed=14)
        M, p_prime = sizes["m_drawn"], sizes["p_prime"]
        lowrank.solve_sketched(A, 10, lam, 0.5, seed=14)  # warm up outside the trace
        del sizes
        tracemalloc.start()
        try:
            lowrank.solve_sketched(A, 10, lam, 0.5, seed=14)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (2 * M + p_prime) * d * 8


class TestLiftAndFit:
    @pytest.mark.parametrize("sparse", [False, True])
    def test_expanded_fit_within_its_bound(self, sparse, monkeypatch):
        if sparse:
            rng = la.make_rng(17)
            A = scipy.sparse.random(
                3000, 300, density=0.05, format="csr", random_state=rng, data_rvs=rng.standard_normal
            ) @ scipy.sparse.diags(0.8 ** np.arange(300) + 0.02)
            A = scipy.sparse.csr_matrix(A)
        else:
            A, _ = _shared_input()
        lam = problems.lambda_for_sd(A, 3.0, 8.0)
        seen = []
        expanded = lowrank._expanded_fit
        monkeypatch.setattr(lowrank, "_expanded_fit", lambda *args: seen.append(expanded(*args)) or seen[-1])
        sol = lowrank.solve_sketched(A, 5, lam, 0.5, seed=4)
        pair = genreg.ridge_pair(lam)
        got = genreg.solve_general_lowrank(A, 5, pair, lambda s: genreg.diag_solver_shrink(s, lam), 0.5, seed=4)
        assert len(seen) == 2
        penalties = (lam * (np.vdot(sol.Y, sol.Y) + np.vdot(sol.X, sol.X)), pair.evaluate(got.Y, got.X))
        for res, (fit, bound), pen in zip((sol, got), seen, penalties):
            assert bound <= lowrank.FIT_RTOL * res.objective  # the expansion was kept
            assert abs(fit - lowrank.objective_value(A, res.Y, res.X, 0.0)) <= bound
            assert res.objective == float(fit + pen)

    def test_exact_fit_falls_back_to_the_blocked_sum(self, monkeypatch):
        rng = la.make_rng(11)
        A = rng.standard_normal((10, 6))
        calls = []
        blocked = lowrank.objective_value
        monkeypatch.setattr(lowrank, "objective_value", lambda *args: calls.append(args) or blocked(*args))
        sol = lowrank.solve_sketched(A, 6, 0.0, 0.5, policy=COLLAPSE)
        assert len(calls) == 1 and sol.objective == blocked(A, sol.Y, sol.X, 0.0)


def test_invalid_k_rejected():
    with pytest.raises(ValueError):
        lowrank.solve_exact_shrink(np.eye(3), 0, 1.0)
    with pytest.raises(ValueError):
        lowrank.solve_exact_shrink(np.eye(3), 4, 1.0)
