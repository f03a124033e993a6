import dataclasses
import itertools
import math
import tracemalloc
import types
import warnings

import numpy as np
import pytest
import scipy.sparse

from regsketch import genreg, la, lowrank
from regsketch import sketch as sk

from oracles import fista_reference


MEASURES = genreg.builtin_measures()


class TestMeasures:
    def test_nuclear_hand_value(self):
        assert abs(MEASURES["nuclear"].evaluate(np.diag([3.0, 2.0, 1.0])) - 6.0) <= 1e-12

    def test_vnorm1_hand_value(self):
        assert abs(MEASURES["vnorm_1"].evaluate(np.array([[3.0, 4.0], [0.0, 0.0]])) - 5.0) <= 1e-12

    def test_vnorm_not_left_invariant(self):
        # one seeded rotation changing the value certifies the absent flag
        rng = la.make_rng(0, 71)
        A = rng.standard_normal((4, 3))
        Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        v = MEASURES["vnorm_1"]
        assert abs(v.evaluate(Q @ A) - v.evaluate(A)) > 1e-4
        assert not v.flags.left_orthogonal_invariant

    def test_false_flag_rejected(self):
        bogus = genreg.MatrixMeasure(
            "bogus_vnorm",
            MEASURES["vnorm_1"].evaluate,
            genreg.MeasureFlags(True, True, True, True),
        )
        with pytest.raises(genreg.MeasureFlagError):
            genreg.spot_check_measure(bogus)

    def test_padding_invariance(self):
        rng = la.make_rng(1, 71)
        A = rng.standard_normal((5, 4))
        for m in MEASURES.values():
            if not m.flags.padding_invariant:
                continue
            base = m.evaluate(A)
            assert abs(m.evaluate(np.vstack([A, np.zeros((3, 4))])) - base) <= 1e-10
            assert abs(m.evaluate(np.hstack([A, np.zeros((5, 2))])) - base) <= 1e-10

    def test_contraction_never_increases(self):
        rng = la.make_rng(2, 71)
        A = rng.standard_normal((5, 4))
        for trial in range(20):
            # convex combination of orthogonal matrices has spectral norm <= 1
            w = rng.random(3)
            w /= w.sum()
            P = sum(
                wi * np.linalg.qr(rng.standard_normal((5, 5)))[0] for wi in w
            )
            for m in MEASURES.values():
                if m.flags.left_orthogonal_invariant and m.flags.subadditive:
                    assert m.evaluate(P @ A) <= m.evaluate(A) + 1e-9

    def test_scaled_measure(self):
        m = genreg.scaled(MEASURES["nuclear"], 3.0)
        assert abs(m.evaluate(np.diag([2.0, 1.0])) - 9.0) <= 1e-12


class TestPermutationProperty:
    def test_exhaustive_search_finds_dominating_permutation(self):
        # for diagonal E and D and orthogonal R, some reordering of E's
        # diagonal makes the unrotated product no larger than the rotated one,
        # for the Frobenius and nuclear norms
        fro = MEASURES["schatten_2"].evaluate
        nuc = MEASURES["nuclear"].evaluate
        for seed in range(50):
            rng = la.make_rng(seed, 73)
            n = int(rng.integers(2, 7))
            e = rng.standard_normal(n)
            D = np.diag(rng.random(n) + 0.1)
            R = np.linalg.qr(rng.standard_normal((n, n)))[0]
            for g in (fro, nuc):
                target = g(np.diag(e) @ R @ D)
                best = min(
                    g(np.diag(e[list(p)]) @ D) for p in itertools.permutations(range(n))
                )
                assert best <= target + 1e-9


class TestDiagSolver:
    def test_trace_variant_hand_case(self):
        w, z = genreg.diag_solver_shrink(np.array([3.0, 2.0]), 1.5, "frob+trace")
        np.testing.assert_allclose(w, [math.sqrt(1.5), math.sqrt(0.5)], atol=1e-12)
        np.testing.assert_allclose(z, w, atol=0)

    def test_lambda_zero_square_roots(self):
        s = np.array([4.0, 1.0, 0.25])
        w, z = genreg.diag_solver_shrink(s, 0.0, "frob+trace")
        np.testing.assert_allclose(w * z, s, atol=1e-12)

    def test_frob_product_variant(self):
        w, _ = genreg.diag_solver_shrink(np.array([4.0, 1.0]), 1.0, "frob+frobYX")
        np.testing.assert_allclose(w, [math.sqrt(2.0), math.sqrt(0.5)], atol=1e-12)

    def test_schatten_continuity_at_small_lambda(self):
        s = np.array([3.0, 2.0, 1.0])
        w_ref, _ = genreg.diag_solver_shrink(s, 1e-8, "frob+trace")
        w, _ = genreg.diag_solver_shrink(s, 1e-8, "schattenp+trace", schatten_p=2.0)
        np.testing.assert_allclose(w, w_ref, atol=1e-6)

    def test_schatten_flat_objective_takes_the_largest_alpha(self, monkeypatch):
        # at p = 1, lam = 1 the scalar objective sum(min(s, a)) + sum((s - a)_+)
        # is sum(s) for every a: wherever the search stops, the result is the
        # largest optimal a, s_1, which gives the zero factors
        import scipy.optimize

        s = np.array([3.0, 2.0, 1.0, 0.5])
        free = genreg.diag_solver_shrink(s, 1.0, "schattenp+trace", schatten_p=1.0)
        assert not free[0].any() and not free[1].any()
        for stop in (0.0, 0.3, 1.0, 1.7, 2.99):
            monkeypatch.setattr(
                scipy.optimize, "minimize_scalar", lambda *a, _x=stop, **k: types.SimpleNamespace(x=_x)
            )
            w, z = genreg.diag_solver_shrink(s, 1.0, "schattenp+trace", schatten_p=1.0)
            assert np.array_equal(w, free[0]) and np.array_equal(z, free[1]), stop

    def test_input_validation(self):
        with pytest.raises(ValueError):
            genreg.diag_solver_shrink(np.array([1.0, 2.0]), 0.5)
        with pytest.raises(ValueError):
            genreg.diag_solver_shrink(np.array([2.0, 1.0]), 0.5, "no_such_variant")


class TestDiagReduction:
    def test_matches_closed_form_shrink(self):
        rng = la.make_rng(3, 73)
        A = rng.standard_normal((7, 5))
        lam = 0.6
        ref = lowrank.solve_exact_shrink(A, 3, lam)
        got = genreg.solve_diag_reduction(
            A, 3, genreg.ridge_pair(lam), lambda s: genreg.diag_solver_shrink(s, lam)
        )
        np.testing.assert_allclose(got.Y @ got.X, ref.Y @ ref.X, atol=1e-10)
        assert abs(got.objective - ref.objective) <= 1e-10

    def test_product_frobenius_hand_case(self):
        got = genreg.solve_diag_reduction(
            np.diag([4.0, 1.0]),
            1,
            genreg.product_fro_pair(1.0),
            lambda s: genreg.diag_solver_shrink(s, 1.0, "frob+frobYX"),
        )
        np.testing.assert_allclose(got.Y @ got.X, np.diag([2.0, 0.0]), atol=1e-10)

    def test_all_shrunk_to_zero(self):
        got = genreg.solve_diag_reduction(
            np.diag([3.0, 2.0, 1.0]),
            2,
            genreg.ridge_pair(5.0),
            lambda s: genreg.diag_solver_shrink(s, 5.0),
        )
        assert np.all(got.Y == 0) and np.all(got.X == 0)

    def test_flag_violation_rejected(self):
        noflags = genreg.MeasureFlags()
        bad = genreg.PairMeasure("bad", lambda Y, X: 0.0, noflags, noflags)
        with pytest.raises(genreg.MeasureFlagError):
            genreg.solve_diag_reduction(np.eye(3), 1, bad, lambda s: (s, s))

    def test_diagonal_core_brute_force_dominance(self):
        lam = 0.8
        pair = genreg.ridge_pair(lam)
        for seed in range(3):
            rng = la.make_rng(seed, 79)
            s = np.sort(rng.random(4) * 3.0)[::-1]
            A = np.diag(s)
            opt = genreg.solve_diag_reduction(
                A, 4, pair, lambda sig: genreg.diag_solver_shrink(sig, lam)
            )
            for _ in range(10_000):
                w = np.abs(rng.standard_normal(4)) * 1.5
                z = np.abs(rng.standard_normal(4)) * 1.5
                cand = float(np.sum((w * z - s) ** 2)) + lam * float(
                    np.sum(w * w) + np.sum(z * z)
                )
                assert opt.objective <= cand + 1e-9


def _exact_mr_ridge(A, B, lam):
    d = A.shape[1]
    X = np.linalg.solve(A.T @ A + lam * np.eye(d), A.T @ B)
    R = A @ X - B
    return X, float(np.sum(R * R)) + lam * float(np.sum(X * X))


def _recorded_specs(monkeypatch):
    """The specs solve_general_regression draws, in the order it draws them."""
    specs, affine_spec = [], genreg._affine_spec
    monkeypatch.setattr(
        genreg, "_affine_spec", lambda *a, **k: specs.append(affine_spec(*a, **k)) or specs[-1]
    )
    return specs


class TestGeneralRegression:
    def test_identity_collapse_matches_ridge(self):
        rng = la.make_rng(4, 73)
        A = rng.standard_normal((40, 6))
        B = rng.standard_normal((40, 3))
        lam = 0.7
        f = genreg.scaled(MEASURES["frobenius_sq"], lam)
        X, obj = genreg.solve_general_regression(
            A, B, f, genreg.ridge_small_solver(lam), 0.5,
            identity_sketches=True, assume_inheritance=True,
        )
        X_ref, obj_ref = _exact_mr_ridge(A, B, lam)
        np.testing.assert_allclose(X, X_ref, atol=1e-6)
        assert abs(obj - obj_ref) <= 1e-6 * obj_ref

    def test_policy_sketches_near_optimal(self):
        lam = 0.5
        hits = 0
        for seed in range(10):
            rng = la.make_rng(seed, 75)
            A = rng.standard_normal((2000, 8))
            B = A @ rng.standard_normal((8, 3)) + 0.1 * rng.standard_normal((2000, 3))
            f = genreg.scaled(MEASURES["frobenius_sq"], lam)
            _, obj = genreg.solve_general_regression(
                A, B, f, genreg.ridge_small_solver(lam), 0.5,
                seed=seed, assume_inheritance=True,
            )
            _, obj_ref = _exact_mr_ridge(A, B, lam)
            hits += obj <= 1.5 * obj_ref + 1e-12
        assert hits >= 8

    def test_vnorm_prox_vs_full_direct_solve(self):
        lam = 0.3
        hits = 0
        for seed in range(10):
            rng = la.make_rng(seed, 77)
            A = rng.standard_normal((50, 20))
            B = rng.standard_normal((50, 4))
            f = genreg.scaled(MEASURES["vnorm_2"], lam)
            solver = genreg.prox_small_solver(f)
            _, obj = genreg.solve_general_regression(A, B, f, solver, 0.5, seed=seed)
            Z_full = solver(genreg.reduced_problem(A, B))
            R = A @ Z_full - B
            obj_full = float(np.sum(R * R)) + f.evaluate(Z_full)
            hits += obj <= 1.5 * obj_full + 1e-12
        assert hits >= 8

    def test_missing_flags_rejected(self):
        bad = genreg.MatrixMeasure("bad", lambda Z: 0.0, genreg.MeasureFlags())
        with pytest.raises(genreg.MeasureFlagError):
            genreg.solve_general_regression(
                np.eye(3), np.eye(3), bad, genreg.ridge_small_solver(1.0), 0.5
            )
        with pytest.raises(genreg.MeasureFlagError):
            genreg.solve_general_regression(
                np.eye(3), np.eye(3), bad, genreg.ridge_small_solver(1.0), 0.5,
                assume_inheritance=True,
            )

    def test_identity_path_skips_the_rank_svd(self, monkeypatch):
        # the numerical rank only sizes sketches; identity sketches need none
        def no_rank(A):
            raise AssertionError("identity path computed the numerical rank")

        monkeypatch.setattr(genreg, "_numerical_rank", no_rank)
        rng = la.make_rng(5, 73)
        A = rng.standard_normal((40, 6))
        B = rng.standard_normal((40, 3))
        lam = 0.7
        f = genreg.scaled(MEASURES["frobenius_sq"], lam)
        X, _ = genreg.solve_general_regression(
            A, B, f, genreg.ridge_small_solver(lam), 0.5,
            identity_sketches=True, assume_inheritance=True,
        )
        np.testing.assert_allclose(X, _exact_mr_ridge(A, B, lam)[0], atol=1e-6)

    @pytest.mark.parametrize("csr", [True, False])
    def test_identity_path_is_the_small_solve(self, csr, monkeypatch):
        def no_basis(*args, **kwargs):
            raise AssertionError("the identity path changed basis")

        monkeypatch.setattr(lowrank, "_pivoted_col_basis", no_basis)
        A, B = TestSparseInput._problem(3000, 6, 4, 0.4, 10)
        A = A if csr else A.toarray()
        f = genreg.scaled(MEASURES["vnorm_2"], 0.3)
        solver = genreg.prox_small_solver(f)
        X, obj = genreg.solve_general_regression(
            A, B, f, solver, 0.5, identity_sketches=True, assume_inheritance=True,
        )
        want = solver(genreg.reduced_problem(A, B))
        assert np.array_equal(X, want)
        # the fit is summed one row block at a time
        blocks = la.row_blocks(*B.shape)
        fit = sum(float(np.vdot(R, R)) for R in (A[rows] @ want - B[rows] for rows in blocks))
        assert obj == fit + f.evaluate(want)

    def test_collapsing_policy_is_the_identity_path(self):
        # k_affine this large sizes every sketch past n and d': all identities
        rng = la.make_rng(7, 73)
        A = rng.standard_normal((300, 6))
        B = A @ rng.standard_normal((6, 3)) + 0.1 * rng.standard_normal((300, 3))
        f = genreg.scaled(MEASURES["vnorm_1"], 0.3)
        solver = genreg.prox_small_solver(f)
        policy = sk.SizePolicy(k_affine=1e4)
        got = genreg.solve_general_regression(A, B, f, solver, 0.5, policy=policy, seed=7)
        want = genreg.solve_general_regression(A, B, f, solver, 0.5, identity_sketches=True)
        assert np.array_equal(got[0], want[0]) and got[1] == want[1]
        assert np.array_equal(got[0], solver(genreg.reduced_problem(A, B)))

    def test_change_of_basis_is_exact_for_an_identity_right_sketch(self, monkeypatch):
        # the responses are never sketched, and with d' = 3 <= d = 8 there is
        # no rotation: X is the small solve on (Sh A, Sh B), Sh the one draw
        def no_basis(*args, **kwargs):
            raise AssertionError("the small solve changed basis")

        monkeypatch.setattr(lowrank, "_pivoted_col_basis", no_basis)
        specs = _recorded_specs(monkeypatch)
        rng = la.make_rng(6, 73)
        A = rng.standard_normal((2000, 8))
        B = A @ rng.standard_normal((8, 3)) + 0.1 * rng.standard_normal((2000, 3))
        lam = 0.5
        f = genreg.scaled(MEASURES["frobenius_sq"], lam)
        solver = genreg.ridge_small_solver(lam)
        X, _ = genreg.solve_general_regression(A, B, f, solver, 0.5, seed=6, assume_inheritance=True)
        [Sh] = specs
        assert (Sh.variant, Sh.side) == ("countsketch", "left")
        assert np.array_equal(X, solver(genreg.reduced_problem(sk.apply(Sh, A), sk.apply(Sh, B))))

    def test_well_conditioned_sketched_path_skips_the_svd(self, monkeypatch):
        # a certified full rank sizes the sketches without an SVD of A
        def no_svd(A):
            raise AssertionError("the sketched path took an SVD")

        monkeypatch.setattr(genreg, "_sv", no_svd)
        rng = la.make_rng(6, 73)
        A = rng.standard_normal((2000, 8))
        B = rng.standard_normal((2000, 3))
        lam = 0.5
        f = genreg.scaled(MEASURES["frobenius_sq"], lam)
        _, obj = genreg.solve_general_regression(
            A, B, f, genreg.ridge_small_solver(lam), 0.5, seed=6, assume_inheritance=True,
        )
        assert obj <= 1.5 * _exact_mr_ridge(A, B, lam)[1]

    def test_rank_is_read_off_the_left_sketch(self, monkeypatch):
        # the sizing reads rank(Sh A), with Sh at the affine size of min(n, d):
        # no Gram of A's 2000 rows is formed
        rows = []
        for owner in (la, genreg):
            monkeypatch.setattr(
                owner, "gram", lambda M, B=None, _g=owner.gram: rows.append(M.shape[0]) or _g(M, B)
            )
        rng = la.make_rng(6, 73)
        A = rng.standard_normal((2000, 8))
        B = A @ rng.standard_normal((8, 3)) + 0.1 * rng.standard_normal((2000, 3))
        f = genreg.scaled(MEASURES["vnorm_2"], 0.5)
        genreg.solve_general_regression(A, B, f, genreg.prox_small_solver(f), 0.5, seed=6)
        assert rows and max(rows) == sk.recommend_sizes(sk.SizePolicy(), 8, 0.5, "affine") < 2000

    def test_one_gram_and_one_eigvalsh_of_the_sketch(self, monkeypatch):
        # the rank read, the step size and the small solve share one Gram of
        # Sh A and its one eigvalsh: Sh A's rows are read once for G, once for C
        grams, eigs = [], []
        for owner in (la, genreg):
            monkeypatch.setattr(
                owner, "gram",
                lambda M, B=None, _g=owner.gram: grams.append((M.shape[0], B is None)) or _g(M, B),
            )
        monkeypatch.setattr(
            np.linalg, "eigvalsh", lambda G, _e=np.linalg.eigvalsh: eigs.append(G.shape) or _e(G)
        )
        rng = la.make_rng(6, 73)
        A = rng.standard_normal((2000, 8))
        B = A @ rng.standard_normal((8, 3)) + 0.1 * rng.standard_normal((2000, 3))
        f = genreg.scaled(MEASURES["vnorm_2"], 0.5)
        genreg.solve_general_regression(A, B, f, genreg.prox_small_solver(f), 0.5, seed=6)
        m = sk.recommend_sizes(sk.SizePolicy(), 8, 0.5, "affine")
        assert sorted(grams) == [(m, False), (m, True)]
        assert eigs == [(8, 8)]

    @pytest.mark.parametrize("identity", [True, False])
    def test_residual_is_never_formed_whole(self, identity):
        # 20000 x 40 with 16 responses: past Sh A and Sh B, which the reduced
        # problem is built from, the peak stays below half an n x d' array,
        # so no whole residual (or its square) is formed
        n, d, dprime = 20_000, 40, 16
        rng = la.make_rng(9, 73)
        A = rng.standard_normal((n, d))
        B = A @ rng.standard_normal((d, dprime)) + 0.01 * rng.standard_normal((n, dprime))
        f = genreg.scaled(MEASURES["vnorm_1"], 0.1)
        solver = genreg.prox_small_solver(f)
        m = sk.recommend_sizes(sk.SizePolicy(), d, 0.5, "affine")
        sketches = 0 if identity else m * (d + dprime) * 8
        tracemalloc.start()
        try:
            genreg.solve_general_regression(
                A, B, f, solver, 0.5, seed=9, identity_sketches=identity, assume_inheritance=True,
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - sketches < n * dprime * 8 / 2

    @pytest.mark.parametrize("csr", [False, True])
    def test_rank_deficient_input_ends_on_the_rank_sized_sketch(self, csr, monkeypatch):
        # rank 3 of d = 8: the first Sh, at the affine size of 8 (256 rows),
        # reads rank 3, whose affine size is 36 rows; Sh A and Sh B are halved
        # to level 64 of that draw, the smallest with 36 rows or more, and A
        # and B are sketched once
        specs = _recorded_specs(monkeypatch)
        applies, apply = [], sk.apply
        monkeypatch.setattr(sk, "apply", lambda spec, *M: applies.append(spec) or apply(spec, *M))
        rng = la.make_rng(8, 73)
        A = rng.standard_normal((2000, 3)) @ rng.standard_normal((3, 8))
        B = A @ rng.standard_normal((8, 2)) + 0.1 * rng.standard_normal((2000, 2))
        A = scipy.sparse.csr_array(A) if csr else A
        f = genreg.scaled(MEASURES["vnorm_2"], 0.5)
        solver = genreg.prox_small_solver(f)
        X, _ = genreg.solve_general_regression(A, B, f, solver, 0.5, seed=8)
        assert genreg._numerical_rank(A) == 3
        policy, seed_h = sk.SizePolicy(), la.derive_seed(8, 53)
        assert sk.recommend_sizes(policy, 8, 0.5, "affine") == 256
        assert sk.recommend_sizes(policy, 3, 0.5, "affine") == 36
        assert specs == [sk.countsketch(256, seed=seed_h)] and applies == specs
        Sh = sk.countsketch(64, seed=seed_h, fold=256)
        assert np.array_equal(X, solver(genreg.reduced_problem(apply(Sh, A), apply(Sh, B))))

    @pytest.mark.parametrize("n,rank,drawn,Sh_m", [
        (200, 3, [0, 36], 36),  # an identity first sketch: redrawn at the affine size of 3
        (2000, 7, [256], 256),  # rank 7 needs 196 rows: no level below 256 fits
    ], ids=["identity_first", "no_smaller_level"])
    def test_rank_deficient_input_keeps_the_draw_no_level_can_halve(self, n, rank, drawn, Sh_m, monkeypatch):
        specs = _recorded_specs(monkeypatch)
        rng = la.make_rng(9, 73)
        A = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, 8))
        B = A @ rng.standard_normal((8, 2)) + 0.1 * rng.standard_normal((n, 2))
        f = genreg.scaled(MEASURES["vnorm_2"], 0.5)
        solver = genreg.prox_small_solver(f)
        X, _ = genreg.solve_general_regression(A, B, f, solver, 0.5, seed=9)
        assert genreg._numerical_rank(A) == rank
        seed_h = la.derive_seed(9, 53)
        assert specs == [sk.countsketch(m, seed=seed_h) if m else sk.identity() for m in drawn]
        Sh = sk.countsketch(Sh_m, seed=seed_h)
        assert np.array_equal(X, solver(genreg.reduced_problem(*sk.apply(Sh, A, B))))


def test_fit_on_csr_keeps_the_bits_of_scipy_row_slices(monkeypatch):
    # _fit slices CSR row blocks from A's own arrays (la.row_block), not by
    # scipy's row slicing; each block's product, and so the sum, is the same
    monkeypatch.setattr(la, "BLOCK_ENTRIES", 24)
    rng = la.make_rng(16, 73)
    A = rng.standard_normal((100, 12)) * (rng.random((100, 12)) < 0.3)
    A[:7] = A[33:52] = A[95:] = 0.0
    A = scipy.sparse.csr_array(A)
    X, B = rng.standard_normal((12, 4)), rng.standard_normal((100, 4))
    blocks = la.row_blocks(*B.shape)
    assert len(blocks) > 10
    want = 0.0
    for rows in blocks:
        R = A[rows] @ X
        R -= B[rows]
        want += float(np.vdot(R, R))
    assert genreg._fit(A, X, B) == want


def _with_spectrum(n, d, s, seed):
    rng = la.make_rng(seed, 85)
    U, _ = np.linalg.qr(rng.standard_normal((n, len(s))))
    V, _ = np.linalg.qr(rng.standard_normal((d, len(s))))
    return (U * s) @ V.T


def _sparse_normal(n, d, density, seed):
    rng = la.make_rng(seed, 87)
    return scipy.sparse.random(
        n, d, density=density, format="csr", random_state=rng, data_rvs=rng.standard_normal
    )


def _rank_deficient_csr():
    A = _sparse_normal(300, 6, 0.5, 2).tolil()
    A[:, 5] = A[:, 0]
    return A.tocsr()


# name -> (input, its rank, whether only the SVD can decide it)
RANK_CASES = {
    "tall": lambda: (_with_spectrum(200, 8, np.logspace(0, -2, 8), 1), 8, False),
    "wide": lambda: (_with_spectrum(8, 200, np.logspace(0, -2, 8), 2), 8, False),
    "rank_5": lambda: (_with_spectrum(60, 12, np.logspace(0, -1, 5), 3), 5, True),
    "ratio_1e-9": lambda: (_with_spectrum(100, 6, [1.0, 0.5, 0.3, 0.2, 0.1, 1e-9], 4), 6, True),
    "ratio_1e-11": lambda: (_with_spectrum(100, 6, [1.0, 0.5, 0.3, 0.2, 0.1, 1e-11], 5), 5, True),
    "zero": lambda: (np.zeros((30, 4)), 0, True),
    "csr": lambda: (_sparse_normal(400, 10, 0.3, 1), 10, False),
    "csr_rank_deficient": lambda: (_rank_deficient_csr(), 5, True),
}


class TestNumericalRank:
    @pytest.mark.parametrize("case", sorted(RANK_CASES))
    def test_matches_the_svd_count(self, case, monkeypatch):
        A, rank, needs_svd = RANK_CASES[case]()
        s = np.linalg.svd(la.as_dense(A), compute_uv=False)
        assert int(np.sum(s > 1e-10 * s[0])) == rank
        calls = []
        real_sv = genreg._sv
        monkeypatch.setattr(genreg, "_sv", lambda M: calls.append(M.shape) or real_sv(M))
        assert genreg._numerical_rank(A) == rank
        # the Gram certifies exactly the full-rank inputs that are far from the cutoff
        assert bool(calls) == needs_svd


class TestSparseInput:
    @staticmethod
    def _problem(n, d, dprime, density, seed):
        A = _sparse_normal(n, d, density, seed)
        rng = la.make_rng(seed, 89)
        B = A @ rng.standard_normal((d, dprime)) + 0.1 * rng.standard_normal((n, dprime))
        return A, B

    @pytest.mark.parametrize("identity", [True, False])
    @pytest.mark.parametrize("name", ["frobenius_sq", "vnorm_2"])
    def test_csr_matches_dense(self, name, identity):
        A, B = self._problem(3000, 6, 3, 0.4, 7)
        f = genreg.scaled(MEASURES[name], 0.3)
        solver = genreg.ridge_small_solver(0.3) if name == "frobenius_sq" else genreg.prox_small_solver(f)
        Xs = []
        for M in (A, A.toarray()):
            X, _ = genreg.solve_general_regression(
                M, B, f, solver, 0.5, seed=7, identity_sketches=identity, assume_inheritance=True,
            )
            Xs.append(X)
        np.testing.assert_allclose(Xs[0], Xs[1], rtol=0, atol=1e-12 * np.abs(Xs[1]).max())

    def _peak_over_dense(self, identity):
        """tracemalloc peak of one solve on a 40000 x 50 CSR A, over A's dense bytes."""
        A, B = self._problem(40_000, 50, 2, 0.02, 8)
        f = genreg.scaled(MEASURES["vnorm_2"], 0.3)
        tracemalloc.start()
        try:
            genreg.solve_general_regression(
                A, B, f, genreg.prox_small_solver(f), 1.0, seed=8,
                identity_sketches=identity, assume_inheritance=True,
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (A.shape[0] * A.shape[1] * 8)

    def test_sketched_path_never_densifies_csr(self):
        assert self._peak_over_dense(identity=False) < 1 / 4

    def test_identity_path_never_densifies_csr(self):
        # the small solver reads the CSR A through its Gram
        assert self._peak_over_dense(identity=True) < 1 / 4


def _dense_problem(n, d, dprime, seed):
    rng = la.make_rng(seed, 91)
    A = rng.standard_normal((n, d))
    return A, A @ rng.standard_normal((d, dprime)) + 0.1 * rng.standard_normal((n, dprime))


def _weighted_solver(name):
    """(f, its small solver) at weight 0.3: ridge or the prox solver of vnorm_2."""
    if name == "ridge":
        return genreg.scaled(MEASURES["frobenius_sq"], 0.3), genreg.ridge_small_solver(0.3)
    f = genreg.scaled(MEASURES["vnorm_2"], 0.3)
    return f, genreg.prox_small_solver(f)


# solver -> largest difference from the unrotated solve, relative to its largest entry
ROTATION_TOL = {"ridge": 1e-12, "prox": 1e-10}

# name -> a problem with d' far above d and above the affine size m_L = 144
# of the left sketch (6^2 / 0.5^2)
WIDE_CASES = {
    "csr_3000x6_200": lambda: TestSparseInput._problem(3000, 6, 200, 0.4, 9),
    "dense_400x6_2000": lambda: _dense_problem(400, 6, 2000, 0),
}


class TestRotation:
    @pytest.mark.parametrize("csr", [True, False])
    @pytest.mark.parametrize("name", sorted(ROTATION_TOL))
    def test_matches_the_unrotated_solve(self, name, csr, monkeypatch):
        # 200 responses on 6 columns: the small solve runs on the 6 x 6
        # problem rotated onto the row space of C = (Sh A)'(Sh B), and X is
        # rotated back; the unrotated 6 x 200 solve gives the same X
        f, solver = _weighted_solver(name)
        A, B = TestSparseInput._problem(3000, 6, 200, 0.4, 9)
        A = A if csr else A.toarray()
        specs = _recorded_specs(monkeypatch)
        X, _ = genreg.solve_general_regression(A, B, f, solver, 0.5, seed=9, assume_inheritance=True)
        want = solver(genreg.reduced_problem(*sk.apply(specs[0], A, B)))
        np.testing.assert_allclose(X, want, rtol=0, atol=ROTATION_TOL[name] * np.abs(want).max())
        assert [(spec.variant, spec.side) for spec in specs] == [("countsketch", "left")]

    @pytest.mark.parametrize("case", sorted(WIDE_CASES))
    def test_many_responses_within_one_plus_eps(self, case):
        A, B = WIDE_CASES[case]()
        f, solver = _weighted_solver("prox")
        Z = solver(genreg.reduced_problem(A, B))
        R = A @ Z - B
        direct = float(np.sum(R * R)) + f.evaluate(Z)
        hits = 0
        for seed in range(10):
            _, obj = genreg.solve_general_regression(A, B, f, solver, 0.5, seed=seed, assume_inheritance=True)
            hits += obj <= 1.5 * direct
        assert hits >= 8


PROX_MEASURES = ["vnorm_1", "vnorm_2", "nuclear", "frobenius_sq"]


def _prox_problem(seed):
    # mildly ill-conditioned columns make the loop run 50-60 steps (the plain
    # proximal-gradient loop 115-150)
    rng = la.make_rng(seed, 79)
    A = rng.standard_normal((300, 12)) * np.logspace(0, -0.5, 12)
    B = A @ rng.standard_normal((12, 5)) + 0.1 * rng.standard_normal((300, 5))
    return A, B


def _near_consistent_problem(seed):
    # B = A W at a large scale: with a tiny weight the objective is about
    # 1e-9 of ||B||^2, below what <Z, G Z - 2 C> + ||B||^2 can resolve
    rng = la.make_rng(seed, 83)
    A = rng.standard_normal((300, 12)) * np.logspace(0, -0.5, 12)
    return A, 1e4 * (A @ rng.standard_normal((12, 5)))


# kind -> (problem of a seed, weight of the measure)
PROX_CASES = {"plain": (_prox_problem, 0.3), "near_consistent": (_near_consistent_problem, 1e-8)}


def _objective(f, A, B, Z):
    R = A @ Z - B
    return float(np.sum(R * R)) + f.evaluate(Z)


def _direct_prox_solve(f, Ah, Bh):
    """prox_small_solver's loop on (Ah, Bh) itself: the same momentum,
    restart and stop rule, with the objective computed directly."""
    step = 1.0 / max(2.0 * np.linalg.norm(Ah, 2) ** 2, 1e-12)
    Z = np.zeros((Ah.shape[1], Bh.shape[1]))
    obj = _objective(f, Ah, Bh, Z)
    Y, t = Z, 1.0
    for _ in range(genreg.PROX_ITERS):
        Zn = f.prox(Y - step * 2.0 * (Ah.T @ (Ah @ Y - Bh)), step)
        obj_n = _objective(f, Ah, Bh, Zn)
        plain = Y is Z
        if obj - obj_n >= genreg.PROX_TOL * max(abs(obj), 1.0):
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            Y = Zn if t == 1.0 else Zn + ((t - 1.0) / t_next) * (Zn - Z)
            Z, obj, t = Zn, obj_n, t_next
            continue
        if obj_n < obj:
            Z, obj = Zn, obj_n
        if plain:
            break
        Y, t = Z, 1.0
    return Z


def _plain_prox_solve(f, Ah, Bh):
    """The plain proximal-gradient loop on (Ah, Bh), that prox_small_solver
    ran before it was accelerated: the baseline of its step count and gap."""
    step = 1.0 / max(2.0 * np.linalg.norm(Ah, 2) ** 2, 1e-12)
    Z = np.zeros((Ah.shape[1], Bh.shape[1]))
    prev = _objective(f, Ah, Bh, Z)
    best, best_obj = Z, prev
    for _ in range(genreg.PROX_ITERS):
        Z = f.prox(Z - step * 2.0 * (Ah.T @ (Ah @ Z - Bh)), step)
        obj = _objective(f, Ah, Bh, Z)
        if obj < best_obj:
            best, best_obj = Z, obj
        if prev - obj < genreg.PROX_TOL * max(abs(prev), 1.0):
            break
        prev = obj
    return best


class _CountedMatmul(np.ndarray):
    """An array that counts the matrix products it takes part in."""

    products = 0

    def __matmul__(self, other):
        type(self).products += 1
        return np.asarray(self) @ np.asarray(other)

    def __rmatmul__(self, other):
        type(self).products += 1
        return np.asarray(other) @ np.asarray(self)


class TestProxSmallSolver:
    @pytest.mark.parametrize("name", PROX_MEASURES)
    def test_gram_form_matches_direct_form(self, name):
        f = genreg.scaled(MEASURES[name], 0.3)
        solve = genreg.prox_small_solver(f)
        for seed in range(3):
            A, B = _prox_problem(seed)
            ref = _objective(f, A, B, _direct_prox_solve(f, A, B))
            assert abs(_objective(f, A, B, solve(genreg.reduced_problem(A, B))) - ref) <= 1e-9 * ref

    @pytest.mark.parametrize("name", PROX_MEASURES)
    def test_gram_form_matches_direct_form_near_consistent(self, name):
        f = genreg.scaled(MEASURES[name], 1e-8)
        solve = genreg.prox_small_solver(f)
        for seed in range(3):
            A, B = _near_consistent_problem(seed)
            ref = _objective(f, A, B, _direct_prox_solve(f, A, B))
            assert abs(_objective(f, A, B, solve(genreg.reduced_problem(A, B))) - ref) <= 1e-9 * ref

    @pytest.mark.parametrize("kind", sorted(PROX_CASES))
    @pytest.mark.parametrize("name", PROX_MEASURES)
    def test_closer_to_the_optimum_in_half_the_steps(self, name, kind):
        # against a FISTA run to convergence, the accelerated loop ends no
        # farther off than the plain loop, with at most half its prox calls
        problem, weight = PROX_CASES[kind]
        base = genreg.scaled(MEASURES[name], weight)
        calls = []
        f = dataclasses.replace(base, prox=lambda V, t: calls.append(t) or base.prox(V, t))
        for seed in range(3):
            A, B = problem(seed)
            opt = _objective(base, A, B, fista_reference(A, B, base))
            calls.clear()
            gap = _objective(base, A, B, genreg.prox_small_solver(f)(genreg.reduced_problem(A, B))) - opt
            steps = len(calls)
            calls.clear()
            plain_gap = _objective(base, A, B, _plain_prox_solve(f, A, B)) - opt
            assert gap <= plain_gap, seed
            assert 2 * steps <= len(calls), seed

    @pytest.mark.parametrize("name", PROX_MEASURES)
    def test_a_binding_cap_keeps_the_objective_monotone(self, name, monkeypatch):
        # truncated after each cap, the returned objective never rises with
        # the cap and never exceeds the objective of Z = 0
        f = genreg.scaled(MEASURES[name], 0.3)
        A, B = _prox_problem(0)
        objectives = []
        for cap in (1, 2, 3, 5, 8):
            monkeypatch.setattr(genreg, "PROX_ITERS", cap)
            objectives.append(_objective(f, A, B, genreg.prox_small_solver(f)(genreg.reduced_problem(A, B))))
        assert max(objectives) <= float(np.sum(B * B)) + f.evaluate(np.zeros((12, 5)))
        assert all(later <= earlier for earlier, later in zip(objectives, objectives[1:]))

    def test_reads_the_sketch_a_bounded_number_of_times(self, monkeypatch):
        A, B = _prox_problem(0)
        base = genreg.scaled(MEASURES["vnorm_1"], 0.3)
        calls = []

        def counted_prox(V, t):
            calls.append(t)
            return base.prox(V, t)

        f = dataclasses.replace(base, prox=counted_prox)
        monkeypatch.setattr(_CountedMatmul, "products", 0)
        prob = genreg.reduced_problem(A.view(_CountedMatmul), B)
        # the record reads the sketch at most twice, the solver never
        assert 1 <= _CountedMatmul.products <= 2
        monkeypatch.setattr(_CountedMatmul, "products", 0)
        genreg.prox_small_solver(f)(prob)
        assert len(calls) >= 50
        assert _CountedMatmul.products == 0

    @pytest.mark.parametrize("name", PROX_MEASURES)
    def test_zero_sketch_gives_zero(self, name):
        f = genreg.scaled(MEASURES[name], 0.3)
        B = la.make_rng(0, 81).standard_normal((30, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Z = genreg.prox_small_solver(f)(genreg.reduced_problem(np.zeros((30, 4)), B))
        assert np.array_equal(Z, np.zeros((4, 3)))


class TestGeneralLowRank:
    def test_identity_collapse_matches_shrink(self):
        rng = la.make_rng(5, 73)
        A = rng.standard_normal((15, 11))
        lam = 0.4
        ref = lowrank.solve_exact_shrink(A, 4, lam)
        # the default sizes reach 15 and 11: every sketch is the identity
        got = genreg.solve_general_lowrank(
            A, 4, genreg.ridge_pair(lam), lambda s: genreg.diag_solver_shrink(s, lam), 0.5,
        )
        assert abs(got.objective - ref.objective) <= 1e-6 * ref.objective

    def test_nuclear_product_trace_variant(self):
        # penalty 2*lam*||YX||_(1) with the trace-variant diagonal solver
        # reproduces the sqrt((Sigma - lam)_+) construction
        rng = la.make_rng(6, 73)
        A = rng.standard_normal((12, 9))
        lam = 0.5
        ref = lowrank.solve_exact_shrink(A, 3, lam)
        got = genreg.solve_general_lowrank(
            A, 3, genreg.nuclear_product_pair(lam),
            lambda s: genreg.diag_solver_shrink(s, lam, "frob+trace"), 0.5,
        )
        np.testing.assert_allclose(got.Y @ got.X, ref.Y @ ref.X, atol=1e-6)

    def test_policy_sketches_near_optimal(self):
        lam = 0.6
        hits = 0
        for seed in range(10):
            rng = la.make_rng(seed, 81)
            A = rng.standard_normal((400, 50)) @ rng.standard_normal((50, 300)) / 50.0
            A += 0.01 * rng.standard_normal((400, 300))
            ref = lowrank.solve_exact_shrink(A, 8, lam)
            got = genreg.solve_general_lowrank(
                A, 8, genreg.ridge_pair(lam),
                lambda s: genreg.diag_solver_shrink(s, lam),
                0.5, seed=seed,
            )
            hits += got.objective <= 1.5 * ref.objective + 1e-12
        assert hits >= 8

    def test_sketched_run_matches_lowrank_core(self):
        # genreg's four affine CountSketches, fed to lowrank's ridge core,
        # reproduce the factors genreg returns for the ridge pair
        lam, k, eps, seed = 0.6, 8, 0.5, 3
        rng = la.make_rng(seed, 81)
        A = rng.standard_normal((400, 50)) @ rng.standard_normal((50, 300)) / 50.0
        got = genreg.solve_general_lowrank(
            A, k, genreg.ridge_pair(lam),
            lambda s: genreg.diag_solver_shrink(s, lam),
            eps, seed=seed,
        )
        m = sk.recommend_sizes(sk.SizePolicy(), float(k), eps, "affine")
        pieces = lowrank.build_core_sized(A, {"m": m, "m_prime": m, "p": m, "p_prime": m}, seed=seed)
        # S, R, S2 and R2, each at the affine size of k on lowrank's own seeds
        specs = [
            sk.countsketch(m, s, side)
            for s, side in zip(la.derive_seeds(seed, 31, 4), ["left", "right", "left", "right"])
        ]
        assert [pieces.specs[name] for name in ("S", "R", "S2", "R2")] == specs
        Z_R, Z_S, _ = lowrank.solve_core(pieces.S2AR, pieces.SAR2, pieces.S2AR2, k, lam)
        Y, X, _ = lowrank._lift_and_fit(A, pieces, Z_R, Z_S, lambda Y, X: 0.0)
        assert np.array_equal(got.Y, Y) and np.array_equal(got.X, X)
        np.testing.assert_allclose(Y, A @ sk.right_product(pieces.specs["R"], Z_R, 300), rtol=1e-12)

    def test_core_solves_only_the_diagonal_problem(self, monkeypatch):
        # the k x k core is reduced by the SVD and its diagonal solver alone,
        # never by a full solver that also builds factors and an objective
        def full_solver(*args, **kwargs):
            raise AssertionError("the core ran a full low-rank solver")

        monkeypatch.setattr(lowrank, "solve_exact_shrink", full_solver)
        monkeypatch.setattr(genreg, "solve_diag_reduction", full_solver)
        lam, k, eps, seed = 0.6, 8, 0.5, 3
        rng = la.make_rng(seed, 81)
        A = rng.standard_normal((400, 50)) @ rng.standard_normal((50, 300)) / 50.0
        sol = lowrank.solve_sketched(A, k, lam, eps, seed=seed)
        assert sol.sizes["m"] < 400 and sol.sizes["m_prime"] < 300
        got = genreg.solve_general_lowrank(
            A, k, genreg.ridge_pair(lam), lambda s: genreg.diag_solver_shrink(s, lam), eps, seed=seed,
        )
        assert got.Y.shape == (400, k) and got.X.shape == (k, 300)

    def test_csr_input_is_never_densified(self):
        # 40000 x 200 CSR: a dense copy of A alone would be 64 MB
        A = _sparse_normal(40_000, 200, 0.05, 12)
        lam = 0.5
        pair, diag = genreg.ridge_pair(lam), lambda s: genreg.diag_solver_shrink(s, lam)
        tracemalloc.start()
        try:
            got = genreg.solve_general_lowrank(A, 2, pair, diag, 0.5, seed=12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * A.shape[0] * A.shape[1] * 8
        want = genreg.solve_general_lowrank(A.toarray(), 2, pair, diag, 0.5, seed=12)
        for name in ("Y", "X"):
            g, w = getattr(got, name), getattr(want, name)
            assert np.linalg.norm(g - w) <= 1e-12 * np.linalg.norm(w), name

    def test_exact_solves_never_densify_csr(self):
        # the truncated SVD (k = 2 of 200) and the row-blocked objective read
        # the 40000 x 200 CSR as given: a dense copy alone would be 64 MB
        A = _sparse_normal(40_000, 200, 0.05, 12)
        lam = 0.5
        pair, diag = genreg.ridge_pair(lam), lambda s: genreg.diag_solver_shrink(s, lam)

        def solve(M):
            return lowrank.solve_exact_shrink(M, 2, lam), genreg.solve_diag_reduction(M, 2, pair, diag)

        tracemalloc.start()
        try:
            got = solve(A)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * A.shape[0] * A.shape[1] * 8
        for g, w in zip(got, solve(A.toarray())):
            for name in ("Y", "X"):
                a, b = getattr(g, name), getattr(w, name)
                assert np.linalg.norm(a - b) <= 1e-10 * np.linalg.norm(b), name
            assert abs(g.objective - w.objective) <= 1e-10 * w.objective

    def test_flag_violation_rejected(self):
        noflags = genreg.MeasureFlags()
        bad = genreg.PairMeasure("bad", lambda Y, X: 0.0, noflags, noflags)
        with pytest.raises(genreg.MeasureFlagError):
            genreg.solve_general_lowrank(np.eye(4), 2, bad, lambda s: (s, s), 0.5)
