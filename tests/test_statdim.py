import tracemalloc

import numpy as np
import pytest
import scipy.sparse

from regsketch import la, problems, statdim
from regsketch import sketch as sk


class TestSdExact:
    def test_rank_at_lambda_zero(self):
        assert statdim.sd_exact(np.array([1.0, 1.0, 1.0]), 0.0) == 3.0

    def test_hand_value(self):
        # 9/10 + 4/5 + 1/2 = 2.2
        assert abs(statdim.sd_exact(np.array([3.0, 2.0, 1.0]), 1.0) - 2.2) <= 1e-12

    def test_matrix_input_matches_sigma_input(self):
        rng = la.make_rng(0)
        A = rng.standard_normal((20, 6))
        s = np.linalg.svd(A, compute_uv=False)
        assert abs(statdim.sd_exact(A, 0.7) - statdim.sd_exact(s, 0.7)) <= 1e-10

    def test_monotone_decreasing_in_lambda(self):
        rng = la.make_rng(1)
        A = rng.standard_normal((30, 10))
        vals = [statdim.sd_exact(A, lam) for lam in np.logspace(-3, 3, 20)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.5  # heavy regularization kills the dimension

    def test_rank_tolerance(self):
        A = np.diag([1.0, 1e-14])
        assert abs(statdim.sd_exact(A, 0.0) - 1.0) <= 1e-10


class TestResidualEstimate:
    def test_exact_backend_diag(self):
        A = np.diag([3.0, 2.0, 1.0])
        assert abs(statdim.residual_norm_estimate(A, 2, seed=0, backend="exact") - 1.0) <= 1e-10

    def test_krylov_within_band(self):
        A = np.diag([3.0, 2.0, 1.0])
        est = statdim.residual_norm_estimate(A, 2, seed=0)
        assert 2.0 / 3.0 <= est <= 4.0 / 3.0

    def test_full_z_is_zero(self):
        A = la.make_rng(2).standard_normal((5, 4))
        assert statdim.residual_norm_estimate(A, 4, seed=0) == 0.0

    def test_exact_rank_z_near_zero(self):
        rng = la.make_rng(3)
        A = rng.standard_normal((10, 2)) @ rng.standard_normal((2, 8))  # rank 2
        est = statdim.residual_norm_estimate(A, 2, seed=0, backend="exact")
        assert est <= 1e-10 * np.sum(A * A)


class TestSdEstimate:
    def test_flat_spectrum_trace(self):
        # diag(1,1,1,1), lam=1: z=1 gives gamma=3 > 1; z=2 gives gamma=2 = z, stop.
        # estimate = z' + gamma/lam = 4; sd_exact = 2 sits inside the certificate.
        A = np.diag([1.0, 1.0, 1.0, 1.0])
        est = statdim.sd_estimate(A, 1.0, backend="exact")
        assert est.z_prime == 2
        assert abs(est.estimate - 4.0) <= 1e-10
        assert est.lower <= 2.0 <= est.upper
        assert est.binding

    def test_heavy_regularization_stops_at_one(self):
        rng = la.make_rng(4)
        A = rng.standard_normal((20, 8))
        lam = 100.0 * np.linalg.norm(A, 2) ** 2
        est = statdim.sd_estimate(A, lam, backend="exact")
        assert est.z_prime == 1
        assert est.estimate <= 1.1

    def test_estimate_never_exceeds_rank(self):
        # lam far below every sigma^2: the doubling reaches r = 30 and stops
        A, _ = problems.generate_problem(40, 30, 0, kind="flat")
        est = statdim.sd_estimate(A, 1e-6)
        exact = statdim.sd_exact(A, 1e-6)
        assert est.estimate <= 30
        assert est.lower <= exact <= est.upper
        assert not est.binding

    def test_lambda_zero_rejected(self):
        with pytest.raises(ValueError):
            statdim.sd_estimate(np.eye(3), 0.0)

    def test_certificate_deterministic_backend(self):
        # exact residuals make the inequality chain deterministic
        for seed in range(20):
            A, _ = problems.generate_problem(60, 40, seed, kind="power")
            for lam in (1e-2, 1e-1, 1.0, 10.0):
                est = statdim.sd_estimate(A, lam, backend="exact")
                exact = statdim.sd_exact(A, lam)
                assert est.lower <= exact + 1e-9
                assert exact <= est.upper + 1e-9

    def test_upper_bound_identity(self):
        # sd_lam(A) <= z + ||A - A_z||_F^2 / lam for every z
        rng = la.make_rng(5)
        s = np.sort(rng.random(12))[::-1]
        lam = 0.3
        sd = statdim.sd_exact(s, lam)
        for z in range(1, 12):
            resid = float(np.sum(s[z:] ** 2))
            assert sd <= z + resid / lam + 1e-12

    def test_randomized_backend_constant_factor(self):
        hits = 0
        runs = 40
        for seed in range(runs):
            A, _ = problems.generate_problem(80, 50, seed, kind="power")
            est = statdim.sd_estimate(A, 0.1, seed=seed)
            exact = statdim.sd_exact(A, 0.1)
            hits += est.estimate / 16.0 <= exact <= 1.5 * est.estimate
        assert hits >= int(0.95 * runs)


class TestGramFactorEstimator:
    """sd_estimate reads A once, through the short-side Gram of a CountSketch
    of A (or of A itself when the sketch would not reduce its long side)."""

    @pytest.mark.parametrize("shape", [(300, 40), (40, 300)])
    def test_transpose_gives_the_same_estimate(self, shape):
        # both orientations share one short-side Gram (square A has two)
        A, _ = problems.generate_problem(*shape, 0, kind="power")
        lam = 0.05
        for backend in ("sketch", "exact"):
            est = statdim.sd_estimate(A, lam, seed=3, backend=backend)
            assert est == statdim.sd_estimate(A.T, lam, seed=3, backend=backend)

    def test_csr_matches_dense(self):
        A, _ = problems.generate_problem(2000, 30, 1, density=0.1)
        assert scipy.sparse.issparse(A)
        for lam in (0.01, 0.1):
            sparse_est = statdim.sd_estimate(A, lam, seed=2)
            dense_est = statdim.sd_estimate(A.toarray(), lam, seed=2)
            assert sparse_est.z_prime == dense_est.z_prime
            assert abs(sparse_est.estimate - dense_est.estimate) <= 1e-12 * dense_est.estimate

    @pytest.mark.parametrize("kind", problems.SPECTRA)
    def test_tall_matches_doubling_on_the_sketch(self, kind):
        # the exact-tail doubling run by hand on the eigenvalues of the
        # 4r-row CountSketch of A, drawn at the derived seed
        A, _ = problems.generate_problem(4096, 64, 5, kind=kind)
        lam = problems.lambda_for_sd(A, 3.0, 8.0)
        seed = 11
        spec = sk.countsketch(4 * 64, seed=la.derive_seed(seed, statdim.SD_SKETCH_STREAM))
        SA = sk.apply(spec, A)
        w = np.linalg.eigvalsh(SA.T @ SA)[::-1]
        z = 1
        while True:
            gamma = float(np.sum(w[z:]))
            if z >= gamma / lam:
                break
            z = min(2 * z, 64)
        est = statdim.sd_estimate(A, lam, seed=seed)
        assert est.z_prime == z
        assert abs(est.estimate - (z + gamma / lam)) <= 1e-12 * est.estimate

    @pytest.mark.parametrize("rel_lam", [1e-12, 1e-10])
    def test_rank_deficient_input_keeps_rank(self, rel_lam):
        # rank 5 exactly: the Gram's rounding-level eigenvalues, some of them
        # negative, must be zeroed, or the doubling search runs on to the rank
        A, _ = problems.generate_problem(400, 60, 2, kind="flat", rank=5, noise=0)
        lam = rel_lam * np.linalg.norm(A, 2) ** 2
        est = statdim.sd_estimate(A, lam)
        exact = statdim.sd_exact(A, lam)
        assert est.lower <= exact <= est.upper
        assert abs(est.estimate - 8.0) <= 0.01 * 8.0


def _lam_for(sigma, target):
    """A ridge weight at which sd_lam of singular values sigma is target."""
    lo, hi = 1e-14, 1e14
    for _ in range(200):
        lam = np.sqrt(lo * hi)
        lo, hi = (lam, hi) if statdim.sd_exact(sigma, lam) > target else (lo, lam)
    return lam


def _heavy_rows(n, d, seed):
    """Coherent input: d rows, one per direction, carry nearly all the energy
    (sigma from 1 down to 0.01), over a faint Gaussian background."""
    rng = la.make_rng(seed, 3)
    A = rng.standard_normal((n, d)) * 1e-3 / np.sqrt(n)
    A[rng.choice(n, size=d, replace=False), np.arange(d)] = 10.0 ** -np.linspace(0, 2, d)
    return A


class TestSketchedEstimator:
    """The default backend reads a 4r-row CountSketch of A, drawn once."""

    @pytest.mark.parametrize(
        "n, d, kind",
        [(20000, 40, kind) for kind in problems.SPECTRA]
        + [(65536, 64, kind) for kind in problems.SPECTRA]
        + [(20000, 40, "heavy")],
    )
    def test_every_draw_within_the_certificate(self, n, d, kind):
        A = _heavy_rows(n, d, 0) if kind == "heavy" else problems.generate_problem(n, d, 1, kind=kind)[0]
        assert statdim.SD_SKETCH_ROWS_PER_RANK * d < n  # the sketch reduces
        sigma = statdim.singular_values(A)
        for target in (2.0, 8.0, 30.0):
            lam = _lam_for(sigma, target)
            sd = statdim.sd_exact(sigma, lam)
            for seed in range(6):
                est = statdim.sd_estimate(A, lam, seed=seed)
                assert est.lower <= sd <= est.upper, (target, seed, est)
                assert est.estimate / 16.0 <= sd <= 1.5 * est.estimate, (target, seed, est)

    @pytest.mark.parametrize("shape", [(20000, 40), (40, 20000)])
    def test_reads_no_long_side_gram_and_sketches_once(self, shape, monkeypatch):
        A, _ = problems.generate_problem(*shape, 3, kind="power")
        grams, applies = [], []
        gram, apply = la.gram, sk.apply
        monkeypatch.setattr(la, "gram", lambda M, *a: grams.append(M.shape) or gram(M, *a))
        monkeypatch.setattr(sk, "apply", lambda *a: applies.append(a[0]) or apply(*a))
        statdim.sd_estimate(A, 0.01, seed=4)
        assert len(applies) == 1 and applies[0].m == 4 * 40
        assert grams and all(max(g) < max(shape) for g in grams)

    def test_hash_is_independent_of_the_solve_sketch(self, monkeypatch):
        # the solve sketches with countsketch(m, seed): the estimator's draw
        # at the same seed and size must not repeat its hash
        A, _ = problems.generate_problem(2000, 30, 6, kind="geometric")
        seed, specs, apply = 9, [], sk.apply
        monkeypatch.setattr(sk, "apply", lambda *a: specs.append(a[0]) or apply(*a))
        statdim.sd_estimate(A, 0.01, seed=seed)
        [spec] = specs
        assert spec.seed != seed
        eye = np.eye(2000)
        assert not np.array_equal(apply(spec, eye), apply(sk.countsketch(spec.m, seed=seed), eye))

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="krylov"):
            statdim.sd_estimate(np.eye(3), 1.0, backend="krylov")


class TestSdByGram:
    """sd_lam of a sketch read off its short-side Gram."""

    @pytest.mark.parametrize("kind", problems.SPECTRA)
    @pytest.mark.parametrize("m", [60, 400])
    def test_within_the_certificate_of_the_svd_reading(self, kind, m, monkeypatch):
        # m = 60 < d reads S A A' S', m = 400 > d reads A' S' S A
        A, _ = problems.generate_problem(3000, 200 if m == 60 else 50, 4, kind=kind)
        SA = sk.apply(sk.countsketch(m, seed=4), A)
        s = np.linalg.svd(SA, compute_uv=False)
        w, delta = la.short_gram_eigvalsh(SA)
        calls, exact = [], statdim.sd_exact
        monkeypatch.setattr(statdim, "sd_exact", lambda M, l: calls.append(l) or exact(M, l))
        for target in (1.0, 4.0, 16.0):
            lam = problems.lambda_for_sd(A, 0.8 * target, 1.2 * target)
            got = statdim.sd_by_gram(SA, lam)
            assert abs(got - float(np.sum(s**2 / (s**2 + lam)))) <= w.size * delta / lam
            # the SVD runs only where the bound is loose: at the geometric
            # family's sd_lam = 16, lam is about 1e-7 ||A||_2^2
            assert bool(calls) == (w.size * delta / lam > statdim.SD_GRAM_RTOL * max(1.0, got))
            assert target == 16.0 or not calls
            calls.clear()

    def test_falls_back_to_the_svd_at_tiny_lambda(self, monkeypatch):
        # lam = 1e-14 ||A||_2^2 leaves the Gram's certificate far above
        # SD_GRAM_RTOL of the reading, so the SVD reads it
        A, _ = problems.generate_problem(600, 40, 5, kind="geometric")
        SA = sk.apply(sk.countsketch(100, seed=5), A)
        lam = 1e-14 * np.linalg.norm(SA, 2) ** 2
        calls, exact = [], statdim.sd_exact
        monkeypatch.setattr(statdim, "sd_exact", lambda M, l: calls.append(M.shape) or exact(M, l))
        got = statdim.sd_by_gram(SA, lam)
        assert calls == [SA.shape] and got == exact(SA, lam)


class TestSdFromSketch:
    """sd_lam read off a CountSketch sized by the lowrank_S rule at eps = 0.5."""

    @staticmethod
    def lam_for(sigma, target):
        lo, hi = 1e-14, 1e14
        for _ in range(200):
            lam = np.sqrt(lo * hi)
            lo, hi = (lam, hi) if statdim.sd_exact(sigma, lam) > target else (lo, lam)
        return lam

    @pytest.mark.parametrize("kind", problems.SPECTRA)
    def test_estimate_within_factor_two(self, kind):
        n, d = 4000, 40
        policy = sk.SizePolicy()

        def size(s):
            return sk.recommend_sizes(policy, s, 0.5, "lowrank_S")

        A, _ = problems.generate_problem(n, d, 0, kind=kind)
        sigma = statdim.singular_values(A)
        for target in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, d / 2, 0.9 * d, d - 0.5):
            lam = self.lam_for(sigma, target)
            sd = statdim.sd_exact(sigma, lam)
            inside = 0
            for seed in range(20):
                got = statdim.sd_from_sketch(A, lam, size, float(d), seed=seed)
                m = got.SA.shape[0]
                assert size(got.sd_hat) <= m or m == n
                assert m <= max(size(1.0), 2 * size(float(d)))
                inside += 0.5 * sd <= got.sd_hat <= 2.0 * sd
            # a randomized reading: at sd_lam <= 1 it comes from a 6-row sketch
            assert inside >= 18, (kind, sd, inside)

    def test_final_draw_is_the_returned_sketch(self, monkeypatch):
        A, _ = problems.generate_problem(3000, 50, 1, kind="power")
        lam = problems.lambda_for_sd(A, 3.0, 8.0)
        applies = []
        apply = sk.apply
        monkeypatch.setattr(sk, "apply", lambda spec, *M: applies.append(spec) or apply(spec, *M))
        got = statdim.sd_from_sketch(
            A, lam, lambda s: sk.recommend_sizes(sk.SizePolicy(), s, 0.5, "lowrank_S"), 50.0, seed=7
        )
        monkeypatch.undo()
        assert got.spec == sk.countsketch(got.SA.shape[0], seed=7, fold=got.drawn)
        assert np.array_equal(got.SA, sk.apply(got.spec, A))
        assert got.sd_hat == min(statdim.sd_by_gram(got.SA, lam), 50.0)
        # one draw, read at several of its folds
        assert applies == [sk.countsketch(got.drawn, seed=7)] and got.levels > 1

    def test_cap_bounds_estimate_and_size(self):
        A, _ = problems.generate_problem(3000, 50, 2, kind="flat")
        got = statdim.sd_from_sketch(A, 1e-6, lambda s: 4 * int(np.ceil(s)), 3.0, seed=1)
        # size(3) = 12 rows, and the fold's levels are 4, 8, 16
        assert got.sd_hat == 3.0 and got.SA.shape[0] == 16

    def test_second_rule_takes_a_level_of_the_same_draw(self):
        A, _ = problems.generate_problem(3000, 50, 1, kind="power")
        lam = problems.lambda_for_sd(A, 3.0, 8.0)

        def size(s):
            return sk.recommend_sizes(sk.SizePolicy(), s, 0.5, "lowrank_S")

        base = statdim.sd_from_sketch(A, lam, size, 50.0, seed=7)
        m = base.SA.shape[0]
        assert base.SA2 is None and 2 * m <= base.drawn
        got = statdim.sd_from_sketch(A, lam, size, 50.0, seed=7, second=lambda s: m + 1)
        assert np.array_equal(got.SA, base.SA) and got.spec == base.spec
        assert np.array_equal(got.SA2, sk.apply(sk.countsketch(2 * m, seed=7, fold=got.drawn), A))
        assert np.array_equal(sk.halve(got.SA2), got.SA)
        # a rule at or below S's rows takes S's own level, one above the draw none
        same = statdim.sd_from_sketch(A, lam, size, 50.0, seed=7, second=lambda s: 1)
        assert same.SA2 is same.SA
        longer = statdim.sd_from_sketch(A, lam, size, 50.0, seed=7, second=lambda s: got.drawn + 1)
        assert longer.SA2 is None

    @staticmethod
    def every_level_at_once(A, lam, size, cap, seed, second):
        """sd_from_sketch's choice of levels, read off every level of the
        draw held at once, each the apply of its own folded spec."""
        m0, M = size(1.0), size(1.0)
        while M < size(cap) and 2 * M < A.shape[0]:
            M *= 2
        rows = [m0 << j for j in range((M // m0).bit_length())]
        levels = [sk.apply(sk.countsketch(r, seed, fold=M), A) for r in rows]
        sds = []
        for i, SA in enumerate(levels):
            sds.append(float(min(statdim.sd_by_gram(SA, lam), cap)))
            if i == 1 and size(max(sds)) <= m0:
                i = 0
            elif size(sds[i]) > rows[i] or (i == 0 and M > m0):
                continue
            SA2 = next((L for L in levels[i:] if second and L.shape[0] >= second(sds[i])), None)
            return levels[i], sds[i], len(sds), SA2

    @pytest.mark.parametrize("target", [0.3, 1.5, 3.0, 6.0, 12.0])
    @pytest.mark.parametrize("cap,second", [
        (12.0, None), (12.0, 1), (12.0, 9), (12.0, 17), (12.0, 33), (12.0, 65),
        (1.0, 5), (2.0, 5), (3.0, 5), (3.0, 9),
    ])
    def test_packed_levels_equal_every_level_held_at_once(self, target, cap, second):
        # levels 4, 8, ..., M = 64 at cap 12 (M = 16 at cap 3, where M/2 is
        # the second level); every level read or returned is the apply of
        # its folded spec, whether it sat in the packed buffer, was halved
        # again from the draw, or was the draw itself
        A, _ = problems.generate_problem(2000, 30, 4, kind="geometric")
        lam = self.lam_for(statdim.singular_values(A), target)

        def size(s):
            return 4 * int(np.ceil(s))

        rule = None if second is None else (lambda s: second)
        got = statdim.sd_from_sketch(A, lam, size, cap, seed=3, second=rule)
        SA, sd_hat, levels, SA2 = self.every_level_at_once(A, lam, size, cap, 3, rule)
        assert np.array_equal(got.SA, SA) and got.sd_hat == sd_hat and got.levels == levels
        assert got.spec == sk.countsketch(SA.shape[0], 3, fold=got.drawn)
        assert (got.SA2 is None) == (SA2 is None)
        if SA2 is not None:
            assert np.array_equal(got.SA2, SA2)
            assert got.SA2.base is None and got.SA.base is None

    def test_holds_about_one_and_a_half_draws(self):
        # the M-row draw and one M/2-row buffer of the levels below it, where
        # every level at once is about 2 M rows
        A = la.make_rng(8).standard_normal((10_000, 100))

        def size(s):
            return 1000 * int(np.ceil(s))

        statdim.sd_from_sketch(A[:4000], 1.0, size, 8.0, seed=2)
        tracemalloc.start()
        try:
            got = statdim.sd_from_sketch(A, 1.0, size, 8.0, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.drawn == 8000
        draw = 8 * got.drawn * A.shape[1]
        assert peak < 1.6 * draw

    def test_reaching_n_gives_exact_value(self):
        A, _ = problems.generate_problem(60, 20, 3, kind="flat")
        got = statdim.sd_from_sketch(A, 0.01, lambda s: 1000, 20.0)
        assert got.spec.variant == "identity"
        assert got.sd_hat == statdim.sd_exact(A, 0.01)

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ValueError):
            statdim.sd_from_sketch(np.eye(3), 0.0, lambda s: 1, 3.0)

    def test_rejects_a_size_rule_of_no_rows(self):
        # the fold doubles size(1) up to size(cap): from 0 rows it never would
        with pytest.raises(ValueError):
            statdim.sd_from_sketch(np.eye(3), 1.0, lambda s: 0 if s <= 1 else 2, 3.0)
