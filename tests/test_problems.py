import numpy as np
import pytest
import scipy.sparse

from regsketch import problems, statdim


def _singular_values(A):
    return np.linalg.svd(np.asarray(A), compute_uv=False)


def test_flat_spectrum_equal_singular_values():
    A, _ = problems.generate_problem(40, 10, seed=0, kind="flat", noise=0.0)
    s = _singular_values(A)
    assert np.max(s) - np.min(s) <= 1e-10 * np.max(s)


def test_geometric_spectrum_halves():
    s = problems.spectrum("geometric", 10, 0.5)
    np.testing.assert_allclose(s, s[0] * 0.5 ** np.arange(10), atol=1e-10)
    A, _ = problems.generate_problem(60, 10, seed=1, kind="geometric", noise=0.0)
    np.testing.assert_allclose(_singular_values(A), s, atol=1e-10 * s[0])


def test_power_spectrum_decay():
    s = problems.spectrum("power", 5, 1.0)
    np.testing.assert_allclose(s, 1.0 / np.arange(1.0, 6.0), atol=1e-12)


def test_sparse_density_within_ten_percent():
    A, _ = problems.generate_problem(400, 300, seed=2, density=0.05)
    assert scipy.sparse.issparse(A)
    expected = 0.05 * 400 * 300
    assert abs(A.nnz - expected) <= 0.10 * expected


def test_seed_determinism():
    A1, b1 = problems.generate_problem(30, 8, seed=7)
    A2, b2 = problems.generate_problem(30, 8, seed=7)
    np.testing.assert_array_equal(np.asarray(A1), np.asarray(A2))
    np.testing.assert_array_equal(b1, b2)
    A3, _ = problems.generate_problem(30, 8, seed=8)
    assert not np.array_equal(np.asarray(A1), np.asarray(A3))


def test_unknown_spectrum_rejected():
    with pytest.raises(ValueError):
        problems.generate_problem(10, 5, seed=0, kind="zigzag")


def test_lambda_for_sd_hits_target_band():
    A, _ = problems.generate_problem(200, 30, seed=3)
    lam = problems.lambda_for_sd(A, 3.0, 8.0)
    assert 3.0 <= statdim.sd_exact(A, lam) <= 8.0


def _lambda_for_sd_svd_per_step(A, target_lo, target_hi):
    # the bisection with a full SVD of A at every step
    mid = 0.5 * (target_lo + target_hi)
    lo, hi = 1e-12, 1e12
    for _ in range(200):
        lam = np.sqrt(lo * hi)
        val = statdim.sd_exact(A, lam)
        if target_lo <= val <= target_hi:
            return float(lam)
        if val > mid:
            lo = lam
        else:
            hi = lam
    return float(np.sqrt(lo * hi))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("kind", ["geometric", "power"])
def test_lambda_for_sd_matches_svd_per_step(seed, kind):
    A, _ = problems.generate_problem(300, 40, seed=seed, kind=kind)
    assert problems.lambda_for_sd(A, 3.0, 8.0) == _lambda_for_sd_svd_per_step(A, 3.0, 8.0)
