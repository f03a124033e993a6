import numpy as np
import pytest
import scipy.io
import scipy.sparse

from regsketch import la


class TestLambdaQr:
    def test_column_lambda_zero(self):
        f = la.lambda_qr(np.array([[1.0], [0.0]]), 0.0)
        np.testing.assert_allclose(f.R, [[1.0]])
        np.testing.assert_allclose(f.Q, [[1.0], [0.0]])

    def test_column_lambda_one(self):
        # R = sqrt(2), Q = (1/sqrt 2, 0); Q'Q + lam R^-T R^-1 = 1/2 + 1/2 = 1
        f = la.lambda_qr(np.array([[1.0], [0.0]]), 1.0)
        np.testing.assert_allclose(f.R, [[np.sqrt(2)]])
        np.testing.assert_allclose(f.Q, [[1 / np.sqrt(2)],[0.0]])
        Rinv = np.linalg.inv(f.R)
        np.testing.assert_allclose(f.Q.T @ f.Q + 1.0 * Rinv.T @ Rinv, [[1.0]], atol=1e-12)

    def test_gram_identity(self):
        rng = la.make_rng(5)
        A = rng.standard_normal((12, 4))
        lam = 0.7
        f = la.lambda_qr(A, lam)
        lhs = f.R.T @ f.R
        rhs = A.T @ A + lam * np.eye(4)
        assert np.linalg.norm(lhs - rhs) <= 1e-9 * (np.linalg.norm(A) ** 2 + lam * 4)

    def test_q_identity_fact(self):
        rng = la.make_rng(6)
        A = rng.standard_normal((15, 5))
        lam = 0.3
        f = la.lambda_qr(A, lam)
        Rinv = np.linalg.inv(f.R)
        dev = np.linalg.norm(f.Q.T @ f.Q + lam * Rinv.T @ Rinv - np.eye(5))
        assert dev <= 1e-8

    def test_q_frobenius_matches_spectral_sum(self):
        # ||Q||_F^2 equals sum sigma_i^2/(sigma_i^2+lam), computed independently
        rng = la.make_rng(7)
        A = rng.standard_normal((20, 5))
        lam = 0.3
        f = la.lambda_qr(A, lam)
        s = np.linalg.svd(A, compute_uv=False)
        expected = float(np.sum(s**2 / (s**2 + lam)))
        assert abs(np.sum(f.Q**2) - expected) <= 1e-8


class TestGram:
    @staticmethod
    def _sparse(shape, seed):
        rng = la.make_rng(seed, 5)
        return rng.standard_normal(shape) * (rng.random(shape) < 0.2)

    @pytest.mark.parametrize("shape", [(3000, 7), (40, 300)])
    @pytest.mark.parametrize("block", [la.BLOCK_ENTRIES, 256])
    def test_csr_matches_dense(self, shape, block, monkeypatch):
        # a 256-entry block splits both shapes into many row blocks
        monkeypatch.setattr(la, "BLOCK_ENTRIES", block)
        A = self._sparse(shape, 1)
        rng = la.make_rng(2, 5)
        b, B = rng.standard_normal(shape[0]), rng.standard_normal((shape[0], 3))
        C = self._sparse((shape[0], 4), 3)
        for got, want in (
            (la.gram(scipy.sparse.csr_matrix(A)), A.T @ A),
            (la.gram(scipy.sparse.csr_array(A), b), A.T @ b),
            (la.gram(scipy.sparse.csr_matrix(A), B), A.T @ B),
            (la.gram(scipy.sparse.csr_matrix(A), scipy.sparse.csr_matrix(C)), A.T @ C),
        ):
            assert isinstance(got, np.ndarray) and got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())

    @pytest.mark.parametrize("shape", [(3000, 7), (40, 300)])
    def test_dense_is_numpy_product(self, shape):
        A = self._sparse(shape, 4)
        B = la.make_rng(6).standard_normal((shape[0], 2))
        assert np.array_equal(la.gram(A), A.T @ A)
        assert np.array_equal(la.gram(A.T), A @ A.T)
        assert np.array_equal(la.gram(A, B), A.T @ B)

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            la.gram(scipy.sparse.csr_matrix(np.eye(4)), np.ones((3, 2)))


class TestMatrixMarket:
    def test_coordinate_single_entry(self, tmp_path):
        path = tmp_path / "one.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 3.5\n"
        )
        M = la.read_matrix_market(path)
        assert scipy.sparse.issparse(M)
        assert M.nnz == 1
        assert M[0, 0] == 3.5

    def test_array_dense(self, tmp_path):
        path = tmp_path / "col.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n2 1\n1.5\n-2.0\n")
        M = la.read_matrix_market(path)
        assert isinstance(M, np.ndarray)
        np.testing.assert_allclose(M, [[1.5], [-2.0]])

    def test_sparse_round_trip_bit_identical(self, tmp_path):
        rng = la.make_rng(9)
        dense = rng.standard_normal((100, 50)) * (rng.random((100, 50)) < 0.05)
        M = scipy.sparse.csr_matrix(dense)
        path = tmp_path / "rt.mtx"
        scipy.io.mmwrite(path, M, precision=17)
        back = la.read_matrix_market(path)
        assert back.shape == M.shape
        assert (back != M).nnz == 0  # bit-identical values

    def test_dense_round_trip_bit_identical(self, tmp_path):
        rng = la.make_rng(10)
        M = rng.standard_normal((7, 3))
        path = tmp_path / "dense.mtx"
        scipy.io.mmwrite(path, M, precision=17)
        back = la.read_matrix_market(path)
        assert np.array_equal(back, M)

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n")
        with pytest.raises(la.MatrixMarketError):
            la.read_matrix_market(path)

    @pytest.mark.parametrize(
        "text",
        [
            "%%MatrixMarket matrix array real general\n2 1\n1.0\n",
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 3.5\n",
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 3.5\n",
            "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 3.5\n",
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 3.5\n2 2 1.0\n",
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 abc\n",
            "",
            "2 2 1\n1 1 3.5\n",
            "%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 1 3\n",
            "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 1\n",
            "%%MatrixMarket matrix coordinate complex general\n2 2 1\n1 1 3 1\n",
            "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 1 3\n",
            # the format allows comments only before the size line
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n% late\n1 1 3.5\n",
            "%%MatrixMarket matrix array real general\n2 1\nnan\n1.0\n",
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 -inf\n",
            # mmread would read the first value of each line and drop the rest
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 3 1\n",
            "%%MatrixMarket matrix array real general\n2 1\n1 5\n2\n",
        ],
        ids=[
            "short-array", "zero-index", "index-out-of-bounds", "fewer-entries", "more-entries",
            "bad-value", "empty", "no-banner", "integer", "pattern", "complex", "symmetric",
            "comment-after-size", "array-nan", "coordinate-inf", "coordinate-extra-field",
            "array-extra-field",
        ],
    )
    def test_rejected(self, tmp_path, text):
        path = tmp_path / "bad.mtx"
        path.write_text(text)
        with pytest.raises(la.MatrixMarketError):
            la.read_matrix_market(path)

    def test_blank_lines_duplicates_and_upper_case_header(self, tmp_path):
        path = tmp_path / "loose.mtx"
        path.write_text(
            "%%MatrixMarket MATRIX COORDINATE REAL GENERAL\n% before the size line\n\n"
            "2 2 2\n\n1 1 3.5\n1 1 1.0\n"
        )
        M = la.read_matrix_market(path)
        assert isinstance(M, scipy.sparse.csr_array)
        assert M.nnz == 1 and M[0, 0] == 4.5


def test_rng_reproducibility():
    a = la.make_rng(42, 3).standard_normal((4, 4))
    b = la.make_rng(42, 3).standard_normal((4, 4))
    assert np.array_equal(a, b)
    c = la.make_rng(42, 4).standard_normal((4, 4))
    assert not np.array_equal(a, c)
