import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from regsketch import la, ridge
from regsketch import sketch as sk

VARIANTS = ["countsketch", "osnap", "srht", "gaussian"]


def _hash_and_signs(m, n, seed):
    """The hash and the signs of countsketch(m, seed) at n input rows: column
    0 of its `sk._tables`."""
    rows, signs, _ = sk._tables(sk.countsketch(m, seed=seed), n)
    return rows[:, 0], signs[:, 0]


def find_injective_countsketch_seed(m, n):
    """Seed whose hash table is a permutation (injective for m = n)."""
    for seed in range(20000):
        h, _ = _hash_and_signs(m, n, seed)
        if len(set(h.tolist())) == n:
            return seed
    raise AssertionError("no injective hash seed found")


class TestApply:
    def test_identity_exact(self):
        rng = la.make_rng(0)
        A = rng.standard_normal((6, 3))
        assert np.array_equal(sk.apply(sk.identity(), A), A)

    def test_countsketch_signed_permutation(self):
        # injective hash => SA is a row permutation with sign flips
        n = 6
        seed = find_injective_countsketch_seed(n, n)
        rng = la.make_rng(1)
        A = rng.standard_normal((n, 4))
        SA = sk.apply(sk.countsketch(n, seed=seed), A)
        assert abs(np.linalg.norm(SA) - np.linalg.norm(A)) == 0.0
        h, s = _hash_and_signs(n, n, seed)
        for i in range(n):
            np.testing.assert_array_equal(SA[h[i]], s[i] * A[i])

    def test_countsketch_isometry_in_expectation(self):
        x = np.array([[1.0], [2.0], [3.0]])
        target = 14.0
        total = 0.0
        runs = 10_000
        for seed in range(runs):
            Sx = sk.apply(sk.countsketch(2, seed=seed), x)
            total += float(np.sum(Sx**2))
        assert abs(total / runs - target) <= 0.02 * target

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_sparse_dense_agree(self, variant):
        rng = la.make_rng(2)
        A = rng.standard_normal((50, 8)) * (rng.random((50, 8)) < 0.3)
        spec = getattr(sk, variant)(10, seed=3)
        np.testing.assert_allclose(
            sk.apply(spec, scipy.sparse.csr_matrix(A)), sk.apply(spec, A), atol=1e-12
        )

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_right_side_is_transpose_of_left(self, variant):
        rng = la.make_rng(3)
        A = rng.standard_normal((9, 40))
        left = sk.apply(getattr(sk, variant)(7, seed=5), A.T)
        right = sk.apply(getattr(sk, variant)(7, seed=5, side="right"), A)
        np.testing.assert_allclose(right, left.T, atol=1e-12)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_right_side_equals_left_of_row_major_transpose(self, variant):
        # 600 x 300 spans two row blocks; the blocked right sketch must give
        # the very sums of the left sketch of a row-major copy of A'
        rng = la.make_rng(21)
        A = rng.standard_normal((600, 300)) * (rng.random((600, 300)) < 0.2)
        assert len(la.row_blocks(*A.shape)) > 1
        left = getattr(sk, variant)(40, seed=6)
        right = getattr(sk, variant)(40, seed=6, side="right")
        C = scipy.sparse.csr_matrix(A)
        for X, XT in ((A, np.ascontiguousarray(A.T)), (C, C.T.tocsr())):
            got = sk.apply(right, X)
            assert got.flags.c_contiguous
            assert np.array_equal(got, sk.apply(left, XT).T)

    def test_right_countsketch_copies_no_full_transpose(self):
        A = la.make_rng(22).standard_normal((4000, 1000))
        spec = sk.countsketch(100, seed=1, side="right")
        sk.apply(spec, A[:8])  # warm up imports and caches outside the trace
        tracemalloc.start()
        try:
            out = sk.apply(spec, A)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (4000, 100)
        assert peak < A.nbytes / 4

    @pytest.mark.parametrize("variant", ["countsketch", "osnap"])
    def test_column_major_input_is_sketched_by_column_blocks(self, variant):
        # the transpose of a wide input, as the wide low-rank solve passes
        # it: the sums of the row-major apply, without a row-major copy of A
        X = la.make_rng(24).standard_normal((500, 2000))
        spec = getattr(sk, variant)(96, seed=2)
        want = sk.apply(spec, np.ascontiguousarray(X.T))
        sk.apply(spec, X[:8].T)  # warm up imports and caches outside the trace
        tracemalloc.start()
        try:
            got = sk.apply(spec, X.T)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(la.row_blocks(X.shape[0], sk.COLUMN_BLOCK_DIVISOR * X.shape[1])) > 1
        assert got.flags.c_contiguous and np.array_equal(got, want)
        assert peak < X.nbytes / 8

    def test_countsketch_matches_reference_loop(self):
        # a colliding hash: rows that share a bucket are summed in row order
        n, m = 200, 7
        h, sgn = _hash_and_signs(m, n, 4)
        assert len(set(h.tolist())) < n
        rng = la.make_rng(19)
        A = rng.standard_normal((n, 5)) * (rng.random((n, 5)) < 0.5)
        ref = np.zeros((m, 5))
        for i in range(n):
            ref[h[i]] += sgn[i] * A[i]
        spec = sk.countsketch(m, seed=4)
        assert np.array_equal(sk.apply(spec, A), ref)
        assert np.array_equal(sk.apply(spec, scipy.sparse.csr_matrix(A)), ref)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_gaussian_blocks_equal_the_whole_matrix_product(self, side):
        # a 629 x 5000 S is drawn in three uneven row blocks, each from the
        # same stream as the whole S
        A = la.make_rng(23).standard_normal((5000, 40))
        spec = sk.gaussian(629, seed=7, side=side)
        assert 629 // (sk.GAUSSIAN_BLOCK_ENTRIES // 5000) == 3
        S = la.make_rng(7).standard_normal((629, 5000)) / np.sqrt(629)
        if side == "left":
            assert np.array_equal(sk.apply(spec, A), S @ A)
        else:
            AT = np.ascontiguousarray(A.T)
            assert np.array_equal(sk.apply(spec, AT), np.ascontiguousarray((S @ A).T))

    def test_gaussian_never_forms_the_whole_matrix(self):
        # a 256 x 65536 S is 134 MB; the blocked apply holds a block of it
        m, n = 256, 65536
        A = la.make_rng(24).standard_normal((n, 4))
        spec = sk.gaussian(m, seed=2)
        tracemalloc.start()
        try:
            out = sk.apply(spec, A)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (m, 4)
        assert peak < m * n * 8 / 4

    def test_osnap_column_count(self):
        spec = sk.osnap(32, seed=1)
        assert spec.osnap_s() == 5
        A = la.make_rng(4).standard_normal((100, 3))
        assert sk.apply(spec, A).shape == (32, 3)

    def test_osnap_columns_have_unit_norm(self):
        # s nonzeros of magnitude 1/sqrt(s) in s distinct rows per column
        S = sk.apply(sk.osnap(64, seed=0), np.eye(2000))
        np.testing.assert_allclose(np.linalg.norm(S, axis=0), 1.0, rtol=0, atol=1e-12)
        assert np.all(np.count_nonzero(S, axis=0) == sk.osnap(64).osnap_s())

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sk.apply(sk.srht(64, seed=0), np.zeros((32, 2)))  # m > n

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("variant", VARIANTS + ["identity", "composed"])
    def test_several_inputs_equal_their_own_calls(self, variant, side):
        # a dense matrix, a CSR matrix and a single column, one call
        rng = la.make_rng(5)
        n = 300
        inputs = [
            rng.standard_normal((n, 7)),
            scipy.sparse.random(n, 5, density=0.2, format="csr", random_state=1),
            rng.standard_normal((n, 1)),
        ]
        if side == "right":
            inputs = [M.T.tocsr() if scipy.sparse.issparse(M) else M.T for M in inputs]
        if variant == "composed":
            spec = sk.compose(sk.countsketch(40, seed=2, side=side), sk.osnap(120, seed=3, side=side))
        elif variant == "identity":
            spec = sk.identity(side=side)
        else:
            spec = sk.SketchSpec(variant, m=64, seed=4, side=side)
        outs = sk.apply(spec, *inputs)
        assert len(outs) == len(inputs)
        for M, out in zip(inputs, outs):
            alone = sk.apply(spec, M)
            assert np.array_equal(la.as_dense(out), la.as_dense(alone))

    @pytest.mark.parametrize("variant", ["countsketch", "osnap"])
    def test_several_inputs_draw_the_operator_once(self, variant, monkeypatch):
        # one draw of the tables per apply, and one CSC matrix at most, for
        # dense inputs, CSR inputs and either order of the two
        draws, builds = [], []
        tables, csc = sk._tables, sk._csc
        monkeypatch.setattr(sk, "_tables", lambda spec, n: draws.append(n) or tables(spec, n))
        monkeypatch.setattr(sk, "_csc", lambda *a: builds.append(1) or csc(*a))
        rng = la.make_rng(6)
        spec = sk.SketchSpec(variant, m=32, seed=1)
        dense = rng.standard_normal((500, 4)), rng.standard_normal((500, 2))
        sparse = scipy.sparse.random(500, 3, density=0.2, format="csr", random_state=2)
        for inputs, csc_builds in [
            (dense, 1), ((sparse, sparse), 0), ((sparse, dense[0]), 1), ((dense[0], sparse), 1),
        ]:
            draws.clear()
            builds.clear()
            sk.apply(spec, *inputs)
            assert draws == [500] and len(builds) == csc_builds


class TestFwht:
    def test_matches_direct_hadamard(self):
        H = np.array([[1.0, 1], [1, -1]])
        H4 = np.kron(H, H)
        rng = la.make_rng(5)
        x = rng.standard_normal((4, 3))
        np.testing.assert_allclose(sk.fwht(x), H4 @ x, atol=1e-12)

    def test_involution_up_to_scale(self):
        rng = la.make_rng(6)
        x = rng.standard_normal((8, 2))
        np.testing.assert_allclose(sk.fwht(sk.fwht(x)) / 8.0, x, atol=1e-12)

    @staticmethod
    def _stacked_fwht(x):
        # the level-by-level form that builds each level with np.stack
        n = x.shape[0]
        h = 1
        while h < n:
            x = x.reshape(-1, 2, h, *x.shape[1:])
            a = x[:, 0] + x[:, 1]
            b = x[:, 0] - x[:, 1]
            x = np.stack([a, b], axis=1).reshape(n, *x.shape[3:])
            h *= 2
        return x

    @pytest.mark.parametrize("shape", [(1,), (2, 3), (16,), (64, 5), (256, 3, 2), (4096, 64)])
    def test_bit_identical_to_stacked_levels(self, shape):
        x = la.make_rng(7).standard_normal(shape)
        assert np.array_equal(sk.fwht(x), self._stacked_fwht(x))

    @pytest.mark.parametrize("n", [1, 2, 8, 1024])
    @pytest.mark.parametrize("cols", [None, 3])
    def test_matches_scipy_hadamard(self, n, cols):
        shape = (n,) if cols is None else (n, cols)
        x = la.make_rng(8).standard_normal(shape)
        np.testing.assert_allclose(sk.fwht(x), scipy.linalg.hadamard(n) @ x, rtol=0, atol=1e-12)


def _srht_padded_formula(A, m, seed):
    """The SRHT apply as three padded copies of A: the signed copy, its
    transform and its scaled transform."""
    Ad = la.as_dense(A)
    n = Ad.shape[0]
    N = 1 << (n - 1).bit_length() if n > 1 else 1
    rng = la.make_rng(seed)
    sgn = rng.integers(0, 2, size=n) * 2.0 - 1.0
    X = np.zeros((N,) + Ad.shape[1:])
    X[:n] = sgn[:, None] * Ad
    X = sk.fwht(X) / math.sqrt(N)
    rows = rng.choice(N, size=m, replace=False)
    return math.sqrt(N / m) * X[rows]


class TestSrht:
    @pytest.mark.parametrize("n", [1, 2, 300, 512, 1000])
    @pytest.mark.parametrize("sparse", [False, True])
    def test_bit_identical_to_the_padded_formula(self, n, sparse):
        rng = la.make_rng(9)
        A = rng.standard_normal((n, 6)) * (rng.random((n, 6)) < 0.4)
        X = scipy.sparse.csr_matrix(A) if sparse else A
        m = min(n, 40)
        assert np.array_equal(sk.apply(sk.srht(m, seed=4), X), _srht_padded_formula(A, m, 4))
        right = sk.apply(sk.srht(m, seed=4, side="right"), X.T)
        assert np.array_equal(right, _srht_padded_formula(A, m, 4).T)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_holds_one_padded_copy(self, sparse):
        # the signed input is written into the N x d buffer, the butterflies
        # run in it with one N/2-row temporary, and only the m sampled rows
        # are scaled: about 1.5 N d doubles, where the padded formula took
        # 3.0 N d (dense) and 4.0 N d (CSR, densified first)
        n, d, m = 60_000, 32, 256
        N = 65_536
        A = la.make_rng(10).standard_normal((n, d))
        X = scipy.sparse.csr_matrix(A) if sparse else A
        spec = sk.srht(m, seed=2)
        sk.apply(sk.srht(2, seed=2), X[:4])  # warm up imports outside the trace
        tracemalloc.start()
        try:
            sk.apply(spec, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * N * d * 8


def test_srht_isometry_monte_carlo():
    # ||SA||_F^2 / ||A||_F^2 within 1 +- 0.5 in >= 90% of 50 seeded trials
    rng = la.make_rng(7)
    A = rng.standard_normal((1024, 8))
    fro2 = float(np.sum(A * A))
    hits = 0
    for seed in range(50):
        SA = sk.apply(sk.srht(96, seed=seed), A)
        ratio = float(np.sum(SA * SA)) / fro2
        hits += 0.5 <= ratio <= 1.5
    assert hits >= 45


class TestCompose:
    def test_identity_compose_behaves_like_inner(self):
        rng = la.make_rng(8)
        A = rng.standard_normal((30, 4))
        s = sk.countsketch(10, seed=2)
        np.testing.assert_array_equal(
            sk.apply(sk.compose(sk.identity(), s), A), sk.apply(s, A)
        )

    def test_composed_equals_sequential_bit_exact(self):
        rng = la.make_rng(9)
        A = rng.standard_normal((5000, 20))
        s1 = sk.countsketch(256, seed=11)
        s2 = sk.srht(64, seed=12)
        seq = sk.apply(s2, sk.apply(s1, A))
        comp = sk.apply(sk.compose(s2, s1), A)
        assert np.array_equal(comp, seq)

    def test_associativity(self):
        rng = la.make_rng(10)
        A = rng.standard_normal((512, 6))
        s1 = sk.countsketch(128, seed=1)
        s2 = sk.srht(64, seed=2)
        s3 = sk.gaussian(16, seed=3)
        left = sk.apply(sk.compose(sk.compose(s3, s2), s1), A)
        right = sk.apply(sk.compose(s3, sk.compose(s2, s1)), A)
        assert np.array_equal(left, right)

    def test_side_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sk.compose(sk.countsketch(4, side="right"), sk.countsketch(8))
        # a spec read from JSON meets the same check, at every depth
        right = {"variant": "countsketch", "m": 8, "side": "right"}
        for inner in ([right], [{"variant": "composed", "inner": [right]}]):
            with pytest.raises(ValueError, match="side"):
                sk.SketchSpec.from_json(json.dumps({"variant": "composed", "inner": inner}))


def test_countsketch_update_count_bounded_by_nnz():
    # the operator has one +-1 per column, at row h[i], so S @ A does exactly
    # nnz(A) multiply-adds
    n, m = 200, 40
    h, sgn = _hash_and_signs(m, n, 1)
    S = sk._operator(sk.countsketch(m, seed=1), n)
    assert S.shape == (m, n) and S.nnz == n
    assert np.array_equal(S.indptr, np.arange(n + 1))
    assert np.array_equal(S.indices, h)
    assert np.array_equal(S.data, sgn) and np.all(np.abs(S.data) == 1.0)
    rng = la.make_rng(11)
    A = scipy.sparse.csr_matrix(rng.standard_normal((n, 30)) * (rng.random((n, 30)) < 0.1))
    rows_of_entries = np.repeat(np.arange(n), np.diff(A.indptr))
    assert int(np.sum(np.diff(S.indptr)[rows_of_entries])) == A.nnz
    assert np.array_equal(sk.apply(sk.countsketch(m, seed=1), A), (S @ A).toarray())


def test_osnap_operator_has_one_entry_per_block():
    # s entries of +-1/sqrt(s) per column, one in each block of m // s rows
    n, m = 300, 64
    spec = sk.osnap(m, seed=2)
    s = spec.osnap_s()
    S = sk._operator(spec, n)
    assert S.shape == (m, n) and S.nnz == s * n
    assert np.array_equal(S.indptr, np.arange(0, s * n + 1, s))
    blocks = S.indices.reshape(n, s) // (m // s)
    assert np.array_equal(blocks, np.broadcast_to(np.arange(s), (n, s)))
    assert np.all(np.abs(S.data) == 1.0 / np.sqrt(s))


def _int64_operator(spec, n):
    """`sk._operator` of a CountSketch or OSNAP spec as drawn and built in
    int64: the draws `rng.integers(0, m, size=n)` and
    `rng.integers(0, 2, size=n) * 2.0 - 1.0`, and int64 index arrays."""
    rng = la.make_rng(spec.seed)
    m = spec.m
    if spec.variant == "countsketch":
        h = rng.integers(0, m, size=n)
        sgn = rng.integers(0, 2, size=n) * 2.0 - 1.0
        return scipy.sparse.csc_array((sgn, h, np.arange(n + 1)), shape=(m, n))
    s = spec.osnap_s()
    block = m // s
    rows = np.empty((n, s), dtype=np.int64)
    vals = np.empty((n, s))
    for j in range(s):
        rows[:, j] = j * block + rng.integers(0, block, size=n)
        vals[:, j] = rng.integers(0, 2, size=n) * 2.0 - 1.0
    vals *= 1.0 / math.sqrt(s)
    indptr = np.arange(0, s * n + 1, s)
    return scipy.sparse.csc_array((vals.ravel(), rows.ravel(), indptr), shape=(m, n))


CHUNK_EDGES = [sk.SIGN_CHUNK - 1, sk.SIGN_CHUNK, sk.SIGN_CHUNK + 1, 3 * sk.SIGN_CHUNK + 5]


class TestThirtyTwoBitDraws:
    """The tables hold narrow hashes (uint8 up to 2^8 rows, uint16 up to
    2^16, int32 above) and int8 signs, drawn from the same stream as the
    int64 draws, in chunks of int32 values: the same values, so the same
    sketch."""

    @pytest.mark.parametrize("m", [1, 2, 6, 654, 1 << 20])
    @pytest.mark.parametrize("n", [999, 1000] + CHUNK_EDGES)
    @pytest.mark.parametrize("seed", [0, 1, 17])
    def test_tables_equal_the_int64_draws(self, m, n, seed):
        # at m = 1 the hash draw takes nothing from the stream, so the signs
        # start where it starts
        h, sgn = _hash_and_signs(m, n, seed)
        S = _int64_operator(sk.countsketch(m, seed=seed), n)
        assert h.dtype == {654: np.uint16, 1 << 20: np.int32}.get(m, np.uint8) and sgn.dtype == np.int8
        assert np.array_equal(h, S.indices) and np.array_equal(sgn, S.data)

    @pytest.mark.parametrize("n", [1, 999] + CHUNK_EDGES)
    def test_sign_chunks_leave_the_stream_where_one_draw_does(self, n):
        rng, rng64 = la.make_rng(9), la.make_rng(9)
        sgn = np.empty(n, dtype=np.int8)
        sk._draw_signs(rng, sgn)
        assert np.array_equal(sgn, rng64.integers(0, 2, size=n) * 2.0 - 1.0)
        assert rng.integers(0, 2**63 - 1) == rng64.integers(0, 2**63 - 1)

    @pytest.mark.parametrize("m,s", [(64, 0), (100, 3), (2, 0)])
    @pytest.mark.parametrize("n", [999, sk.SIGN_CHUNK + 1])
    def test_osnap_tables_equal_the_int64_draws(self, m, s, n):
        spec = sk.osnap(m, s=s, seed=8)
        S64 = _int64_operator(spec, n)
        rows, signs, scale = sk._tables(spec, n)
        assert rows.dtype == np.uint8 and signs.dtype == np.int8
        assert scale == 1.0 / math.sqrt(spec.osnap_s())
        assert np.array_equal(rows.ravel(), S64.indices)
        assert np.array_equal(signs.ravel() * scale, S64.data)

    @pytest.mark.parametrize("m,s", [(64, 0), (100, 3), (7, 7)])
    def test_osnap_operator_equals_its_int64_twin(self, m, s):
        spec = sk.osnap(m, s=s, seed=8)
        S, S64 = sk._operator(spec, 999), _int64_operator(spec, 999)
        assert S.indices.dtype == S.indptr.dtype == np.int32
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(S, name), getattr(S64, name))

    def test_index_dtype_widens_past_int32(self):
        assert sk._index_dtype(2**31 - 1, 5) == np.int32
        assert sk._index_dtype(5, 2**31) == np.int64

    @pytest.mark.parametrize("variant", ["countsketch", "osnap"])
    def test_int64_indices_give_the_same_sketch(self, variant, monkeypatch):
        # past int32 the operator and the scatter's flat indices are int64
        rng = la.make_rng(13)
        A = rng.standard_normal((500, 6)) * (rng.random((500, 6)) < 0.3)
        spec = getattr(sk, variant)(32, seed=2)
        want = [sk.apply(spec, X) for X in (A, scipy.sparse.csr_matrix(A))]
        monkeypatch.setattr(sk, "_index_dtype", lambda *maxima: np.int64)
        assert sk._operator(spec, 500).indices.dtype == np.int64
        for X, w in zip((A, scipy.sparse.csr_matrix(A)), want):
            assert np.array_equal(sk.apply(spec, X), w)

    @pytest.mark.parametrize("spec", [
        sk.countsketch(48, seed=3),
        sk.countsketch(12, seed=3, fold=96),
        sk.osnap(48, seed=3),
    ], ids=["countsketch", "folded", "osnap"])
    @pytest.mark.parametrize("sparse", [False, True])
    def test_apply_equals_the_int64_operator_product(self, spec, sparse):
        rng = la.make_rng(12)
        n, d = 3000, 9
        A = rng.standard_normal((n, d)) * (rng.random((n, d)) < 0.3)
        A[100:300] = 0.0
        X = scipy.sparse.csr_matrix(A) if sparse else A
        drawn = dataclasses.replace(spec, m=spec.fold or spec.m, fold=0)
        want = la.as_dense(_int64_operator(drawn, n) @ X)
        while want.shape[0] > spec.m:
            want = sk.halve(want)
        assert np.array_equal(sk.apply(spec, X), want)
        assert np.array_equal(sk.apply(dataclasses.replace(spec, side="right"), X.T), want.T)

    @staticmethod
    def _edge_input(n=5000, d=3):
        rng = la.make_rng(14)
        A = rng.standard_normal((n, d)) * (rng.random((n, d)) < 0.3)
        A[100:300] = 0.0
        return A

    HASH_DTYPES = {1 << 8: np.uint8, (1 << 8) + 1: np.uint16, 1 << 16: np.uint16, (1 << 16) + 1: np.int32}

    @pytest.mark.parametrize("m", sorted(HASH_DTYPES))
    @pytest.mark.parametrize("variant", ["countsketch", "osnap"])
    def test_csr_apply_at_the_hash_dtype_edges(self, m, variant):
        # uint8 hashes up to 2^8 rows, uint16 up to 2^16 and int32 above
        A = self._edge_input()
        X = scipy.sparse.csr_matrix(A)
        spec = getattr(sk, variant)(m, seed=3)
        assert sk._tables(spec, A.shape[0])[0].dtype == self.HASH_DTYPES[m]
        want = (_int64_operator(spec, A.shape[0]) @ X).toarray()
        assert np.array_equal(sk.apply(spec, X), want)
        assert np.array_equal(sk.apply(dataclasses.replace(spec, side="right"), X.T), want.T)

    @pytest.mark.parametrize("m", [48, (1 << 8) + 1, (1 << 16) + 1])
    @pytest.mark.parametrize("variant", ["countsketch", "osnap"])
    def test_csr_then_dense_share_one_draw(self, m, variant, monkeypatch):
        # the CSR input draws the narrow tables; the dense one after it
        # widens their rows into the CSC matrix instead of drawing again
        A = self._edge_input()
        spec = getattr(sk, variant)(m, seed=3)
        want = _int64_operator(spec, A.shape[0]) @ A
        draws, tables = [], sk._tables
        monkeypatch.setattr(sk, "_tables", lambda spec, n: draws.append(n) or tables(spec, n))
        got_csr, got_dense = sk.apply(spec, scipy.sparse.csr_matrix(A), A)
        assert draws == [A.shape[0]]
        assert np.array_equal(got_csr, want) and np.array_equal(got_dense, want)


def _csr_cases():
    rng = la.make_rng(31)
    A = rng.standard_normal((300, 7)) * (rng.random((300, 7)) < 0.3)
    A[10:40] = 0.0  # a run of empty rows
    long_row = np.zeros((5, 20_000))
    long_row[2] = rng.standard_normal(20_000)  # more than SCATTER_ENTRIES = 2^14 entries
    return {
        "empty_rows": scipy.sparse.csr_matrix(A),
        "all_zero": scipy.sparse.csr_matrix((50, 4)),
        "one_row": scipy.sparse.csr_matrix(rng.standard_normal((1, 6))),
        "m_above_n": scipy.sparse.csr_matrix(rng.standard_normal((10, 3))),
        "long_row": scipy.sparse.csr_matrix(long_row),
    }


def _apply_peak(spec, A):
    """The tracemalloc peak of apply(spec, A), in bytes."""
    sk.apply(spec, A[:100])  # warm up imports outside the trace
    tracemalloc.start()
    try:
        sk.apply(spec, A)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCsrScatter:
    """apply on a CSR input scatters from the drawn hash and sign tables; it
    must give the very sums of scipy's sparse x sparse product of the CSC
    operator built from them."""

    @pytest.mark.parametrize("case", sorted(_csr_cases()))
    @pytest.mark.parametrize("variant", ["countsketch", "osnap"])
    @pytest.mark.parametrize("scatter", [sk.SCATTER_ENTRIES, 24])
    def test_matches_operator_product(self, case, variant, scatter, monkeypatch):
        # with 24-product blocks, block boundaries fall inside rows
        monkeypatch.setattr(sk, "SCATTER_ENTRIES", scatter)
        A = _csr_cases()[case]
        n, d = A.shape
        m = 40 if case == "m_above_n" else 16
        left = getattr(sk, variant)(m, seed=5)
        right = getattr(sk, variant)(m, seed=5, side="right")
        got = sk.apply(left, A)
        assert isinstance(got, np.ndarray) and got.shape == (m, d)
        assert np.array_equal(got, (sk._operator(left, n) @ A).toarray())
        got = sk.apply(right, A)
        assert got.shape == (n, m)
        assert np.array_equal(got, (A @ sk._operator(left, d).T).toarray())

    @staticmethod
    def _csr_apply_peak(spec, n, d):
        rng = la.make_rng(41)
        per_row = 4
        A = scipy.sparse.csr_array((
            rng.standard_normal(per_row * n),
            rng.integers(0, d, size=per_row * n, dtype=np.int32),
            np.arange(0, per_row * n + 1, per_row, dtype=np.int32),
        ), shape=(n, d))
        return _apply_peak(spec, A)

    def test_countsketch_peak_below_8_bytes_per_input_row(self):
        # the tables are a uint16 hash and an int8 sign, 3 bytes per input
        # row, with no CSC matrix, and A's int32 indptr is searched without an
        # int64 copy: under 3 bytes per row in all, beside the output and the
        # block temporaries
        n, d, m = 200_000, 40, 500
        peak = self._csr_apply_peak(sk.countsketch(m, seed=3), n, d)
        assert peak < 3 * n + 8 * m * d + (1 << 20)

    def test_osnap_peak_below_48_bytes_per_input_row(self):
        # s = 9 uint16 rows and int8 signs per input row, 3 s = 27 bytes, and
        # no CSC matrix of 12 s + 4
        n, d, m = 200_000, 40, 500
        spec = sk.osnap(m, seed=3)
        assert spec.osnap_s() == 9
        peak = self._csr_apply_peak(spec, n, d)
        assert peak < 3 * spec.osnap_s() * n + 8 * m * d + (1 << 20)


class TestDenseWidening:
    """A dense input meets the CSC matrix that the apply call widens from the
    drawn tables, freeing them as it widens."""

    @staticmethod
    def _dense_apply_peak(spec, n, d):
        return _apply_peak(spec, la.make_rng(42).standard_normal((n, d)))

    def test_countsketch_peak_at_16_bytes_per_input_row(self):
        # the matrix's int32 hash and indptr and float64 signs: the narrow
        # hash is freed once widened, and the int8 signs once widened
        n, d, m = 1_000_000, 2, 500
        peak = self._dense_apply_peak(sk.countsketch(m, seed=3), n, d)
        assert peak < 16 * n + 8 * m * d + (1 << 20)

    def test_osnap_peak_at_13_s_bytes_per_input_row(self):
        # int32 rows and float64 signs, 12 s, beside the int8 signs while
        # they are widened
        n, d, m = 200_000, 2, 500
        spec = sk.osnap(m, seed=3)
        assert spec.osnap_s() == 9
        peak = self._dense_apply_peak(spec, n, d)
        assert peak < 13 * spec.osnap_s() * n + 8 * m * d + (1 << 20)


class TestFold:
    """countsketch(m, seed, fold=M): the M-row CountSketch halved down to m."""

    n, m, M = 300, 5, 40

    def inputs(self):
        rng = la.make_rng(23)
        A = rng.standard_normal((self.n, 7)) * (rng.random((self.n, 7)) < 0.4)
        return A, scipy.sparse.csr_matrix(A)

    def test_equals_the_countsketch_with_hash_mod_m(self):
        A, A_csr = self.inputs()
        h, sgn = _hash_and_signs(self.M, self.n, 6)
        ref = np.zeros((self.m, A.shape[1]))
        for i in range(self.n):
            ref[h[i] % self.m] += sgn[i] * A[i]
        atol = 1e-13 * np.abs(A).sum(axis=0).max()
        for M in (A, A_csr):
            got = sk.apply(sk.countsketch(self.m, seed=6, fold=self.M), M)
            np.testing.assert_allclose(got, ref, rtol=0, atol=atol)
            right = sk.apply(sk.countsketch(self.m, seed=6, side="right", fold=self.M), M.T)
            np.testing.assert_allclose(right, ref.T, rtol=0, atol=atol)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_bit_identical_to_halving_the_drawn_sketch(self, side):
        for M in self.inputs():
            M = M if side == "left" else M.T
            drawn = sk.apply(sk.countsketch(self.M, seed=6, side=side), M)
            for m in (self.M // 2, self.M // 4, self.m):
                drawn = sk.halve(drawn, side)
                assert np.array_equal(sk.apply(sk.countsketch(m, seed=6, side=side, fold=self.M), M), drawn)

    def test_json_round_trip(self):
        spec = sk.countsketch(12, seed=3, fold=96)
        assert json.loads(spec.to_json())["fold"] == 96
        assert sk.SketchSpec.from_json(spec.to_json()) == spec

    def test_no_fold_serializes_as_before(self):
        assert sk.countsketch(8, seed=3).to_json() == '{"variant": "countsketch", "m": 8, "seed": 3, "side": "left"}'
        assert sk.countsketch(8, seed=3, fold=8) == sk.countsketch(8, seed=3)

    @pytest.mark.parametrize("spec", [
        dict(variant="countsketch", m=8, fold=24),
        dict(variant="countsketch", m=8, fold=4),
        dict(variant="osnap", m=8, fold=16),
    ])
    def test_fold_must_halve_a_countsketch_to_m(self, spec):
        with pytest.raises(ValueError):
            sk.SketchSpec(**spec)

    def test_right_product_rejects_a_fold(self):
        with pytest.raises(ValueError):
            sk.right_product(sk.countsketch(4, side="right", fold=16), np.eye(4), 20)


class TestSpecSerialization:
    def test_json_round_trip(self):
        spec = sk.compose(sk.srht(64, seed=5), sk.osnap(256, s=4, seed=9))
        back = sk.SketchSpec.from_json(spec.to_json())
        assert back == spec

    def test_json_fields(self):
        obj = json.loads(sk.countsketch(8, seed=3).to_json())
        assert obj == {"variant": "countsketch", "m": 8, "seed": 3, "side": "left"}

    def test_invalid_variant_rejected(self):
        with pytest.raises(ValueError):
            sk.SketchSpec("wavelet", m=4)

    def test_osnap_sparsity_bounds(self):
        with pytest.raises(ValueError):
            sk.osnap(4, s=9)


class TestRecommendSizes:
    def test_zero_sd_clamps_to_one(self):
        assert sk.recommend_sizes(sk.SizePolicy(), 0.0, 0.5, "ridge_rows") == 1

    def test_ridge_rows_arithmetic(self):
        policy = sk.SizePolicy(k_sparse=2.0)
        # K (sd/eps + sd^2) = 2 (8 + 16) = 48
        assert sk.recommend_sizes(policy, 4.0, 0.5, "ridge_rows") == 48

    def test_cca_arithmetic(self):
        policy = sk.SizePolicy(k_subspace=1.0)
        # K sd^2 / eps^2 = 9 / 0.25 = 36
        assert sk.recommend_sizes(policy, 3.0, 0.5, "cca") == 36

    def test_monotone_in_sd_and_eps(self):
        policy = sk.SizePolicy()
        for purpose in ("ridge_rows", "subspace", "affine", "cca"):
            sizes = [sk.recommend_sizes(policy, s, 0.5, purpose) for s in (1, 2, 4, 8)]
            assert sizes == sorted(sizes)
            sizes = [sk.recommend_sizes(policy, 4, e, purpose) for e in (0.5, 0.25, 0.1)]
            assert sizes == sorted(sizes)

    @pytest.mark.parametrize(
        "name", [f.name for f in dataclasses.fields(sk.SizePolicy) if isinstance(f.default, (int, float))]
    )
    def test_every_constant_is_read_by_a_rule(self, name):
        # doubling a constant that no size rule reads would change no size
        doubled = dataclasses.replace(sk.SizePolicy(), **{name: 2 * getattr(sk.SizePolicy(), name)})
        assert any(
            sk.recommend_sizes(doubled, 10.0, 0.5, purpose, variant)
            != sk.recommend_sizes(sk.SizePolicy(), 10.0, 0.5, purpose, variant)
            for purpose in sk.PURPOSES
            for variant in VARIANTS
        )

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            sk.recommend_sizes(sk.SizePolicy(), -1.0, 0.5, "ridge_rows")
        with pytest.raises(ValueError):
            sk.recommend_sizes(sk.SizePolicy(), 1.0, 0.0, "ridge_rows")
        with pytest.raises(ValueError):
            sk.recommend_sizes(sk.SizePolicy(), 1.0, 0.5, "sorting")


@pytest.mark.parametrize(
    "check",
    [
        lambda spec, A: sk.check_subspace_embedding(spec, A, 0.5, trials=0),
        lambda spec, A: sk.check_affine_embedding(spec, A, A[:, :1], 0.5, trials=0),
        lambda spec, A: sk.check_ridge_conditions(spec, A, A[:, 0], 1.0, 0.5, trials=0),
    ],
    ids=["subspace", "affine", "ridge"],
)
def test_check_without_trials_is_an_error(check):
    # a check that ran no trial has no deviation to report, and must not pass
    A = la.make_rng(0).standard_normal((40, 3))
    with pytest.raises(ValueError, match="trials"):
        check(sk.countsketch(20, seed=0), A)


class TestSubspaceCheck:
    def test_identity_zero_deviation(self):
        rng = la.make_rng(12)
        A = rng.standard_normal((40, 5))
        rep = sk.check_subspace_embedding(sk.identity(), A, 0.5)
        assert rep.max_deviation == 0.0 and rep.passed

    def test_gaussian_passes(self):
        rng = la.make_rng(13)
        A = rng.standard_normal((1000, 5))
        rep = sk.check_subspace_embedding(sk.gaussian(400, seed=1), A, 0.5, trials=20)
        assert rep.pass_fraction >= 0.9

    def test_rank_starved_sketch_fails(self):
        # SA has <= 2 nonzero singular values for a rank-5 range: deviation 1
        rng = la.make_rng(14)
        A = rng.standard_normal((50, 5))
        rep = sk.check_subspace_embedding(sk.countsketch(2, seed=1), A, 0.5, trials=5)
        assert not rep.passed
        assert min(rep.deviations) >= 1.0 - 1e-12


class TestAffineCheck:
    def test_identity_zero_deviation(self):
        rng = la.make_rng(15)
        A = rng.standard_normal((30, 4))
        B = rng.standard_normal((30, 2))
        rep = sk.check_affine_embedding(sk.identity(), A, B, 0.5)
        assert rep.max_deviation == 0.0 and rep.passed

    def test_policy_sized_countsketch_passes(self):
        rng = la.make_rng(16)
        U = np.linalg.qr(rng.standard_normal((200, 3)))[0]
        A = U @ rng.standard_normal((3, 6))  # rank 3
        B = rng.standard_normal((200, 2))
        m = int(np.ceil(sk.SizePolicy().k_affine * 9 / 0.25))
        rep = sk.check_affine_embedding(sk.countsketch(m, seed=2), A, B, 0.5, trials=20)
        assert rep.pass_fraction >= 0.9

    def test_single_row_sketch_fails(self):
        rng = la.make_rng(17)
        U = np.linalg.qr(rng.standard_normal((40, 3)))[0]
        A = U @ rng.standard_normal((3, 5))
        rep = sk.check_affine_embedding(sk.countsketch(1, seed=3), A, A, 0.5, trials=5)
        assert not rep.passed


class TestRidgeConditions:
    def setup_method(self):
        rng = la.make_rng(18)
        self.A = rng.standard_normal((500, 5))
        self.b = rng.standard_normal(500)
        self.lam = 5.0

    def test_identity_zero_deviation(self):
        gram, vec = sk.check_ridge_conditions(sk.identity(), self.A, self.b, self.lam, 0.5)
        assert gram.max_deviation <= 1e-12
        assert vec.max_deviation <= 1e-12

    def test_gaussian_passes(self):
        s = np.linalg.svd(self.A, compute_uv=False)
        sd = float(np.sum(s**2 / (s**2 + self.lam)))
        m = int(np.ceil(10 * sd / 0.1))
        gram, vec = sk.check_ridge_conditions(
            sk.gaussian(m, seed=4), self.A, self.b, self.lam, 0.1, trials=20
        )
        assert gram.pass_fraction >= 0.9
        assert vec.pass_fraction >= 0.9

    def test_vec_threshold_from_exact_objective(self):
        eps = 0.5
        _, vec = sk.check_ridge_conditions(sk.identity(), self.A, self.b, self.lam, eps)
        exact = ridge.solve_exact(ridge.RidgeProblem(self.A, self.b, self.lam))
        assert abs(vec.threshold - np.sqrt(eps * exact.objective / 2)) <= 1e-10

    def test_rank_one_sketch_fails_gram(self):
        gram, _ = sk.check_ridge_conditions(
            sk.countsketch(1, seed=5), self.A, self.b, self.lam, 0.5, trials=5
        )
        assert not gram.passed
        assert gram.max_deviation > 0.25
