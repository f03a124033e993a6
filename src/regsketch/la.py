"""Dense/sparse linear-algebra substrate: SVD, lambda-QR, Gram products read
in row blocks, Matrix Market input (scipy.io's reader, real general files
only), and seeded randomness.

Matrices are plain numpy arrays (row-major float64) or scipy CSR arrays.
All factorizations are returned as small frozen dataclasses so downstream
code can rely on their invariants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.io
import scipy.linalg
import scipy.sparse


class LinAlgFailure(Exception):
    """SVD/QR did not converge; message carries condition diagnostics."""


class MatrixMarketError(ValueError):
    """Malformed or unsupported Matrix Market file; scipy's message names the line."""


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Deterministic generator for (seed, stream); identical draws on all platforms.

    Streams are split from the root seed, so independent tasks can derive
    non-overlapping generators from one configured seed.
    """
    ss = np.random.SeedSequence(entropy=int(seed) & (2**63 - 1), spawn_key=(int(stream),))
    return np.random.Generator(np.random.PCG64(ss))


def derive_seed(seed: int, stream: int) -> int:
    """A fresh 63-bit seed for a sub-task, derived from (seed, stream)."""
    return int(make_rng(seed, stream).integers(0, 2**63 - 1))


def derive_seeds(seed: int, first: int, count: int) -> list:
    """derive_seed(seed, stream) for the count streams first, first + 1, ..."""
    return [derive_seed(seed, first + i) for i in range(count)]


# Relative cutoff of the numerical rank: singular values (or pivoted-QR
# diagonals) at most RANK_RTOL times the largest count as zero.
RANK_RTOL = 1e-10
LAMBDA_QR_RANK_TOL = 1e-12  # R diagonal ratio at which lambda_qr flags R singular


def as_dense(A) -> np.ndarray:
    if scipy.sparse.issparse(A):
        return np.asarray(A.todense(), dtype=np.float64)
    return np.asarray(A, dtype=np.float64)


def nnz(A) -> int:
    """Stored-entry count: true nnz for sparse, full size for dense."""
    if scipy.sparse.issparse(A):
        return int(A.nnz)
    return int(np.asarray(A).size)


BLOCK_ENTRIES = 1 << 17  # entries of one row block: 1 MiB of float64


def row_blocks(n: int, width: int) -> list:
    """Slices of consecutive rows covering 0..n, each a block of about
    BLOCK_ENTRIES entries of an n x width matrix (at least one row)."""
    step = max(1, BLOCK_ENTRIES // max(width, 1))
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


def _csr_rows(A, rows: slice):
    """A[rows] of a CSR A as a CSR array sharing A's data, built from its
    arrays: scipy's own row slicing costs about five times as much."""
    p0, p1 = A.indptr[rows.start], A.indptr[rows.stop]
    return scipy.sparse.csr_array(
        (A.data[p0:p1], A.indices[p0:p1], A.indptr[rows.start : rows.stop + 1] - p0),
        shape=(rows.stop - rows.start, A.shape[1]),
    )


def gram(A, B=None) -> np.ndarray:
    """The dense product A'B, or the Gram A'A when B is None.

    A dense A gives A.T @ A or A.T @ B as numpy forms it. A sparse A is read
    in the row blocks of `row_blocks` (sized by the columns of B): each block
    adds blk' @ (that block of B, densified), so neither matrix is densified
    whole and no sparse x sparse product runs; the cost is nnz(A)
    multiply-adds per column of B.
    """
    if not scipy.sparse.issparse(A):
        return A.T @ (A if B is None else B)
    A = A.tocsr()
    if B is not None and B.shape[0] != A.shape[0]:
        raise ValueError("A and B must have equal row counts")
    if scipy.sparse.issparse(B):
        B = B.tocsr()
    elif B is not None:
        B = np.asarray(B, dtype=np.float64)
    shape = A.shape[1:] if B is None else B.shape[1:]
    out = np.zeros((A.shape[1],) + shape)
    for rows in row_blocks(A.shape[0], shape[0] if shape else 1):
        blk = _csr_rows(A, rows)
        if B is None:
            Bb = blk.toarray()
        elif scipy.sparse.issparse(B):
            Bb = _csr_rows(B, rows).toarray()
        else:
            Bb = B[rows]
        out += blk.T @ Bb
    return out


def gram_eigvalsh(G, n: int, d: int):
    """(w, delta): the eigenvalues w, ascending, of G, a computed Gram (A'A or
    AA') of an n x d matrix A, and a bound delta within which each w_i lies
    of the matching eigenvalue of the exact Gram: sigma_i(A)^2, or zero past
    min(n, d).

    The certificate. For G of order r, summed over the other dimension k of
    A (r + k = n + d), the computed G is off by at most gamma_k |A|'|A|
    entrywise (Higham, *Accuracy and Stability of Numerical Algorithms*,
    section 3.5), a matrix of 2-norm at most k * eps * trace(G); the bound
    holds for any order of summation, so for the row blocks. eigvalsh adds a
    backward error of a modest multiple of eps * ||G||_2, allowed
    r * eps * trace(G). By Weyl, each computed eigenvalue then lies within
    (n + d) * eps * trace(G) of its exact one. delta is twice that bound,
    which covers the rounding of trace(G) and leaves the eigensolver's
    unstated constant a factor of two.
    """
    w = np.linalg.eigvalsh(G)
    return w, 2.0 * (n + d) * np.finfo(np.float64).eps * float(np.trace(G))


def short_gram_eigvalsh(A):
    """`gram_eigvalsh` of the short-side Gram G of A: A'A when n >= d, AA'
    otherwise, r x r for r = min(n, d), a CSR A read in row blocks by `gram`."""
    n, d = A.shape
    return gram_eigvalsh(gram(A) if n >= d else gram(A.T), n, d)


@dataclass(frozen=True)
class SvdFactors:
    """A ~= U @ diag(sigma) @ V.T with orthonormal U, V columns."""

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.U * self.sigma) @ self.V.T


def svd(A) -> SvdFactors:
    """Thin SVD (r = min(n, d)) of a dense (or densified) matrix.

    Raises LinAlgFailure on non-convergence.
    """
    M = as_dense(A)
    if not np.all(np.isfinite(M)):
        raise ValueError("svd requires finite entries")
    try:
        U, s, Vt = np.linalg.svd(M, full_matrices=False)
    except np.linalg.LinAlgError:
        try:
            U, s, Vt = scipy.linalg.svd(M, full_matrices=False, lapack_driver="gesvd")
        except Exception as exc:  # pragma: no cover - rare LAPACK failure path
            fro = float(np.linalg.norm(M))
            raise LinAlgFailure(
                f"SVD failed to converge for {M.shape[0]}x{M.shape[1]} matrix "
                f"(frobenius={fro:.3e}, max|a_ij|={np.abs(M).max():.3e})"
            ) from exc
    return SvdFactors(U=U, sigma=s, V=Vt.T)


@dataclass(frozen=True)
class LambdaQr:
    """A = Q R with R.T @ R = A.T @ A + lam * I (upper triangular R)."""

    Q: np.ndarray
    R: np.ndarray
    lam: float
    singular: bool = False


def lambda_qr(A, lam: float) -> LambdaQr:
    """QR-like factorization with a ridge term folded into R.

    Computed as the R factor of a QR of the stacked matrix [A; sqrt(lam)*I]
    (never through the Gram matrix), then Q = A @ inv(R) by triangular solve.
    For lam == 0 and rank-deficient A the result is flagged singular and Q is
    recovered through a pseudo-inverse; operations that invert R must reject
    such factors.

    A is densified. Exact CCA runs this only when a lambda is zero or the
    bound (trace(A'A) + lam) / lam on cond(A'A + lam I) = cond(R)^2 exceeds
    cca.GRAM_COND_MAX; otherwise it takes the same R as the Cholesky factor
    of `gram(A)` + lam I, read from a CSR A without densifying it.
    """
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    M = as_dense(A)
    n, d = M.shape
    stacked = np.vstack([M, np.sqrt(lam) * np.eye(d)])
    R = np.linalg.qr(stacked, mode="r")
    # normalize to a nonnegative diagonal so the factorization is unique
    signs = np.where(np.diag(R) < 0, -1.0, 1.0)
    R = signs[:, None] * R
    diag = np.abs(np.diag(R))
    singular = bool(diag.min(initial=np.inf) <= LAMBDA_QR_RANK_TOL * max(diag.max(initial=0.0), 1e-300))
    if singular:
        Q = M @ np.linalg.pinv(R)
    else:
        Q = scipy.linalg.solve_triangular(R.T, M.T, lower=True).T
    return LambdaQr(Q=Q, R=R, lam=float(lam), singular=singular)


def read_matrix_market(path):
    """Read a real general Matrix Market file with `scipy.io.mmread`.

    Returns a CSR array for the coordinate format and a float64 ndarray for
    the array format. Raises MatrixMarketError for any other field or
    symmetry, for an entry line without exactly 3 (coordinate) or 1 (array)
    fields, for a body that mmread rejects, and for a non-finite entry.
    """
    try:
        *_, fmt, field, symmetry = scipy.io.mminfo(path)
        if (field, symmetry) != ("real", "general"):
            raise ValueError(f"unsupported header: {field} {symmetry}, need real general")
        want = 3 if fmt == "coordinate" else 1
        with open(path) as fh:
            lines = (line.split() for line in fh if line.strip() and not line.startswith("%"))
            next(lines, None)  # the size line
            if any(len(fields) != want for fields in lines):
                raise ValueError(f"{fmt} entry line without exactly {want} field(s)")
        M = scipy.io.mmread(path)
    except ValueError as exc:
        raise MatrixMarketError(str(exc)) from None
    if scipy.sparse.issparse(M):
        M = scipy.sparse.csr_array(M)  # duplicate entries are summed
    if not np.isfinite(M.data if scipy.sparse.issparse(M) else M).all():
        raise MatrixMarketError("non-finite entry")
    return M
