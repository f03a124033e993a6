"""Ridge-regularized low-rank approximation.

The SVD reduces the problem, for any orthogonally invariant pair penalty, to
a diagonal one (`_svd_reduction`); the ridge pair's diagonal answer, the
shrinkage sqrt((sigma - lam)_+), is the closed-form optimum. It needs only
the top-k singular triplets: for k <= TRUNCATED_SVD_MAX_K_FRACTION * min(n, d)
ARPACK computes them from products with A as given, dense or CSR, in
O(iterations * nnz(A) * k) against the O(n d min(n, d)) of a full SVD, and a
CSR A is never densified; larger k, or an ARPACK failure, takes the full SVD.
The sketched route reduces A two-sidedly to a small core, solves it by that
reduction with the caller's diagonal solver (`genreg` passes its own), then
lifts the factors through triangular back-solves against the QR factors of
the sketched operands. Both right sketches meet the small SA and S2A, so no
n x m' matrix A R is formed.

The sketch sizes come from sd_lam of the left sketch SA itself
(`statdim.sd_from_sketch`): one CountSketch of A is drawn at M rows and
folded in half, level by level, and the smallest level at which the size rule
at sd_lam(SA) fits is S. That costs one O(nnz(A)) pass plus the Gram of each
level's short side and its eigenvalues, and the level read is the SA the core
is built from, so A is sketched for S once. That reading estimates
min(sd_lam(A), k), which is not the paper's sd_lam(Y*) and does not bound it
(see `core_sizes`). When the draw has at least p rows, S2 is one of its
levels too (see `build_core_sized` for why S and S2 may share a draw), and
the lift and the objective come from one product A [R Z_R | X']
(`_lift_and_fit`). So a ridge solve reads A twice: one sketch apply and one
dense product. With lam = 0, S the identity, or a draw shorter than p, S2 is
drawn apart and reads A once more; an objective whose expansion would cancel,
an exact fit among them, is summed over row blocks of A.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, svds

from . import sketch as sk
from . import statdim
from .la import RANK_RTOL, as_dense, derive_seeds, make_rng, row_block, row_blocks

# Largest k / min(n, d) whose top-k triplets come from ARPACK rather than a
# full SVD. ARPACK's cost grows with k and with how clustered the spectrum is
# past sigma_k: with one BLAS thread, on a 4000 x 1000 geometric spectrum it
# took 0.07 s against 1.3 s for the full SVD at k = 10, and 1.8 s at k = 100.
TRUNCATED_SVD_MAX_K_FRACTION = 0.1


@dataclass
class LowRankFactors:
    Y: np.ndarray  # n x k
    X: np.ndarray  # k x d
    objective: float
    k: int
    lam: float
    sd_factor: float = 0.0  # sd_lam of the shrinkage factor, when known
    rank_truncated: bool = False
    # of a sketched solve: m, m_prime, p, p_prime, sd_hat, and the rows
    # m_drawn of S's one draw with the count levels_read of its levels read
    sizes: dict = field(default_factory=dict)


def objective_value(A, Y, X, lam: float) -> float:
    """||YX - A||_F^2 + lam (||Y||_F^2 + ||X||_F^2).

    The residual is formed and summed one row block at a time, so neither it
    nor a dense copy of a CSR A exists in full (`la.row_block`). Every
    block's residual is formed in place in one buffer, allocated once.
    """
    if scipy.sparse.issparse(A):
        A = A.tocsr()
    blocks = row_blocks(*A.shape)
    buf = np.empty((blocks[0].stop if blocks else 0, X.shape[1]))
    fit = 0.0
    for rows in blocks:
        R = np.matmul(Y[rows], X, out=buf[: rows.stop - rows.start])
        R -= as_dense(row_block(A, rows))
        fit += float(np.vdot(R, R))
    return float(fit + lam * (np.vdot(Y, Y) + np.vdot(X, X)))


def shrink_sd(sigma: np.ndarray, lam: float, k: int) -> float:
    """Statistical dimension of the shrinkage factors: sum of (1 - lam/sigma_i)
    over the top-k singular values exceeding lam."""
    top = sigma[:k]
    kept = top[top > lam]
    return float(np.sum(1.0 - lam / kept)) if kept.size else 0.0


def _svd_reduction(A, k: int, diag_solver):
    """(Y, X, sigma_k) with Y = U_k diag(w), X = diag(z) V_k' for (w, z) =
    diag_solver(sigma_k), from the top-k singular triplets U_k, sigma_k, V_k
    of A, sigma_k largest first.

    For k <= TRUNCATED_SVD_MAX_K_FRACTION * min(n, d) the triplets come from
    ARPACK (`scipy.sparse.linalg.svds`) run on A as given, dense or CSR, so a
    CSR A is never densified; it costs O(iterations * nnz(A) * k) against the
    O(n d min(n, d)) of the full SVD. Its start vector is a fixed seeded draw,
    so a call gives the same bits every time. Larger k, or ARPACK failing to
    converge, takes the full SVD of the densified A.
    """
    if not (1 <= k <= min(A.shape)):
        raise ValueError("k must satisfy 1 <= k <= min(n, d)")
    top = _truncated_svd(A, k) if k <= TRUNCATED_SVD_MAX_K_FRACTION * min(A.shape) else None
    if top is None:
        U, s, Vt = np.linalg.svd(as_dense(A), full_matrices=False)
        top = U[:, :k], s[:k], Vt[:k]
    U, s, Vt = top
    w, z = diag_solver(s)
    return U * np.asarray(w), np.asarray(z)[:, None] * Vt, s


def _truncated_svd(A, k: int):
    """ARPACK's top-k triplets (U_k, sigma_k, V_k'), largest first, or None
    when it fails. svds reads them off the Gram of the short side, then
    Rayleigh-Ritz refines them against A itself."""
    v0 = make_rng(0, 43).standard_normal(min(A.shape))
    try:
        U, s, Vt = svds(A, k=k, v0=v0, solver="arpack")
    except (ArpackNoConvergence, ArpackError):
        return None
    order = np.argsort(s)[::-1]
    return U[:, order], s[order], Vt[order]


def _shrinkage(lam: float):
    """Diagonal solver of the ridge pair: w = z = sqrt((sigma - lam)_+)."""
    return lambda sigma: (np.sqrt(np.maximum(sigma - lam, 0.0)),) * 2


def solve_exact_shrink(A, k: int, lam: float) -> LowRankFactors:
    """Closed-form optimum: Y = U_k sqrt((S_k - lam I)_+), X = sqrt(...) V_k'.

    The top-k triplets come from `_svd_reduction`: ARPACK on A as given when
    k <= TRUNCATED_SVD_MAX_K_FRACTION * min(n, d), at O(iterations * nnz(A) * k),
    else (or when ARPACK fails) the full SVD, at O(n d min(n, d)). The
    objective is summed over row blocks, so on the ARPACK path a CSR A is
    never densified.
    """
    Y, X, s = _svd_reduction(A, k, _shrinkage(lam))
    return LowRankFactors(
        Y=Y,
        X=X,
        objective=objective_value(A, Y, X, lam),
        k=k,
        lam=lam,
        sd_factor=shrink_sd(s, lam, k),
    )


@dataclass
class CorePieces:
    SA: np.ndarray  # m x d
    S2AR: np.ndarray  # p x m'
    SAR2: np.ndarray  # m x p'
    S2AR2: np.ndarray  # p x p'
    specs: dict = field(default_factory=dict)
    sizes: dict = field(default_factory=dict)


def core_sizes(A, k: int, eps: float, lam: float, policy: sk.SizePolicy, seed: int = 0) -> dict:
    """Sketch dimensions (m, m', p, p'), sd_hat, S's draw, SA and, when that
    draw is long enough, S2A.

    sd_hat estimates min(sd_lam(A), k), with sd_lam(A) = sum of
    sigma^2 / (sigma^2 + lam) over A's singular values. It is not the
    paper's sd_lam(Y*), the statistical dimension of the optimal factor,
    which is `shrink_sd`: the sum of 1 - lam/sigma over the top-k
    sigma > lam. Neither bounds the other: term by term the factor's exceeds
    A's exactly when sigma (1 - sigma) > lam, so spectra below 1 give
    sd_lam(Y*) > sd_lam(A) (4000 x 1000 geometric at lam = 1e-3: 8.98
    against 5.48). So sd_hat is a proxy for the paper's quantity, and the
    acceptance runs, not a bound, show its sizes suffice.

    For lam > 0, sd_lam(A) is read off the S sketch itself
    (`statdim.sd_from_sketch`): one CountSketch of A is drawn at m_drawn =
    m0 2^j rows, the first at or above the lowrank_S size for sd_hat = k
    (m0 is the size for sd_hat = 1), and folded in half down to m0; m is the
    smallest level whose sd_lam reading fits the size rule, and levels_read
    counts the levels read. That costs one O(nnz(A)) pass plus the Gram of
    each level's short side. The level's SA is returned under "SA" and
    build_core_sized solves with it, with S = countsketch(m, fold=m_drawn),
    so A is sketched for S once. At lam = 0, sd_hat = k and nothing is drawn.
    m', p and p' follow from sd_hat and m.

    When the draw has at least p rows, S2 is a level of it too: the smallest
    at or above S's with at least p rows, which is returned under "S2A", and
    p becomes its row count, so build_core_sized reads A for neither S nor
    S2. Otherwise (lam = 0, S the identity, or m_drawn < p) S2 is drawn
    apart, as `build_core_sized` says.
    """
    n, d = A.shape

    def affine_rows(sd: float) -> int:  # p for sd_hat = sd
        m_p = min(d, sk.recommend_sizes(policy, sd, eps, "lowrank_R"))
        return min(n, max(1, int(np.ceil(policy.k_affine * m_p / eps**2))))

    if lam > 0:
        left = statdim.sd_from_sketch(
            A, lam, lambda s: sk.recommend_sizes(policy, s, eps, "lowrank_S"), float(k),
            seed=derive_seeds(seed, 31, 1)[0], second=affine_rows,
        )
        sd_hat, m = left.sd_hat, left.SA.shape[0]
        draw = {"m_drawn": left.drawn, "levels_read": left.levels, "SA": left.SA}
        if left.SA2 is not None:
            draw["S2A"] = left.SA2
    else:
        sd_hat, draw = float(k), {"m_drawn": 0, "levels_read": 0}
        m = min(n, sk.recommend_sizes(policy, sd_hat, eps, "lowrank_S"))
    m_p = min(d, sk.recommend_sizes(policy, sd_hat, eps, "lowrank_R"))
    p = draw["S2A"].shape[0] if "S2A" in draw else affine_rows(sd_hat)
    p_p = min(d, max(1, int(np.ceil(policy.k_affine * m / eps**2))))
    return {"m": m, "m_prime": m_p, "p": p, "p_prime": p_p, "sd_hat": sd_hat, **draw}


def build_core_sized(A, sizes: dict, seed: int = 0) -> CorePieces:
    """The core pieces at `sizes`; an "SA" that core_sizes drew is reused.
    S is the CountSketch folded from m_drawn rows when sizes carry it.

    S2 is S's draw at p rows, countsketch(p, S's seed, fold=m_drawn), when
    that draw is a CountSketch of at least p rows; an "S2A" that core_sizes
    took from it is used and taken out of `sizes`, so that the caller's dict
    does not keep it past the core. Otherwise S2 is an independent
    CountSketch, or the identity when p >= n.

    S2 may share S's draw because neither property the core needs asks for
    independence between them. S must embed the span of A's top directions,
    and S2 must be an affine embedding for (A R, A); R and R2 are drawn
    independently of both. Each property concerns fixed matrices, so each
    holds for its own sketch with its own failure probability, and a union
    bound covers the two together, whatever the dependence between S and S2.
    """
    n, d = A.shape
    drawn = {"S2A": sizes.pop("S2A", None)}
    sizes = dict(sizes)
    drawn["SA"] = sizes.pop("SA", None)
    rs = derive_seeds(seed, 31, 4)  # S, R, S2, R2
    S = sk.countsketch_or_identity(sizes["m"], n, rs[0], "left", fold=sizes.get("m_drawn", 0))
    R = sk.countsketch_or_identity(sizes["m_prime"], d, rs[1], "right")
    if S.variant == "countsketch" and sizes["p"] <= sizes.get("m_drawn", 0):
        S2 = sk.countsketch(sizes["p"], rs[0], fold=sizes["m_drawn"])
    else:
        S2 = sk.countsketch_or_identity(sizes["p"], n, rs[2], "left")
    R2 = sk.countsketch_or_identity(sizes["p_prime"], d, rs[3], "right")
    return _assemble_core(A, S, R, S2, R2, sizes, drawn)


def _assemble_core(A, S, R, S2, R2, sizes, drawn=None) -> CorePieces:
    """The core pieces of A. A meets only the left sketches, S and S2,
    unless `drawn` holds SA or S2A; R and R2 are applied to the small SA and
    S2A. Both are popped from `drawn`, so S2A is freed as soon as R and R2
    have read it. When S and S2 are CountSketch levels of one draw, S a fold
    of S2, S A R2 is S2 A R2 halved (`sketch.halve`) down to S's rows, and R2
    never meets SA.
    """
    drawn = {} if drawn is None else drawn
    SA, S2A = drawn.pop("SA", None), drawn.pop("S2A", None)
    if SA is None:
        SA = as_dense(sk.apply(S, A))
    if S2A is None:
        S2A = sk.apply(S2, A)  # stays CSR when S2 is the identity
    S2AR2, S2AR = as_dense(sk.apply(R2, S2A)), as_dense(sk.apply(R, S2A))
    del S2A
    # S a fold of S2: CountSketches of one seed drawn at the same rows
    one_draw = S.variant == S2.variant == "countsketch" and S.seed == S2.seed
    if one_draw and (S.fold or S.m) == (S2.fold or S2.m) and S2.m >= S.m:
        SAR2 = S2AR2
        while SAR2.shape[0] > S.m:
            SAR2 = sk.halve(SAR2)
    else:
        SAR2 = as_dense(sk.apply(R2, SA))
    return CorePieces(
        SA=SA,
        S2AR=S2AR,
        SAR2=SAR2,
        S2AR2=S2AR2,
        specs={"S": S, "R": R, "S2": S2, "R2": R2},
        sizes=dict(sizes),
    )


# Where the rounding bound of `_expanded_fit` exceeds FIT_RTOL times the
# objective, `_lift_and_fit` reads the fit from `objective_value`'s blocked
# residual instead. On `lowrank_dense` the bound is about 0.08 of that.
FIT_RTOL = 1e-8


def _expanded_fit(A, Yt, AXt, X):
    """(fit, bound): ||YX - A||_F^2 expanded as

        ||A||_F^2 - 2 <A X', Y> + <Y'Y, X X'>,

    from Y' and (A X')', with a bound on its rounding error. ||A||_F^2 is
    read off the stored entries of a CSR A, and off a dense A in one
    streaming dot product, without a copy. The expansion cancels where the
    fit is small against ||A||_F^2. The bound is (n + d) u (||A||_F^2 +
    2 ||A X'||_F ||Y||_F + ||Y'Y||_F ||X X'||_F), u the unit roundoff: each
    term is a sum of at most n d products of entries that are themselves
    dot products of length n or d, whose rounding errors grow like
    sqrt(n d) u in practice; (n + d) u >= 2 sqrt(n d) u covers that with
    room to spare (on a 4000 x 1000 input the error was 3 u times the sizes).
    """
    # a view of a row- or column-major A, as the transposed input of a wide solve is
    entries = A.data if scipy.sparse.issparse(A) else np.ravel(A, order="K")
    fro2 = float(np.dot(entries, entries))
    YtY, XXt = Yt @ Yt.T, X @ X.T
    fit = fro2 - 2.0 * float(np.vdot(AXt, Yt)) + float(np.vdot(YtY, XXt))
    sizes = fro2 + 2.0 * np.linalg.norm(AXt) * np.linalg.norm(Yt) + np.linalg.norm(YtY) * np.linalg.norm(XXt)
    return fit, float(sum(A.shape) * np.finfo(np.float64).eps / 2 * sizes)


def _lift_and_fit(A, pieces: CorePieces, Z_R, Z_S, penalty):
    """(Y, X, objective) for Y = A (R Z_R), X = Z_S SA and the objective
    ||YX - A||_F^2 + penalty(Y, X), from one product with A.

    X is known before A is read, so one product A [W | X'] with W = R Z_R
    (d x k, so no n x m' matrix A R is formed) gives Y, its left half, and
    A X', its right half, and the fit is expanded from them
    (`_expanded_fit`). The product is formed as (V' A')' for V = [W | X']:
    on a dense A, with one BLAS thread, that ran about 1.5x faster than
    A @ V (4000 x 1000, k = 10), and scipy forms it for a CSR A as A @ V,
    so a CSR A is never densified. Where the expansion's rounding bound
    exceeds FIT_RTOL times the objective, an exact fit among such inputs,
    the fit is `objective_value`'s blocked sum instead, a second pass.
    """
    k = Z_S.shape[0]
    X = Z_S @ pieces.SA
    Pt = np.vstack([sk.right_product(pieces.specs["R"], Z_R, A.shape[1]).T, X]) @ A.T
    Y = np.ascontiguousarray(Pt[:k].T)
    fit, bound = _expanded_fit(A, Pt[:k], Pt[k:], X)
    pen = penalty(Y, X)
    if not bound <= FIT_RTOL * (fit + pen):
        fit = objective_value(A, Y, X, 0.0)
    return Y, X, float(fit + pen)


def _pivoted_col_basis(M):
    """Column-pivoted QR basis of colspace(M): returns (U, R1, piv, rank),
    the rank counting the R diagonals above RANK_RTOL times the first."""
    Q, Rm, piv = scipy.linalg.qr(M, mode="economic", pivoting=True)
    diag = np.abs(np.diag(Rm))
    r = int(np.sum(diag > RANK_RTOL * max(diag[0] if diag.size else 0.0, 1e-300)))
    return Q[:, :r], Rm[:r, :r], piv, r


def solve_core(C, D, G, k: int, lam: float):
    """Solve min ||C Z_R Z_S D - G||_F^2 + lam||C Z_R||_F^2 + lam||Z_S D||_F^2.

    The ridge instance of `_solve_two_sided`: the core's diagonal solver is
    the shrinkage. Rank-deficient cores are zero-padded and flagged rather
    than rejected.
    """
    return _solve_two_sided(C, D, G, k, _shrinkage(lam))


def _solve_two_sided(C, D, G, k: int, diag_solver):
    """The two-sided core for any orthogonally invariant pair regularizer.

    The SVD reduction of M = U_C' G U_D with diag_solver(sigma_k) -> (w, z)
    gives the core factors (Z'_R, Z'_S); Z_R and Z_S follow by triangular
    back-solves against the pivoted QR factors of C and D'.
    """
    C, D, G = as_dense(C), as_dense(D), as_dense(G)
    p, m_p = C.shape
    m, p_p = D.shape
    U_C, R1c, pivc, rc = _pivoted_col_basis(C)
    U_D, R1d, pivd, rd = _pivoted_col_basis(D.T)
    small_k = min(k, rc, rd)
    truncated = small_k < k
    if small_k == 0:
        return np.zeros((m_p, k)), np.zeros((k, m)), True
    Y, X, _ = _svd_reduction(U_C.T @ G @ U_D, small_k, diag_solver)
    Zp_R = np.zeros((rc, k))
    Zp_R[:, :small_k] = Y
    Zp_S = np.zeros((k, rd))
    Zp_S[:small_k, :] = X
    # back-solve: C Z_R = U_C Z'_R and Z_S D = Z'_S U_D'
    Z_R = np.zeros((m_p, k))
    Z_R[pivc[:rc]] = scipy.linalg.solve_triangular(R1c, Zp_R)
    Z_S = np.zeros((k, m))
    Z_S[:, pivd[:rd]] = scipy.linalg.solve_triangular(R1d, Zp_S.T).T
    return Z_R, Z_S, truncated


def solve_sketched(
    A,
    k: int,
    lam: float,
    eps: float,
    policy: sk.SizePolicy | None = None,
    seed: int = 0,
) -> LowRankFactors:
    """Sketched rank-k ridge factorization: build_core_sized -> solve_core -> lift.

    The objective is recomputed on the original A, in the lift's product
    with it (`_lift_and_fit`). When d > n the problem is
    solved on the transpose (the objective is symmetric under it), which is
    tall, so the call on it solves directly.
    """
    n, d = A.shape
    if not (1 <= k <= min(n, d)):
        raise ValueError("k must satisfy 1 <= k <= min(n, d)")
    if d > n:
        AT = A.T.tocsr() if scipy.sparse.issparse(A) else as_dense(A).T
        sol = solve_sketched(AT, k, lam, eps, policy, seed=seed)
        return replace(sol, Y=sol.X.T, X=sol.Y.T)
    policy = policy or sk.SizePolicy()
    pieces = build_core_sized(A, core_sizes(A, k, eps, lam, policy, seed=seed), seed=seed)
    Z_R, Z_S, truncated = solve_core(pieces.S2AR, pieces.SAR2, pieces.S2AR2, k, lam)
    Y, X, objective = _lift_and_fit(A, pieces, Z_R, Z_S, lambda Y, X: lam * (np.vdot(Y, Y) + np.vdot(X, X)))
    return LowRankFactors(
        Y=Y,
        X=X,
        objective=objective,
        k=k,
        lam=lam,
        rank_truncated=truncated,
        sizes=dict(pieces.sizes),
    )

