"""Statistical dimension: exact computation, the constant-factor estimator
built on a doubling search over exact tail energies, and sizing a
CountSketch from sd_lam of its own output.

The estimator's certificate is the inequality chain
(3/8) min{z', gamma/lam} <= sd_lam(M) <= (3/2)(z' + gamma/lam),
deterministic for the matrix M whose Gram eigenvalues give the tails gamma.
The "exact" backend takes M = A. The default "sketch" backend takes M = SA
for a CountSketch S of A's long side, so the chain is exact for SA; for A it
was checked empirically at this sketch size (the constant-probability result
it rests on needs O(sd_lam^2) rows, see `sd_estimate`).

Cost: the default estimator reads A once, to sketch it in O(nnz(A)) to
SD_SKETCH_ROWS_PER_RANK * r rows (r = min(n, d)), and then forms the r x r
Gram of SA (m r^2 flops) and its eigenvalues in O(r^3). The doubling search
reads its tails off one cumulative sum of them and never touches A again.
The "exact" backend forms the Gram of A itself (n*d*r flops dense,
nnz(A)*r sparse, by row blocks).

`sd_from_sketch` reads sd_lam off a CountSketch SA instead: it draws one
CountSketch of A at M rows, folds it in half down to the smallest size
(`sketch.halve`), and reads the levels from the smallest up until a caller's
size rule at that reading fits. A is read once, in O(nnz(A)); each level read
costs the m x m Gram of its short side (m^2 d flops for m <= d) and its
eigenvalues (`sd_by_gram`), and the level that fits is the sketch the caller
solves with. An SVD of SA runs only when the Gram's certificate is too loose
to read sd_lam to SD_GRAM_RTOL.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from . import sketch as sk
from .la import RANK_RTOL, as_dense, derive_seed, make_rng, short_gram_eigvalsh

POWER_ITERS = 8  # subspace iterations of residual_norm_estimate's krylov backend
# error bound of a Gram reading of sd_lam, relative to max(1, reading), above
# which sd_by_gram reads the SVD instead
SD_GRAM_RTOL = 1e-6


def singular_values(A) -> np.ndarray:
    """Singular values of A, largest first, by a dense SVD."""
    return np.linalg.svd(as_dense(A), compute_uv=False)


def sd_exact(A_or_sigma, lam: float) -> float:
    """sum_i sigma_i^2 / (sigma_i^2 + lam) over nonzero singular values."""
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    arr = np.asarray(A_or_sigma, dtype=np.float64) if not scipy.sparse.issparse(A_or_sigma) else None
    if arr is not None and arr.ndim == 1:
        s = arr
    else:
        s = singular_values(A_or_sigma)
    s = s[s > 0]
    if lam == 0.0:
        # rank with a relative cutoff, since sd_0 equals the rank
        if s.size == 0:
            return 0.0
        return float(np.sum(s > RANK_RTOL * s.max()))
    return float(np.sum(s**2 / (s**2 + lam)))


def sd_by_gram(M, lam: float) -> float:
    """sd_lam(M) from the eigenvalues of M's short-side Gram, for lam > 0.

    Each eigenvalue w_i lies within delta of sigma_i^2
    (`la.short_gram_eigvalsh`), and each term x / (x + lam) of sd_lam is
    1/lam-Lipschitz in x = sigma_i^2 >= 0 (w is clipped at 0, which only
    moves it toward sigma_i^2), so the reading is within r * delta / lam of
    sd_exact(M, lam), r = min(m, d). When that bound exceeds
    SD_GRAM_RTOL * max(1, reading), which takes a lam tiny against
    trace(G), the SVD reading sd_exact(M, lam) is returned instead.
    """
    w, delta = short_gram_eigvalsh(M)
    w = np.maximum(w, 0.0)
    reading = float(np.sum(w / (w + lam)))
    if w.size * delta / lam > SD_GRAM_RTOL * max(1.0, reading):
        return sd_exact(M, lam)
    return reading


def residual_norm_estimate(A, z: int, seed: int = 0, backend: str = "krylov") -> float:
    """Estimate ||A - A_z||_F^2 (the tail energy below the top-z directions).

    backend "krylov": ||A||_F^2 minus a top-z energy estimate from randomized
    block subspace iteration (block 2z, POWER_ITERS power iterations); meets the
    1/3-relative-error contract with constant probability on our test spectra.
    backend "exact": dense SVD, for deterministic certificate tests.
    `sd_estimate` does not call it: it reads exact tails off a Gram's
    eigenvalues.
    """
    n, d = A.shape
    r = min(n, d)
    if not (1 <= z):
        raise ValueError("z must be >= 1")
    if z >= r:
        return 0.0
    if backend == "exact":
        s = singular_values(A)
        return float(np.sum(s[z:] ** 2))
    total = float(A.power(2).sum()) if scipy.sparse.issparse(A) else float(np.sum(as_dense(A) ** 2))
    rng = make_rng(seed, 17)
    block = min(2 * z, r)
    Q = rng.standard_normal((d, block))
    Y = A @ Q
    for _ in range(POWER_ITERS):
        Q, _ = np.linalg.qr(as_dense(Y))
        Y = A @ (A.T @ Q)
    Q, _ = np.linalg.qr(as_dense(Y))
    s = np.linalg.svd(as_dense((Q.T @ A)), compute_uv=False)
    top = float(np.sum(s[:z] ** 2))
    return max(total - top, 0.0)


@dataclass
class StatDimEstimate:
    estimate: float  # z' + gamma_hat / lam
    z_prime: int  # power of two, or min(n, d) once the doubling reaches it
    gamma_hat: float
    lower: float  # (3/8) min{z', gamma_hat/lam}
    upper: float  # (3/2) (z' + gamma_hat/lam)
    binding: bool  # False when the doubling search reached min(n, d)


# Rows of the estimator's CountSketch per unit of r = min(n, d). At 4r the
# estimate kept est/16 <= sd_lam <= 1.5 est and lower <= sd_lam <= upper on
# every draw of tall inputs up to 65536 x 64 (three spectra, heavy-row inputs,
# sd_lam 2 to 30), and SA adds 0.13 MB on a 65536 x 64 input. At m = r^2 it
# adds 2.1 MB there; re-measure the peak before going above about 8r.
SD_SKETCH_ROWS_PER_RANK = 4
# derive_seed stream of the estimator's CountSketch: past every stream the
# other draws take (composed parts and trial specs count up from 0 and 1;
# lowrank and genreg use 31 to 53), so its hash is independent of theirs
SD_SKETCH_STREAM = 1 << 20
SD_BACKENDS = ("sketch", "exact")


def _gram_eigenvalues(M) -> np.ndarray:
    """Eigenvalues of M's short-side Gram, ascending, with rounding noise zeroed.

    The Gram (`la.short_gram_eigvalsh`) has M's squared singular values.
    Eigenvalues at or below its rounding level, max(m, d) * eps * max(w), are
    set to zero: they are rounding noise, some of it negative, and would pose
    as a tail of energy that M does not have.
    """
    w, _ = short_gram_eigvalsh(M)
    return np.where(w > max(M.shape) * np.finfo(np.float64).eps * w.max(initial=0.0), w, 0.0)


def _estimator_sketch(A, seed: int):
    """A CountSketch of A's long side to SD_SKETCH_ROWS_PER_RANK * min(n, d)
    rows, on the left of a tall A and the right of a wide one, or A itself
    when that many rows would not reduce the long side."""
    n, d = A.shape
    m = SD_SKETCH_ROWS_PER_RANK * min(n, d)
    side = "left" if n >= d else "right"
    return sk.apply(sk.countsketch_or_identity(m, max(n, d), derive_seed(seed, SD_SKETCH_STREAM), side), A)


def sd_estimate(A, lam: float, seed: int = 0, backend: str = "sketch") -> StatDimEstimate:
    """Constant-factor estimate of sd_lam(A) by doubling z until z >= gamma_z/lam.

    gamma_z = sum_{i > z} w_i is the exact tail of the eigenvalues w of a
    short-side Gram, read off one cumulative sum of them. backend "exact"
    takes the Gram of A itself, so the certificate
    (3/8) min{z', gamma/lam} <= sd_lam(A) <= (3/2)(z' + gamma/lam) holds
    deterministically. backend "sketch" takes the Gram of SA for a CountSketch
    S of A's long side to m = SD_SKETCH_ROWS_PER_RANK * r rows (r = min(n, d);
    the right side of a wide A, so the short side is never sketched), seeded
    from the stream SD_SKETCH_STREAM of `seed`: the certificate is exact for
    SA. For A it is an empirical bound at this size: it held on every draw of
    the tested inputs (see SD_SKETCH_ROWS_PER_RANK). The cited guarantee, that
    a CountSketch approximating A'A + lam I keeps sd_lam within a constant
    factor with constant probability (Avron et al., ICML 2017), needs
    O(sd_lam^2) rows, which 4r need not be. When m is not below A's long
    side, SA is A.

    Cost: one O(nnz(A)) pass to sketch A, the r x r Gram of SA (m r^2 flops)
    and its eigenvalues in O(r^3); A is never read again. The "exact" backend
    pays the Gram of A instead, n d r flops dense or nnz(A) r sparse.

    z stops at r, where the tail is zero, so the estimate never exceeds the
    rank; that result is marked non-binding. Both orientations of A share
    one short-side Gram and one sketch, so sd_estimate(A) == sd_estimate(A')
    whenever n != d. Rejects lam = 0 (the stop rule divides by lam; use
    sd_exact or the rank).
    """
    if lam <= 0:
        raise ValueError("sd_estimate requires lam > 0; use sd_exact for lam = 0")
    if backend not in SD_BACKENDS:
        raise ValueError(f"unknown sd_estimate backend {backend!r}; choose from {SD_BACKENDS}")
    w = _gram_eigenvalues(A if backend == "exact" else _estimator_sketch(A, seed))
    r = min(A.shape)
    # w ascends, so its cumulative sum from the start is a tail sum: the
    # energy below the top z directions is tails[r - z]
    tails = np.concatenate([[0.0], np.cumsum(w)])
    z = 1
    while True:
        gamma = float(tails[r - z])
        if z >= gamma / lam:
            est = z + gamma / lam
            return StatDimEstimate(
                estimate=float(est),
                z_prime=z,
                gamma_hat=gamma,
                lower=float(0.375 * min(z, gamma / lam)),
                upper=float(1.5 * est),
                binding=z < r,
            )
        z = min(2 * z, r)


@dataclass
class SketchedSd:
    """A CountSketch of A sized from sd_lam of its own output."""

    spec: sk.SketchSpec  # the folded level returned; the identity when none fit
    SA: np.ndarray  # spec applied to A, dense, m x d
    sd_hat: float  # min(sd_by_gram(SA, lam), cap)
    drawn: int  # rows M of the one CountSketch drawn; 0 when none was
    levels: int  # levels of that draw whose sd_lam was read
    # the level asked for by sd_from_sketch's `second` and its spec,
    # countsketch(rows, seed, fold=drawn); None when not asked for or when
    # the draw is shorter
    SA2: np.ndarray | None = None
    spec2: sk.SketchSpec | None = None


def sd_from_sketch(A, lam: float, size, cap: float, seed: int = 0, second=None) -> SketchedSd:
    """One M-row CountSketch of A, folded down to the first level m with
    size(sd_hat) <= m, or the identity when no level below n fits.

    `size` maps an sd estimate to a row count and must be nondecreasing. M is
    the smallest m0 2^j at or above size(cap), m0 = size(1), kept below n, so
    M < 2 size(cap) unless M = m0. Halving SA (`sketch.halve`) gives the
    CountSketch of the same draw at M/2, M/4, ..., m0 rows, so A is read once
    for every size. sd_hat = min(sd_lam(level), cap), read by `sd_by_gram`
    from the Gram of the level's short side, is read from m0 up, and the first
    level that fits is returned as the folded spec countsketch(m, seed,
    fold=M). The m0-row level reads loosest, so it is taken only when the
    next level's reading fits m0 rows too. Ridge leverage scores sum to
    sd_lam (Cohen-Musco-Musco, SODA 2017) and an sd_lam-sized sketch
    preserves A'A + lam I (Avron et al., ICML 2017), so SA read at the size
    the caller needs for its solve also reads sd_lam to within a constant
    factor, with constant probability: at sd_lam <= 1 the reading comes from
    the two smallest levels.

    With `second`, a size rule of a second sketch of A that the caller
    wants, second(sd_hat) rows are also taken from this draw: the smallest
    level at or above the one returned with at least that many rows comes
    back as SA2, the apply of spec2 = countsketch(rows, seed, fold=M), so
    the one returned is a fold of it. When the draw is shorter, SA2 and
    spec2 are None and the caller draws that sketch itself.

    Cost: one O(nnz(A)) apply at M rows, O(M d) to fold, and per level read
    the Gram of its short side and its eigenvalues. The levels take about
    1.5 M rows: the draw, and one M/2-row buffer that holds the levels below
    M/2 until the reading reaches M/2, which is then halved from the draw
    into it again. Every level but the one returned and SA2 is freed on
    return.
    """
    if lam <= 0:
        raise ValueError("sd_from_sketch requires lam > 0")
    n = A.shape[0]
    m0 = size(1.0)
    if m0 < 1:
        raise ValueError("sd_from_sketch needs size(1) >= 1 row")
    M, top = m0, size(float(cap))
    while M < top and 2 * M < n:
        M *= 2
    sds = []  # the readings, m0-row level first
    if M < n:
        SA_M = as_dense(sk.apply(sk.countsketch(M, seed), A))
        # every level below M/2 is packed into one M/2-row buffer, the r-row
        # level at packed[r:2r], each halved in place from the one above it
        # with the sums of `sketch.halve`; so the draw holds about 1.5 M rows
        h = M // 2
        packed = np.add(SA_M[:h], SA_M[h:]) if h >= m0 else None
        r = h
        while r > m0:
            above = packed if r == h else packed[r : 2 * r]
            np.add(above[: r // 2], above[r // 2 :], out=packed[r // 2 : r])
            r //= 2

        def level(r):
            if r == M:
                return SA_M
            if r < h:
                return packed[r : 2 * r]
            if h > m0:  # the reading reached M/2: the levels below are read
                np.add(SA_M[:h], SA_M[h:], out=packed)
            return packed

        def own(L):  # a packed level, copied out before packed is rewritten or freed
            return L.copy() if packed is not None and L.base is packed else L

        for i in range((M // m0).bit_length()):
            SA = level(m0 << i)
            sds.append(float(min(sd_by_gram(SA, lam), cap)))
            # the m0-row level reads loosest: it is taken only when the
            # next level's reading fits m0 rows too
            if i == 1 and size(max(sds)) <= m0:
                i, SA = 0, sk.halve(SA)
            elif size(sds[i]) > SA.shape[0] or (i == 0 and M > m0):
                continue
            SA, SA2, spec2 = own(SA), None, None
            if second is not None:
                rows = SA.shape[0]
                while rows < min(M, second(sds[i])):
                    rows *= 2
                if rows >= second(sds[i]):
                    SA2 = SA if rows == SA.shape[0] else own(level(rows))
                    spec2 = sk.countsketch(rows, seed, fold=M)
            spec = sk.countsketch(SA.shape[0], seed, fold=M)
            return SketchedSd(spec=spec, SA=SA, sd_hat=sds[i], drawn=M, levels=len(sds), SA2=SA2, spec2=spec2)
        del SA_M, packed, SA
    SA = as_dense(A)
    sd_hat = min(sd_by_gram(SA, lam), cap)
    return SketchedSd(
        spec=sk.identity(), SA=SA, sd_hat=float(sd_hat), drawn=M if M < n else 0, levels=len(sds)
    )
