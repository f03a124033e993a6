"""Statistical dimension: exact computation, the constant-factor estimator
built on a doubling search over residual-energy estimates, and sizing a
CountSketch from sd_lam of its own output.

The estimator's certificate is the inequality chain
(3/8) min{z', gamma/lam} <= sd_lam(A) <= (3/2)(z' + gamma/lam),
which is deterministic when exact residuals are substituted for gamma.

Cost: the estimator reads A once, to form the Gram of its short side
(n*d*r flops dense, nnz(A)*r sparse, by row blocks; r = min(n, d)), and
then works on an r x r factor of that Gram in O(r^3). The doubling search and
its subspace iterations never touch A again.

`sd_from_sketch` reads sd_lam off a CountSketch SA instead, doubling its rows
until a caller's size rule at that reading fits: each draw costs O(nnz(A))
plus an m x d SVD, and the final SA is the sketch the caller solves with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from . import sketch as sk
from .la import RANK_RTOL, as_dense, gram, make_rng

POWER_ITERS = 8  # subspace iterations of the krylov residual estimate


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


def residual_norm_estimate(A, z: int, seed: int = 0, backend: str = "krylov") -> float:
    """Estimate ||A - A_z||_F^2 (the tail energy below the top-z directions).

    backend "krylov": ||A||_F^2 minus a top-z energy estimate from randomized
    block subspace iteration (block 2z, POWER_ITERS power iterations); meets the
    1/3-relative-error contract with constant probability on our test spectra.
    backend "exact": dense SVD, for deterministic certificate tests.
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


def _gram_factor(A) -> np.ndarray:
    """r x r factor F = diag(sqrt(w)) V' of the short-side Gram G = V diag(w) V'.

    G is A'A when n >= d and AA' otherwise, so F has A's singular values, and
    F'F = G; a CSR input is read in row blocks by `la.gram`. Eigenvalues
    below G's rounding level, max(n, d) * eps * max(w), are set to zero: they
    are rounding noise, some of it negative, and their square roots would be
    NaN or pose as singular values near sqrt(eps) * ||A||_2.
    """
    n, d = A.shape
    G = gram(A) if n >= d else gram(A.T)
    w, V = np.linalg.eigh(G)
    w = np.where(w > max(n, d) * np.finfo(np.float64).eps * w.max(initial=0.0), w, 0.0)
    return np.sqrt(w)[:, None] * V.T


def sd_estimate(A, lam: float, seed: int = 0, backend: str = "krylov") -> StatDimEstimate:
    """Constant-factor estimate of sd_lam(A) by doubling z until z >= gamma_z/lam.

    The residual estimates run on `_gram_factor(A)`, which has A's singular
    values; subspace iteration depends on nothing else of A, so for n >= d the
    result is the estimator run on A itself, for n < d the estimator run on
    A', and sd_estimate(A) == sd_estimate(A') whenever n != d.

    z stops at r = min(n, d), where the tail energy is zero, so the estimate
    never exceeds the rank; that result is marked non-binding. Rejects lam = 0 (the stop rule divides by lam; use sd_exact or the rank).
    """
    if lam <= 0:
        raise ValueError("sd_estimate requires lam > 0; use sd_exact for lam = 0")
    F = _gram_factor(A)
    r = min(A.shape)
    z = 1
    while True:
        gamma = residual_norm_estimate(F, z, seed=seed + z, backend=backend)
        if z >= gamma / lam:
            est = z + gamma / lam
            return StatDimEstimate(
                estimate=float(est),
                z_prime=z,
                gamma_hat=float(gamma),
                lower=float(0.375 * min(z, gamma / lam)),
                upper=float(1.5 * est),
                binding=z < r,
            )
        z = min(2 * z, r)


@dataclass
class SketchedSd:
    """A CountSketch of A sized from sd_lam of its own output."""

    spec: sk.SketchSpec  # the final draw; the identity once m reached n
    SA: np.ndarray  # spec applied to A, dense, m x d
    sd_hat: float  # min(sd_lam(SA), cap)
    draws: int  # sketches drawn, the final one included


def sd_from_sketch(A, lam: float, size, cap: float, seed: int = 0) -> SketchedSd:
    """Draw an m-row CountSketch S of A until size(sd_hat) <= m or m = n.

    sd_hat = min(sd_lam(SA), cap). m starts at size(1) and, while the draw
    asks for more, becomes max(2m, size(sd_hat)), every draw with the same
    seed. `size` maps an sd estimate to a row count and must be nondecreasing,
    so the loop ends once m >= size(cap). Ridge leverage scores sum to sd_lam
    (Cohen-Musco-Musco, SODA 2017) and an sd_lam-sized sketch preserves
    A'A + lam I (Avron et al., ICML 2017), so SA read at the size the caller
    needs for its solve also reads sd_lam to within a constant factor, with
    constant probability: at sd_lam <= 1 the reading comes from the first,
    size(1)-row draw.
    """
    if lam <= 0:
        raise ValueError("sd_from_sketch requires lam > 0")
    n = A.shape[0]
    m = min(n, size(1.0))
    draws = 0
    while True:
        spec = sk.countsketch_or_identity(m, n, seed)
        SA = as_dense(sk.apply(spec, A))
        draws += 1
        sd_hat = min(sd_exact(SA, lam), cap)
        need = size(sd_hat)
        if need <= m or m >= n:
            return SketchedSd(spec=spec, SA=SA, sd_hat=float(sd_hat), draws=draws)
        m = min(n, max(2 * m, need))
