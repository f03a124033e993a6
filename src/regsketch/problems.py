"""Synthetic problem generators for benchmarks and calibration."""

from __future__ import annotations

import numpy as np
import scipy.sparse

from .la import make_rng
from .statdim import sd_exact, singular_values

SPECTRA = ("geometric", "power", "flat")


def spectrum(kind: str, r: int, decay: float = 0.5) -> np.ndarray:
    if kind == "geometric":
        return decay ** np.arange(r)
    if kind == "power":
        return (1.0 + np.arange(r)) ** (-decay)
    if kind == "flat":
        return np.ones(r)
    raise ValueError(f"unknown spectrum kind {kind!r}; expected one of {SPECTRA}")


def generate_problem(
    n: int,
    d: int,
    seed: int,
    kind: str = "geometric",
    noise: float = 1e-3,
    density: float | None = None,
    rank: int | None = None,
):
    """Matrix with a controlled spectrum plus a response vector.

    Returns (A, b). A = U0 diag(s) V0' + noise * N / sqrt(n d) with U0, V0
    Haar-orthonormal; density (if given) sparsifies by masking entries, after
    which A is returned in CSR form.
    """
    rng = make_rng(seed, 7)
    r = rank or min(n, d)
    s = spectrum(kind, r)
    U0, _ = np.linalg.qr(rng.standard_normal((n, r)))
    V0, _ = np.linalg.qr(rng.standard_normal((d, r)))
    A = (U0 * s) @ V0.T
    if noise:
        A = A + noise * rng.standard_normal((n, d)) / np.sqrt(n * d)
    x_true = rng.standard_normal(d)
    b = A @ x_true + noise * rng.standard_normal(n)
    if density is not None:
        mask = rng.random((n, d)) < density
        A = scipy.sparse.csr_matrix(A * mask)
    return A, b


def lambda_for_sd(A, target_lo: float, target_hi: float) -> float:
    """Bisect for a ridge weight whose statistical dimension lands in
    [target_lo, target_hi]. sd is decreasing in the weight. One SVD of A;
    each step evaluates sd on its singular values."""
    sigma = singular_values(A)
    mid = 0.5 * (target_lo + target_hi)
    lo, hi = 1e-12, 1e12
    if sd_exact(sigma, lo) < target_lo:
        raise ValueError("matrix rank is below the target statistical dimension")
    for _ in range(200):
        lam = np.sqrt(lo * hi)
        val = sd_exact(sigma, lam)
        if target_lo <= val <= target_hi:
            return float(lam)
        if val > mid:
            lo = lam
        else:
            hi = lam
    return float(np.sqrt(lo * hi))
