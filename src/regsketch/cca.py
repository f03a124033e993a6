"""Regularized canonical correlation analysis.

Exact route (regularized Bjorck-Golub): the correlations are the singular
values of R_A^{-T} A'B R_B^{-1}, where R'R = A'A + lam I for each view. When
both lambdas are positive and the bound (trace(A'A) + lam) / lam on
cond(A'A + lam I) is at most GRAM_COND_MAX for both views, R is the Cholesky
factor of the Gram, and A'A, B'B and A'B are read from CSR views in row
blocks (`la.gram`), so no view is densified. Otherwise R comes from lambda-QR
of each densified view, which never squares the condition number. Sketched
route: the same computation on (SA, SB) with one shared sketch. The
validator checks the three defining conditions of an eta-approximate
regularized CCA plus the per-prefix trace gap against the exact solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import sketch as sk
from .la import as_dense, gram, lambda_qr

# Upper bound on cond(A'A + lam I) under which the exact route factors the
# Gram. Cholesky and the triangular solves then lose about
# GRAM_COND_MAX * eps ~ 2e-10 relative accuracy, far inside the 1e-7 the
# exact answers are checked to; a larger condition number takes lambda-QR.
GRAM_COND_MAX = 1e6


@dataclass
class CcaResult:
    sigmas: np.ndarray  # length q, nonincreasing, in [0, 1] up to tolerance
    U: np.ndarray  # d x q canonical weights for the A view
    V: np.ndarray  # d' x q canonical weights for the B view
    lambda1: float
    lambda2: float
    q: int


@dataclass
class CcaValidation:
    eta: float
    max_sigma_dev: float
    max_constraint_dev: float
    max_alignment_dev: float
    trace_gaps: list  # trace_gap(L) for L = 1..q
    passed: bool


def _regularized_gram(A, lam: float):
    """A'A + lam I when lam > 0 and (trace(A'A) + lam) / lam, a bound on
    its condition number, is at most GRAM_COND_MAX; None otherwise."""
    if lam <= 0:
        return None
    G = gram(A)
    if (np.trace(G) + lam) / lam > GRAM_COND_MAX:
        return None
    G[np.diag_indices_from(G)] += lam
    return G


def solve_exact_cca(A, B, lambda1: float, lambda2: float) -> CcaResult:
    """Regularized Bjorck-Golub: correlations are the singular values of
    K = R_A^{-T} A'B R_B^{-1}; weights are R_A^{-1} M and R_B^{-1} N from
    its SVD.

    R is the Cholesky factor of A'A + lam I when both Gram condition bounds
    hold (see GRAM_COND_MAX), and the R of lambda-QR otherwise, where K is
    Q_A'Q_B. lambda = 0 is allowed only when the corresponding view has full
    column rank (singular R is rejected).
    """
    if A.shape[0] != B.shape[0]:
        raise ValueError("views must share the row count")
    GA, GB = _regularized_gram(A, lambda1), _regularized_gram(B, lambda2)
    if GA is not None and GB is not None:
        RA = scipy.linalg.cholesky(GA)
        RB = scipy.linalg.cholesky(GB)
        K = scipy.linalg.solve_triangular(RA, gram(A, B), trans="T")
        K = scipy.linalg.solve_triangular(RB, K.T, trans="T").T
    else:
        fa = lambda_qr(as_dense(A), lambda1)
        fb = lambda_qr(as_dense(B), lambda2)
        if fa.singular or fb.singular:
            raise ValueError("rank-deficient view with lambda = 0: R is singular")
        RA, RB, K = fa.R, fb.R, fa.Q.T @ fb.Q
    M, s, Nt = np.linalg.svd(K, full_matrices=False)
    q = min(A.shape[1], B.shape[1])
    U = scipy.linalg.solve_triangular(RA, M[:, :q])
    V = scipy.linalg.solve_triangular(RB, Nt.T[:, :q])
    return CcaResult(sigmas=s[:q], U=U, V=V, lambda1=float(lambda1), lambda2=float(lambda2), q=q)


def solve_sketched_cca(A, B, lambda1: float, lambda2: float, spec: sk.SketchSpec) -> CcaResult:
    """Exact CCA of the pair (SA, SB) with one shared sketch S.

    The one spec is applied to both views in one `apply` call, so the same
    draw of S, constructed once, hits both; sketching them with different
    seeds breaks the guarantee.
    """
    if A.shape[0] != B.shape[0]:
        raise ValueError("views must share the row count")
    return solve_exact_cca(*sk.apply(spec, A, B), lambda1, lambda2)


def cca_sketch_size(policy: sk.SizePolicy, sd_max: float, eps: float) -> int:
    return sk.recommend_sizes(policy, sd_max, eps, "cca")


def validate_cca(A, B, lambda1, lambda2, candidate: CcaResult, exact: CcaResult, eta: float) -> CcaValidation:
    """Check conditions (a) correlation deviation, (b) constraint deviation
    (max absolute entry), (c) diagonal alignment, and the trace gap per
    prefix length L. Pass iff (a), (b), (c) are all <= eta.
    """
    if candidate.q != exact.q:
        raise ValueError("candidate and exact results must share q")
    q = exact.q
    sig_dev = float(np.max(np.abs(candidate.sigmas - exact.sigmas)))
    GA = gram(A) + lambda1 * np.eye(A.shape[1])
    GB = gram(B) + lambda2 * np.eye(B.shape[1])
    C = gram(A, B)
    dev_a = float(np.max(np.abs(candidate.U.T @ GA @ candidate.U - np.eye(q))))
    dev_b = float(np.max(np.abs(candidate.V.T @ GB @ candidate.V - np.eye(q))))
    cross = candidate.U.T @ C @ candidate.V
    align_dev = float(np.max(np.abs(np.diag(cross) - exact.sigmas)))
    cross_exact = exact.U.T @ C @ exact.V
    gaps = [
        float(np.trace(cross[:L, :L]) - np.trace(cross_exact[:L, :L])) for L in range(1, q + 1)
    ]
    cons_dev = max(dev_a, dev_b)
    return CcaValidation(
        eta=float(eta),
        max_sigma_dev=sig_dev,
        max_constraint_dev=cons_dev,
        max_alignment_dev=align_dev,
        trace_gaps=gaps,
        passed=(sig_dev <= eta and cons_dev <= eta and align_dev <= eta),
    )
