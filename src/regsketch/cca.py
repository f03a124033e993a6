"""Regularized canonical correlation analysis.

Exact route: lambda-QR of each view, then the singular values of
Q_A' Q_B (regularized Bjorck-Golub). Sketched route: the same computation on
(SA, SB) with one shared sketch. The validator checks the three defining
conditions of an eta-approximate regularized CCA plus the per-prefix trace
gap against the exact solver.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import sketch as sk
from .la import as_dense, lambda_qr


@dataclass
class CcaResult:
    sigmas: np.ndarray  # length q, nonincreasing, in [0, 1] up to tolerance
    U: np.ndarray  # d x q canonical weights for the A view
    V: np.ndarray  # d' x q canonical weights for the B view
    lambda1: float
    lambda2: float
    q: int

    def to_json(self) -> str:
        return json.dumps(
            {
                "sigmas": [float(s) for s in self.sigmas],
                "lambda1": self.lambda1,
                "lambda2": self.lambda2,
                "q": self.q,
            }
        )


@dataclass
class CcaValidation:
    eta: float
    max_sigma_dev: float
    max_constraint_dev: float
    max_alignment_dev: float
    trace_gaps: list  # trace_gap(L) for L = 1..q
    passed: bool

    def to_json(self) -> str:
        return json.dumps(
            {
                "eta": self.eta,
                "max_sigma_dev": self.max_sigma_dev,
                "max_constraint_dev": self.max_constraint_dev,
                "max_alignment_dev": self.max_alignment_dev,
                "trace_gaps": [float(g) for g in self.trace_gaps],
                "passed": self.passed,
            }
        )


def solve_exact_cca(A, B, lambda1: float, lambda2: float) -> CcaResult:
    """Regularized Bjorck-Golub: correlations are the singular values of
    Q_A' Q_B; weights are R_A^{-1} M and R_B^{-1} N from its SVD.

    lambda = 0 is allowed only when the corresponding view has full column
    rank (singular R is rejected).
    """
    Ad, Bd = as_dense(A), as_dense(B)
    if Ad.shape[0] != Bd.shape[0]:
        raise ValueError("views must share the row count")
    fa = lambda_qr(Ad, lambda1)
    fb = lambda_qr(Bd, lambda2)
    if fa.singular or fb.singular:
        raise ValueError("rank-deficient view with lambda = 0: R is singular")
    M, s, Nt = np.linalg.svd(fa.Q.T @ fb.Q, full_matrices=False)
    q = min(Ad.shape[1], Bd.shape[1])
    U = scipy.linalg.solve_triangular(fa.R, M[:, :q])
    V = scipy.linalg.solve_triangular(fb.R, Nt.T[:, :q])
    return CcaResult(sigmas=s[:q], U=U, V=V, lambda1=float(lambda1), lambda2=float(lambda2), q=q)


def solve_sketched_cca(A, B, lambda1: float, lambda2: float, spec: sk.SketchSpec) -> CcaResult:
    """Exact CCA of the pair (SA, SB) with one shared sketch S.

    The one spec is applied to both views, so the same draw of S hits both;
    sketching them with different seeds breaks the guarantee.
    """
    if A.shape[0] != B.shape[0]:
        raise ValueError("views must share the row count")
    return solve_exact_cca(sk.apply(spec, A), sk.apply(spec, B), lambda1, lambda2)


def cca_sketch_size(policy: sk.SizePolicy, sd_max: float, eps: float) -> int:
    return sk.recommend_sizes(policy, sd_max, eps, "cca")


def validate_cca(A, B, lambda1, lambda2, candidate: CcaResult, exact: CcaResult, eta: float) -> CcaValidation:
    """Check conditions (a) correlation deviation, (b) constraint deviation
    (max absolute entry), (c) diagonal alignment, and the trace gap per
    prefix length L. Pass iff (a), (b), (c) are all <= eta.
    """
    if candidate.q != exact.q:
        raise ValueError("candidate and exact results must share q")
    Ad, Bd = as_dense(A), as_dense(B)
    q = exact.q
    sig_dev = float(np.max(np.abs(candidate.sigmas - exact.sigmas)))
    GA = Ad.T @ Ad + lambda1 * np.eye(Ad.shape[1])
    GB = Bd.T @ Bd + lambda2 * np.eye(Bd.shape[1])
    dev_a = float(np.max(np.abs(candidate.U.T @ GA @ candidate.U - np.eye(q))))
    dev_b = float(np.max(np.abs(candidate.V.T @ GB @ candidate.V - np.eye(q))))
    cross = candidate.U.T @ (Ad.T @ (Bd @ candidate.V))
    align_dev = float(np.max(np.abs(np.diag(cross) - exact.sigmas)))
    cross_exact = exact.U.T @ (Ad.T @ (Bd @ exact.V))
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
