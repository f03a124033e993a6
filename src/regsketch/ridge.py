"""Ridge regression: the exact oracle and one sketched solver.

`solve_sketched_rows` sketches the data rows of min ||Ax - b||^2 + lam||x||^2
down to m rows and solves the small problem. A matrix right-hand side (several
responses) goes through the same row sketch. The candidate is evaluated on the
ORIGINAL problem under the large-lambda guard: if it is worse than x = 0, x = 0
is returned instead, so the returned objective never exceeds ||b||^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from . import sketch as sk
from .la import as_dense, gram


@dataclass(frozen=True)
class RidgeProblem:
    A: object  # (n, d) dense or CSR
    rhs: object  # (n,) vector or (n, d') matrix
    lam: float

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")
        n = self.A.shape[0]
        r = np.asarray(self.rhs) if not scipy.sparse.issparse(self.rhs) else self.rhs
        if r.shape[0] != n:
            raise ValueError("A and rhs row counts differ")


@dataclass
class RidgeSolution:
    x: np.ndarray
    objective: float
    min_norm: bool = False  # lam = 0 with rank-deficient A: pseudo-inverse fallback
    guard_applied: bool = False  # large-lambda guard replaced the candidate by x = 0


def objective_value(p: RidgeProblem, x) -> float:
    R = p.A @ x - as_dense(p.rhs)
    return float(np.sum(R * R) + p.lam * np.sum(np.asarray(x) ** 2))


def _solve_ridge(A, B, lam: float):
    """Normal-equation solve, choosing the d x d or n x n formulation by min(n, d).

    A may be CSR: its Grams and A'B come from `la.gram`, and only the
    lam = 0 least-squares fallback densifies it. Returns (X, min_norm_flag)."""
    n, d = A.shape
    if lam == 0.0:
        X, _, rank, _ = np.linalg.lstsq(as_dense(A), B, rcond=None)
        return X, rank < d
    if n >= d:
        return _solve_gram(gram(A), gram(A, B), lam), False
    return A.T @ _solve_gram(gram(A.T), B, lam), False


def _solve_gram(G, C, lam: float):
    """X with (G + lam I) X = C, for a Gram G and lam > 0, by Cholesky."""
    return scipy.linalg.solve(G + lam * np.eye(G.shape[0]), C, assume_a="pos")


def solve_exact(p: RidgeProblem) -> RidgeSolution:
    """Exact ridge solution x* = (A'A + lam I)^{-1} A'b (or the n x n twin)."""
    B = as_dense(p.rhs)
    squeeze = B.ndim == 1
    X, min_norm = _solve_ridge(p.A, B if not squeeze else B[:, None], p.lam)
    if squeeze:
        X = X[:, 0]
    return RidgeSolution(x=X, objective=objective_value(p, X), min_norm=min_norm)


def _guarded(p: RidgeProblem, x) -> RidgeSolution:
    """Return x scored on the original problem, or x = 0 if that is no worse."""
    B = as_dense(p.rhs)
    obj, zero_obj = objective_value(p, x), float(np.sum(B * B))
    guard = not obj < zero_obj
    if guard:
        x = np.zeros((p.A.shape[1],) if B.ndim == 1 else (p.A.shape[1], B.shape[1]))
        obj = zero_obj
    return RidgeSolution(x=x, objective=obj, guard_applied=guard)


def solve_sketched_rows(p: RidgeProblem, spec: sk.SketchSpec) -> RidgeSolution:
    """Row-sketched ridge: solve the m-row problem min ||S(Ax-b)||^2 + lam||x||^2.

    S is `spec`, which may be a composition (`sketch.compose`). The
    lam||x||^2 term is kept exact (only the data rows are sketched). A matrix
    rhs (several responses) shares the one sketch and the one factorization
    of the small problem. SA goes to the solve as `apply` returns it, so an
    identity spec leaves a CSR A sparse, read through `la.gram`.
    """
    B = as_dense(p.rhs)
    squeeze = B.ndim == 1
    # one apply call draws S once for A and B
    SA, SB = sk.apply(spec, p.A, B[:, None] if squeeze else B)
    SB = as_dense(SB)
    X, _ = _solve_ridge(SA, SB, p.lam)
    return _guarded(p, X[:, 0] if squeeze else X)
