"""Ridge regression: exact oracle, sketched row-reduction (tall regime),
sketched column-reduction (wide regime), and multiple-response variants.

Every sketched solver evaluates its candidate on the ORIGINAL problem and
applies the large-lambda guard: if the candidate is worse than x = 0, x = 0
is returned instead, so the returned objective never exceeds ||b||^2.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse

from . import sketch as sk
from .la import as_dense, derive_seed, make_rng

_RIDGE_SOLVE_TOL = 1e-8  # relative normal-equation residual contract


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
    method: str
    sketches: tuple = field(default_factory=tuple)
    wall_time: float = 0.0
    min_norm: bool = False  # lam = 0 with rank-deficient A: pseudo-inverse fallback
    guard_applied: bool = False  # large-lambda guard replaced the candidate by x = 0

    def to_json(self) -> str:
        return json.dumps(
            {
                "objective": self.objective,
                "method": self.method,
                "sketches": [json.loads(s.to_json()) for s in self.sketches],
                "wall_time": self.wall_time,
                "min_norm": self.min_norm,
                "guard_applied": self.guard_applied,
                "x_shape": list(np.asarray(self.x).shape),
            }
        )


def objective_value(p: RidgeProblem, x) -> float:
    R = p.A @ x - as_dense(p.rhs)
    return float(np.sum(R * R) + p.lam * np.sum(np.asarray(x) ** 2))


def _solve_dense_ridge(A, B, lam: float):
    """Normal-equation solve, choosing the d x d or n x n formulation by min(n, d).

    Returns (X, min_norm_flag)."""
    n, d = A.shape
    if lam == 0.0:
        X, _, rank, _ = np.linalg.lstsq(A, B, rcond=None)
        return X, rank < d
    if n >= d:
        G = A.T @ A + lam * np.eye(d)
        return scipy.linalg.solve(G, A.T @ B, assume_a="pos"), False
    G = A @ A.T + lam * np.eye(n)
    return A.T @ scipy.linalg.solve(G, B, assume_a="pos"), False


def solve_exact(p: RidgeProblem) -> RidgeSolution:
    """Exact ridge solution x* = (A'A + lam I)^{-1} A'b (or the n x n twin)."""
    t0 = time.perf_counter()
    A = as_dense(p.A)
    B = as_dense(p.rhs)
    squeeze = B.ndim == 1
    X, min_norm = _solve_dense_ridge(A, B if not squeeze else B[:, None], p.lam)
    if squeeze:
        X = X[:, 0]
    return RidgeSolution(
        x=X,
        objective=objective_value(p, X),
        method="exact",
        wall_time=time.perf_counter() - t0,
        min_norm=min_norm,
    )


def _guarded(p: RidgeProblem, candidates, method, specs, t0) -> RidgeSolution:
    """Pick the best candidate by original-problem objective, guarded by x = 0."""
    B = as_dense(p.rhs)
    zero = np.zeros((p.A.shape[1],) if B.ndim == 1 else (p.A.shape[1], B.shape[1]))
    best_x, best_obj = zero, float(np.sum(B * B))
    guard = True
    for x in candidates:
        obj = objective_value(p, x)
        if obj < best_obj:
            best_x, best_obj, guard = x, obj, False
    return RidgeSolution(
        x=best_x,
        objective=best_obj,
        method=method,
        sketches=tuple(specs),
        wall_time=time.perf_counter() - t0,
        guard_applied=guard,
    )


def solve_sketched_rows(
    p: RidgeProblem,
    s1: sk.SketchSpec,
    s2: sk.SketchSpec | None = None,
    repeats: int = 1,
) -> RidgeSolution:
    """Row-sketched ridge: solve the m-row problem min ||S(Ax-b)||^2 + lam||x||^2.

    S = s2∘s1 when s2 is given. The lam||x||^2 term is kept exact (only the
    data rows are sketched). Repeats > 1 draws independent sketches and keeps
    the candidate with the smallest original objective.
    """
    t0 = time.perf_counter()
    spec = sk.compose(s2, s1) if s2 is not None else s1
    B = as_dense(p.rhs)
    squeeze = B.ndim == 1
    B2 = B[:, None] if squeeze else B
    candidates = []
    for t in range(repeats):
        sp = spec if t == 0 else spec.with_seed(derive_seed(spec.seed, 101 + t))
        # the seed fixes S, so sketching A and B apart meets one draw
        SA, SB = as_dense(sk.apply(sp, p.A)), as_dense(sk.apply(sp, B2))
        X, _ = _solve_dense_ridge(SA, SB, p.lam)
        candidates.append(X[:, 0] if squeeze else X)
    specs = [s1] + ([s2] if s2 is not None else [])
    return _guarded(p, candidates, "sketched_rows", specs, t0)


def solve_sketched_mr(
    p: RidgeProblem,
    s1: sk.SketchSpec,
    s2: sk.SketchSpec | None = None,
    repeats: int = 1,
) -> RidgeSolution:
    """Multiple-response row-sketched ridge; d' = 1 reduces to solve_sketched_rows."""
    sol = solve_sketched_rows(p, s1, s2, repeats=repeats)
    return dataclasses.replace(sol, method="sketched_mr")


def estimate_top_singular_value(A, iters: int = 10, seed: int = 0) -> float:
    """Power-method estimate of sigma_1, inflated by a 1.1 safety factor."""
    rng = make_rng(seed, 13)
    v = rng.standard_normal(A.shape[1])
    v /= np.linalg.norm(v)
    s = 0.0
    for _ in range(iters):
        w = A.T @ (A @ v)
        s = float(np.linalg.norm(w))
        if s == 0.0:
            return 0.0
        v = w / s
    return 1.1 * float(np.sqrt(s))


def recommend_wide_size(
    policy: sk.SizePolicy, A, lam: float, eps: float, sigma1: float | None = None
):
    """Sketch size for the wide-regime solver.

    Uses the tightened error parameter eps' = (eps/2) / (1 + 3 sigma1^2/lam)
    with a power-method sigma1 estimate. The size is clamped at d (the number
    of rows being sketched); `clamped` reports when the clamp voided the
    nominal bound.
    """
    if lam <= 0:
        raise ValueError("wide-regime sizing needs lam > 0")
    n, d = A.shape
    if sigma1 is None:
        sigma1 = estimate_top_singular_value(A)
    eps_p = (eps / 2.0) / (1.0 + 3.0 * sigma1**2 / lam)
    m = max(1, int(np.ceil(policy.k_sparse * n**2 / eps_p**2)))
    return min(m, d), m > d


def solve_sketched_cols(p: RidgeProblem, spec: sk.SketchSpec) -> RidgeSolution:
    """Wide-regime ridge via a sketch of A's rows-of-the-transpose.

    Forms B = S A' (m x n), c = A A' b, solves the stationarity system
    (lam B'B + (B'B)^2) y = c by pseudo-inverse, and returns x = A' y with
    the objective evaluated on the original problem (guard applied).
    Rejected for lam = 0, where the row-space reduction is invalid.
    """
    if p.lam == 0.0:
        raise ValueError("solve_sketched_cols requires lam > 0")
    b = as_dense(p.rhs)
    if b.ndim != 1:
        raise ValueError("wide-regime solver handles a single response vector")
    t0 = time.perf_counter()
    AT = p.A.T.tocsr() if scipy.sparse.issparse(p.A) else as_dense(p.A).T
    Bm = as_dense(sk.apply(spec, AT))  # m x n
    c = p.A @ (p.A.T @ b)
    G = Bm.T @ Bm
    M = p.lam * G + G @ G
    y = np.linalg.pinv(M, rcond=1e-12) @ c
    x = AT @ y
    return _guarded(p, [x], "sketched_cols", [spec], t0)
