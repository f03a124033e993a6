"""Reference answers and pass rules, computed with numpy and scipy only.

Nothing here imports regsketch or trusts an objective the program reports:
every check recomputes the objective, or the CCA conditions, from the
returned factors and compares it with a reference computed here.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse

# Relative tolerance for an unsketched answer against its reference.
EXACT_RTOL = 1e-7

# The unsketched group-lasso path is an iterative prox solver with its own
# stopping rule, so its objective is held to a looser relative tolerance.
GROUP_LASSO_EXACT_RTOL = 1e-6

# FISTA stops when a step moves X by less than FISTA_TOL relative to |X|,
# or after FISTA_MAX_ITER steps.
FISTA_TOL = 1e-15
FISTA_MAX_ITER = 200_000


class CheckFailed(AssertionError):
    """An output of the program failed its reference check."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _dense(M) -> np.ndarray:
    return M.toarray() if scipy.sparse.issparse(M) else np.asarray(M, dtype=np.float64)


# -- ridge -----------------------------------------------------------------


def ridge_objective(A, b, lam: float, x) -> float:
    r = A @ x - b
    return float(r @ r + lam * (x @ x))


def ridge_reference(A, b, lam: float) -> dict:
    """Least squares on the stacked system [A; sqrt(lam) I] x = [b; 0]."""
    d = A.shape[1]
    stacked = np.vstack([_dense(A), np.sqrt(lam) * np.eye(d)])
    rhs = np.concatenate([np.asarray(b, dtype=np.float64), np.zeros(d)])
    x, *_ = scipy.linalg.lstsq(stacked, rhs, lapack_driver="gelsy")
    return {"x": x, "objective": ridge_objective(A, b, lam, x)}


def check_ridge(ref: dict, A, b, lam: float, x, eps: float | None) -> float:
    """eps=None: x must match the reference solution; else objective <= (1+eps) opt."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    obj = ridge_objective(A, b, lam, x)
    opt = ref["objective"]
    if eps is None:
        rel = np.linalg.norm(x - ref["x"]) / max(np.linalg.norm(ref["x"]), 1e-300)
        _require(rel <= EXACT_RTOL, f"ridge exact: |x - x_ref|/|x_ref| = {rel:.3e}")
        _require(abs(obj - opt) <= EXACT_RTOL * opt, f"ridge exact: objective {obj!r} vs {opt!r}")
    else:
        _require(obj <= (1.0 + eps) * opt, f"ridge sketched: objective ratio {obj / opt:.6f} > 1+{eps}")
    return obj / opt


# -- ridge low-rank ----------------------------------------------------------


def lowrank_objective(A, Y, X, lam: float) -> float:
    R = Y @ X - A
    return float(np.sum(R * R) + lam * (np.sum(Y * Y) + np.sum(X * X)))


def lowrank_optimum(sigma: np.ndarray, k: int, lam: float) -> float:
    """Closed-form optimum from A's singular values:
    sum_{i<=k} [min(s_i, lam)^2 + 2 lam (s_i - lam)_+] + sum_{i>k} s_i^2."""
    top, rest = sigma[:k], sigma[k:]
    return float(
        np.sum(np.minimum(top, lam) ** 2 + 2.0 * lam * np.maximum(top - lam, 0.0)) + np.sum(rest**2)
    )


def lowrank_reference(A, k: int, lam: float) -> dict:
    sigma = scipy.linalg.svdvals(_dense(A))
    return {"objective": lowrank_optimum(sigma, k, lam)}


def check_lowrank(ref: dict, A, Y, X, lam: float, eps: float | None) -> float:
    obj = lowrank_objective(A, Y, X, lam)
    opt = ref["objective"]
    if eps is None:
        _require(abs(obj - opt) <= EXACT_RTOL * opt, f"lowrank exact: objective {obj!r} vs {opt!r}")
    else:
        _require(obj <= (1.0 + eps) * opt, f"lowrank sketched: objective ratio {obj / opt:.6f} > 1+{eps}")
    return obj / opt


# -- regularized CCA ---------------------------------------------------------


def cca_reference(A, B, lam1: float, lam2: float) -> dict:
    """Correlations from Cholesky-whitened Gram matrices.

    With G_A = A'A + lam1 I = L_A L_A' and G_B likewise, the regularized
    canonical correlations are the singular values of L_A^{-1} A'B L_B^{-T}.
    The Gram matrices are kept for the condition checks.
    """
    GA = _dense(A.T @ A) + lam1 * np.eye(A.shape[1])
    GB = _dense(B.T @ B) + lam2 * np.eye(B.shape[1])
    C = _dense(A.T @ B)
    LA = np.linalg.cholesky(GA)
    LB = np.linalg.cholesky(GB)
    W = scipy.linalg.solve_triangular(LA, C, lower=True)
    W = scipy.linalg.solve_triangular(LB, W.T, lower=True).T
    sigmas = scipy.linalg.svdvals(W)
    return {"GA": GA, "GB": GB, "C": C, "sigmas": sigmas[: min(A.shape[1], B.shape[1])]}


def cca_deviations(ref: dict, sigmas, U, V) -> dict:
    """The three eta conditions of an approximate regularized CCA:
    correlation deviation, constraint deviation U'G_A U = V'G_B V = I (max
    entry), and diagonal alignment diag(U'A'B V) = sigma."""
    q = ref["sigmas"].size
    sigmas = np.asarray(sigmas, dtype=np.float64)
    _require(sigmas.shape == (q,) and U.shape[1] == q and V.shape[1] == q, "cca: wrong number of pairs")
    eye = np.eye(q)
    return {
        "sigma": float(np.max(np.abs(sigmas - ref["sigmas"]))),
        "constraint": float(
            max(np.max(np.abs(U.T @ ref["GA"] @ U - eye)), np.max(np.abs(V.T @ ref["GB"] @ V - eye)))
        ),
        "alignment": float(np.max(np.abs(np.diag(U.T @ ref["C"] @ V) - ref["sigmas"]))),
    }


def check_cca(ref: dict, sigmas, U, V, eta: float | None) -> float:
    """eta=None: every deviation within EXACT_RTOL; else every deviation <= eta."""
    dev = cca_deviations(ref, sigmas, U, V)
    limit = EXACT_RTOL if eta is None else eta
    for name, value in dev.items():
        _require(value <= limit, f"cca {'exact' if eta is None else 'sketched'}: {name} deviation {value:.3e} > {limit}")
    return max(dev.values())


# -- group lasso (sum of row norms) -------------------------------------------


def group_lasso_objective(A, B, mu: float, X) -> float:
    R = A @ X - B
    return float(np.sum(R * R) + mu * np.sum(np.linalg.norm(X, axis=1)))


def group_lasso_reference(A, B, mu: float) -> dict:
    """FISTA with restarts on min ||AX - B||_F^2 + mu * sum_i ||X_i||.

    Iterates on the Gram form (A'A, A'B), so each step costs O(d^2 d').
    """
    G = A.T @ A
    H = A.T @ B
    step = 1.0 / (2.0 * scipy.linalg.eigvalsh(G)[-1])

    def prox(V, t):
        norms = np.linalg.norm(V, axis=1, keepdims=True)
        return np.maximum(1.0 - t / np.maximum(norms, 1e-300), 0.0) * V

    X = np.zeros(H.shape)
    Z, t = X, 1.0
    for _ in range(FISTA_MAX_ITER):
        X_next = prox(Z - step * 2.0 * (G @ Z - H), step * mu)
        moved = np.linalg.norm(X_next - X)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        if np.sum((Z - X_next) * (X_next - X)) > 0:  # gradient restart
            t_next = 1.0
        Z = X_next + ((t - 1.0) / t_next) * (X_next - X)
        X, t = X_next, t_next
        if moved <= FISTA_TOL * max(np.linalg.norm(X), 1e-300):
            break
    return {"X": X, "objective": group_lasso_objective(A, B, mu, X)}


def check_group_lasso(ref: dict, A, B, mu: float, X, eps: float | None) -> float:
    """eps=None: objective within GROUP_LASSO_EXACT_RTOL of FISTA's; else <= (1+eps) opt."""
    obj = group_lasso_objective(A, B, mu, X)
    opt = ref["objective"]
    if eps is None:
        _require(abs(obj - opt) <= GROUP_LASSO_EXACT_RTOL * opt, f"group lasso exact: objective {obj!r} vs {opt!r}")
    else:
        _require(obj <= (1.0 + eps) * opt, f"group lasso sketched: objective ratio {obj / opt:.6f} > 1+{eps}")
    return obj / opt
