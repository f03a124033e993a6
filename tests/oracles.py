"""Reference solvers that only the tests use."""

import numpy as np

from regsketch.la import as_dense, make_rng
from regsketch.lowrank import objective_value

ALS_ITERS = 500  # sweep cap of als_reference
ALS_TOL = 1e-12  # relative objective decrease at which als_reference stops


def als_reference(A, k: int, lam: float, seed: int = 0):
    """Alternating-least-squares oracle for the ridge low-rank objective."""
    Ad = as_dense(A)
    rng = make_rng(seed, 23)
    Y = rng.standard_normal((Ad.shape[0], k)) * 0.1
    prev = np.inf
    for _ in range(ALS_ITERS):
        X = np.linalg.solve(Y.T @ Y + lam * np.eye(k), Y.T @ Ad)
        Y = np.linalg.solve(X @ X.T + lam * np.eye(k), X @ Ad.T).T
        obj = objective_value(Ad, Y, X, lam)
        if prev - obj < ALS_TOL * max(obj, 1.0):
            break
        prev = obj
    return Y, X, objective_value(Ad, Y, X, lam)


FISTA_TOL = 1e-15  # relative move of X at which fista_reference stops
FISTA_ITERS = 200_000  # step cap of fista_reference


def fista_reference(A, B, f):
    """FISTA with gradient restart on min ||A X - B||_F^2 + f(X), run to
    convergence: until a step moves X by at most FISTA_TOL relative to |X|.

    f needs a prox. The momentum restarts (t = 1, no extrapolation) whenever
    the step points against the last move (O'Donoghue and Candes). The loop
    never reads the objective, so it shares no stop rule with genreg's.
    """
    G = A.T @ A
    H = A.T @ B
    step = 1.0 / max(2.0 * np.linalg.eigvalsh(G)[-1], 1e-12)
    X = np.zeros(H.shape)
    Y, t = X, 1.0
    for _ in range(FISTA_ITERS):
        X_next = f.prox(Y - step * 2.0 * (G @ Y - H), step)
        moved = np.linalg.norm(X_next - X)
        if np.sum((Y - X_next) * (X_next - X)) > 0:
            Y, t = X_next, 1.0
        else:
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            Y, t = X_next + ((t - 1.0) / t_next) * (X_next - X), t_next
        X = X_next
        if moved <= FISTA_TOL * max(np.linalg.norm(X), 1e-300):
            break
    return X
