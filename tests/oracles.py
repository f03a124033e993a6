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
