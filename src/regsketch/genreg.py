"""General orthogonally-invariant regularizers.

Matrix measures carry caller-declared invariance flags that are spot-checked
by randomized trials at registration (invariance of a black-box evaluator is
undecidable, so falsification is the honest contract). On top of them sit:

* the SVD reduction of regularized low-rank approximation to a k x k
  diagonal core problem, with closed-form diagonal solvers;
* the sketched pipeline for general multiple-response regression: the
  small solver on the left-sketched problem when the right sketch of the
  response is the identity, and otherwise an affine sketch, a QR change of
  basis, the small solve and a triangular back-solve; its accelerated
  (monotone FISTA with restart) small solver iterates on the Gram of the
  sketched problem;
* general low-rank approximation, which runs `lowrank`'s two-sided
  sketched pipeline on A as given, with a diagonal solver in the core.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
import scipy.sparse

from . import lowrank, ridge
from . import sketch as sk
from .la import RANK_RTOL, as_dense, derive_seeds, gram, make_rng, short_gram_eigvalsh
from .statdim import singular_values as _sv


class MeasureFlagError(ValueError):
    """A declared invariance flag failed its randomized spot-check, or a
    pipeline hypothesis on the flags is not met."""


@dataclass(frozen=True)
class MeasureFlags:
    padding_invariant: bool = False
    left_orthogonal_invariant: bool = False
    right_orthogonal_invariant: bool = False
    subadditive: bool = False


@dataclass(frozen=True)
class MatrixMeasure:
    name: str
    evaluate: callable  # matrix -> float
    flags: MeasureFlags
    prox: callable = None  # prox(V, t) for t * f, when available


@dataclass(frozen=True)
class PairMeasure:
    name: str
    evaluate: callable  # (Y, X) -> float
    left_flags: MeasureFlags
    right_flags: MeasureFlags


def _rand_orthogonal(rng, n):
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return Q


SPOT_CHECK_TRIALS = 5  # random matrices each declared flag is tested on
SPOT_CHECK_TOL = 1e-8  # relative slack of each tested (in)equality


def spot_check_measure(m: MatrixMeasure):
    """Randomized falsification of the declared-true flags; raises on failure."""
    rng = make_rng(0, 41)
    for _ in range(SPOT_CHECK_TRIALS):
        A = rng.standard_normal((5, 4))
        base = m.evaluate(A)
        scale = max(abs(base), 1.0)
        if m.flags.left_orthogonal_invariant:
            if abs(m.evaluate(_rand_orthogonal(rng, 5) @ A) - base) > SPOT_CHECK_TOL * scale:
                raise MeasureFlagError(f"{m.name}: left orthogonal invariance fails")
        if m.flags.right_orthogonal_invariant:
            if abs(m.evaluate(A @ _rand_orthogonal(rng, 4)) - base) > SPOT_CHECK_TOL * scale:
                raise MeasureFlagError(f"{m.name}: right orthogonal invariance fails")
        if m.flags.padding_invariant:
            padded = np.vstack([A, np.zeros((2, 4))])
            if abs(m.evaluate(padded) - base) > SPOT_CHECK_TOL * scale:
                raise MeasureFlagError(f"{m.name}: row-padding invariance fails")
            padded = np.hstack([A, np.zeros((5, 3))])
            if abs(m.evaluate(padded) - base) > SPOT_CHECK_TOL * scale:
                raise MeasureFlagError(f"{m.name}: column-padding invariance fails")
        if m.flags.subadditive:
            Bm = rng.standard_normal((5, 4))
            if m.evaluate(A + Bm) > m.evaluate(A) + m.evaluate(Bm) + SPOT_CHECK_TOL:
                raise MeasureFlagError(f"{m.name}: subadditivity fails")
    return m


def _schatten(A, p):
    s = _sv(A)
    if math.isinf(p):
        return float(s[0]) if s.size else 0.0
    return float(np.sum(s**p) ** (1.0 / p))


def _vnorm(A, p):
    rows = np.linalg.norm(as_dense(A), axis=1)
    return float(np.sum(rows**p) ** (1.0 / p))


def _prox_fro_sq(V, t):
    # prox of t * ||.||_F^2
    return V / (1.0 + 2.0 * t)


def _prox_fro(V, t):
    nrm = np.linalg.norm(V)
    if nrm <= t:
        return np.zeros_like(V)
    return (1.0 - t / nrm) * V


def _prox_nuclear(V, t):
    U, s, Vt = np.linalg.svd(V, full_matrices=False)
    return (U * np.maximum(s - t, 0.0)) @ Vt


def _prox_vnorm1(V, t):
    nrm = np.linalg.norm(V, axis=1, keepdims=True)
    # rows with nrm <= t go to zero; the floor at t keeps t / nrm from overflowing
    scale = np.maximum(1.0 - t / np.maximum(nrm, max(t, 1e-300)), 0.0)
    return scale * V


_ORTH = MeasureFlags(True, True, True, True)


def builtin_measures() -> dict:
    """Registry of shipped measures, flag-checked at construction."""
    defs = [
        MatrixMeasure(
            "frobenius_sq",
            lambda A: float(np.sum(as_dense(A) ** 2)),
            MeasureFlags(True, True, True, False),  # squared norm: not subadditive
            prox=_prox_fro_sq,
        ),
        MatrixMeasure("nuclear", lambda A: _schatten(A, 1), _ORTH, prox=_prox_nuclear),
        MatrixMeasure("schatten_2", lambda A: _schatten(A, 2), _ORTH, prox=_prox_fro),
        MatrixMeasure("schatten_inf", lambda A: _schatten(A, math.inf), _ORTH),
        MatrixMeasure(
            "vnorm_1",
            lambda A: _vnorm(A, 1),
            MeasureFlags(True, False, True, True),
            prox=_prox_vnorm1,
        ),
        MatrixMeasure(
            "vnorm_2",
            lambda A: _vnorm(A, 2),
            MeasureFlags(True, False, True, True),
            prox=_prox_fro,
        ),
        MatrixMeasure(
            "min_fro_nuclear",
            lambda A: min(_schatten(A, 2), _schatten(A, 1)),
            MeasureFlags(True, True, True, False),
        ),
    ]
    return {m.name: spot_check_measure(m) for m in defs}


def scaled(m: MatrixMeasure, c: float) -> MatrixMeasure:
    prox = (lambda V, t, _p=m.prox, _c=c: _p(V, t * _c)) if m.prox is not None else None
    return replace(m, name=f"{c}*{m.name}", evaluate=lambda A, _e=m.evaluate, _c=c: _c * _e(A), prox=prox)


def ridge_pair(lam: float) -> PairMeasure:
    """f(Y, X) = lam * (||Y||_F^2 + ||X||_F^2)."""
    fl = MeasureFlags(True, True, True, False)
    return PairMeasure(
        name=f"ridge({lam})",
        evaluate=lambda Y, X: lam * (float(np.sum(Y * Y)) + float(np.sum(X * X))),
        left_flags=fl,
        right_flags=fl,
    )


def product_fro_pair(lam: float) -> PairMeasure:
    """f(Y, X) = lam * ||YX||_F^2."""
    fl = MeasureFlags(True, True, True, False)
    return PairMeasure(
        name=f"fro_product({lam})",
        evaluate=lambda Y, X: lam * float(np.sum((Y @ X) ** 2)),
        left_flags=fl,
        right_flags=fl,
    )


def nuclear_product_pair(lam: float) -> PairMeasure:
    """f(Y, X) = 2 * lam * ||YX||_(1)."""
    fl = MeasureFlags(True, True, True, False)
    return PairMeasure(
        name=f"nuclear_product({lam})",
        evaluate=lambda Y, X: 2.0 * lam * _schatten(Y @ X, 1),
        left_flags=fl,
        right_flags=fl,
    )


# ---------------------------------------------------------------------------
# diagonal core solvers (closed forms plus a scalar search for Schatten fits)
# ---------------------------------------------------------------------------

DIAG_VARIANTS = ("frob+trace", "frob+frobYX", "schattenp+trace")
BRENT_XATOL = 1e-10  # alpha tolerance of the search, times max(1, sigma_1), beside Brent's 1.5e-8 |alpha|


def diag_solver_shrink(sigma_k, lam: float, variant: str = "frob+trace", schatten_p: float = 2.0):
    """Diagonal (W*, Z*) for the shipped objective variants.

    frob+trace:      ||WZ - S||_F^2 + 2 lam ||WZ||_(1)   -> sqrt((s - lam)_+)
    frob+frobYX:     ||WZ - S||_F^2 + lam ||WZ||_F^2     -> sqrt(s / (1 + lam))
    schattenp+trace: ||WZ - S||_(p) + lam ||WZ||_(1)     -> sqrt((s - a)_+),
                     a found on [0, s_1] by scipy's bounded Brent search;
                     where several a attain the minimum, the largest.
    """
    s = np.asarray(sigma_k, dtype=np.float64)
    if np.any(np.diff(s) > 1e-12) or np.any(s < 0):
        raise ValueError("sigma_k must be nonincreasing and nonnegative")
    if variant == "frob+trace":
        w = lowrank._shrinkage(lam)(s)[0]
    elif variant == "frob+frobYX":
        w = np.sqrt(s / (1.0 + lam))
    elif variant == "schattenp+trace":
        if s.size == 0:
            return s.copy(), s.copy()

        def scalar_obj(alpha):
            shrunk = np.maximum(s - alpha, 0.0)
            fit = np.minimum(s, alpha)
            if math.isinf(schatten_p):
                fit_term = float(fit.max(initial=0.0))
            else:
                fit_term = float(np.sum(fit**schatten_p) ** (1.0 / schatten_p))
            return fit_term + lam * float(np.sum(shrunk))

        from scipy.optimize import minimize_scalar  # here, so `import regsketch` skips scipy.optimize
        xatol = BRENT_XATOL * max(1.0, s[0])
        alpha = minimize_scalar(scalar_obj, bounds=(0.0, s[0]), method="bounded", options={"xatol": xatol}).x
        # Where the objective is flat in alpha, any alpha the search stops at
        # is optimal. Keep the largest alpha, among the search's and the
        # breakpoints s_i above it, whose objective lies within what an alpha
        # error of xatol can move it ((1 + lam) n-Lipschitz): the result then
        # does not depend on the search path, and has the fewest nonzeros.
        cands = np.concatenate([[alpha], s[s > alpha]])
        vals = np.array([scalar_obj(a) for a in cands])
        alpha = cands[vals <= vals.min() + (1.0 + lam) * s.size * xatol].max()
        w = np.sqrt(np.maximum(s - alpha, 0.0))
    else:
        raise ValueError(f"unknown variant {variant!r}; expected one of {DIAG_VARIANTS}")
    return w, w.copy()


def _require_pair_flags(pair_f: PairMeasure):
    lf, rf = pair_f.left_flags, pair_f.right_flags
    if not (lf.padding_invariant and lf.left_orthogonal_invariant):
        raise MeasureFlagError(f"{pair_f.name}: left argument must be padding + left orthogonally invariant")
    if not (rf.padding_invariant and rf.right_orthogonal_invariant):
        raise MeasureFlagError(f"{pair_f.name}: right argument must be padding + right orthogonally invariant")


def solve_diag_reduction(A, k: int, pair_f: PairMeasure, diag_solver, schatten_p: float | None = None):
    """SVD reduction of min fit(YX - A) + f(Y, X) to a k x k diagonal core.

    diag_solver(sigma_k) must return diagonal (w, z); `lowrank._svd_reduction`
    lifts them as Y = U_k diag(w), X = diag(z) V_k'. Fit term is ||.||_F^2 by
    default or the Schatten-p norm when schatten_p is given. A is passed on
    as given, so a CSR A stays sparse through the reduction and through the
    Frobenius fit, summed over row blocks; the Schatten-p fit forms the dense
    residual. The recomputed objective is returned alongside the factors.
    """
    _require_pair_flags(pair_f)
    Y, X, _ = lowrank._svd_reduction(A, k, diag_solver)
    if schatten_p is None:
        fit = lowrank.objective_value(A, Y, X, 0.0)
    else:
        fit = _schatten(Y @ X - as_dense(A), schatten_p)
    return lowrank.LowRankFactors(Y=Y, X=X, objective=fit + pair_f.evaluate(Y, X), k=k, lam=0.0)


# ---------------------------------------------------------------------------
# small solvers for the reduced regression problem min ||A Z - B||_F^2 + f(Z)
# ---------------------------------------------------------------------------


def ridge_small_solver(lam: float):
    """Exact small solver for f = lam * ||.||_F^2, by `ridge._solve_ridge`."""
    return lambda Ah, Bh: ridge._solve_ridge(Ah, Bh, lam)[0]


PROX_ITERS = 2000  # step cap of prox_small_solver
PROX_TOL = 1e-10  # objective decrease, relative to the objective, below which a step stalls


def prox_small_solver(f: MatrixMeasure):
    """Accelerated (monotone FISTA with restart) solver for
    min ||A Z - B||_F^2 + f(Z).

    Needs f.prox. The loop runs on the Gram of the problem: G = A'A,
    C = A'B and ||B||_F^2 are formed once, in O(m d (d + d')) for an m x d
    A and d' responses; each step then costs one product with G, O(d^2 d'),
    whatever m is, since G Y = G Z1 + beta (G Z1 - G Z0) by linearity.
    Step size 1/L with L = 2 lambda_max(G). A step from the extrapolated
    point Y is accepted while it lowers the objective by PROX_TOL of it
    (Beck and Teboulle's MFISTA); one that does not is kept only if it
    lowers the objective at all, and momentum restarts from the last
    accepted iterate (O'Donoghue and Candes). Only a stalled step without
    momentum stops the loop, so accepted iterates never raise the objective
    and the result is never worse than Z = 0, the first one. Every decision
    reads differences of the objective, <Z1 - Z0, G (Z1 + Z0) - 2 C> +
    f(Z1) - f(Z0), which keep their precision when ||A Z - B||^2 is tiny
    next to ||B||^2. A CSR A stays sparse: `la.gram` reads it in row blocks.
    """
    if f.prox is None:
        raise ValueError(f"measure {f.name} has no prox operator")

    def solve(Ah, Bh):
        G = gram(Ah)
        C2 = 2.0 * gram(Ah, Bh)
        L = 2.0 * np.linalg.eigvalsh(G)[-1]
        step = 1.0 / max(L, 1e-12)
        Z = np.zeros(C2.shape)
        GZ = np.zeros(C2.shape)
        fZ = f.evaluate(Z)
        obj = float(np.sum(Bh * Bh)) + fZ
        Y, GY, t = Z, GZ, 1.0
        for _ in range(PROX_ITERS):
            Zn = f.prox(Y - step * (2.0 * GY - C2), step)
            GZn = G @ Zn
            fZn = f.evaluate(Zn)
            # obj(Z) - obj(Zn) without the terms ||B||^2 and <Z, C>, whose
            # cancellation would cost eps * ||B||^2 of absolute precision
            moved = Zn - Z
            drop = fZ - fZn - float(np.sum(moved * (GZn + GZ - C2)))
            if drop >= PROX_TOL * max(abs(obj), 1.0):
                t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
                beta = (t - 1.0) / t_next
                # beta = 0 after a (re)start: the next step is a plain one, from Y = Z
                Y, GY = (Zn, GZn) if beta == 0 else (Zn + beta * moved, GZn + beta * (GZn - GZ))
                Z, GZ, fZ, t = Zn, GZn, fZn, t_next
                obj -= drop
                continue
            plain = Y is Z
            if drop > 0:
                Z, GZ, fZ = Zn, GZn, fZn
                obj -= drop
            if plain:
                break
            Y, GY, t = Z, GZ, 1.0
        return Z

    return solve


def _affine_spec(policy, rank_hint, eps, n_clamp, seed, side="left"):
    m = sk.recommend_sizes(policy, rank_hint, eps, "affine")
    return sk.countsketch_or_identity(m, n_clamp, seed, side)


def _numerical_rank(A):
    """Number of singular values of A above RANK_RTOL * sigma_1, as an SVD
    counts them.

    Costs one short-side Gram G of A and its eigvalsh
    (`la.short_gram_eigvalsh`); the SVD of A runs only when G cannot
    certify full rank. Each eigenvalue w_i lies within delta of sigma_i^2,
    so w_min - delta > RANK_RTOL^2 (w_max + delta) proves
    sigma_r > RANK_RTOL * sigma_1 with room to spare: sigma_r^2 > delta / 2
    >= (n + d) * eps * sigma_1^2 puts sigma_r 200 times or more above the
    cutoff, far beyond any rounding of the SVD, so the SVD would count r
    too. The Gram squares the condition number, so it certifies full rank
    but cannot resolve a smaller rank: rank-deficient or near-threshold
    inputs, and A = 0, take the SVD count.
    """
    w, delta = short_gram_eigvalsh(A)
    if w.size and w[0] - delta > RANK_RTOL * RANK_RTOL * (w[-1] + delta):
        return w.size
    s = _sv(A)
    if s.size == 0 or s[0] == 0:
        return 0
    return int(np.sum(s > RANK_RTOL * s[0]))


def _lift(Z1, R1, piv, SB) -> np.ndarray:
    """X = Z @ SB for the Z with Z SB' = Z1 Q', (Q, R1, piv) the basis of SB'.

    Z is zero outside the columns piv[:r], so only those rows of SB are
    multiplied, and no Z as wide as SB is tall is formed.
    """
    return scipy.linalg.solve_triangular(R1, Z1.T).T @ SB[piv[: R1.shape[0]]]


def solve_general_regression(
    A,
    B,
    f: MatrixMeasure,
    small_solver,
    eps: float,
    policy: sk.SizePolicy | None = None,
    seed: int = 0,
    identity_sketches: bool = False,
    assume_inheritance: bool = False,
):
    """Sketched reduction for min ||A X - B||_F^2 + f(X).

    Requires f to be right orthogonally invariant, padding invariant, and
    subadditive (which together give contraction reduction and embedding
    inheritance), unless assume_inheritance asserts those consequences
    directly. Returns (X_tilde, objective-on-the-original-problem).

    The sketches are sized from rank(A), read off Sh A rather than A: Sh is
    drawn at the affine size of min(n, d), an upper bound on the rank, and
    `_numerical_rank(Sh A)` costs a Gram of Sh A's rows, not of A's. A full
    rank there is rank(A); a smaller reading r redraws Sh at the affine size
    of r, on the same seed. identity_sketches makes the left sketch Sh and
    the right sketch Rh the identity and reads no rank. Whenever Rh is the
    identity, the change of basis to the row space of S B would be a
    rotation that the lift undoes (right orthogonal invariance), so X is
    small_solver(Sh A, Sh B): no S is drawn and no basis changed. With Sh
    the identity too, that is small_solver(A, B). A CSR A stays sparse: the
    sketches, the small solvers and the final A @ X all take it as it is.
    B is densified.
    """
    fl = f.flags
    if not assume_inheritance:
        if not (fl.right_orthogonal_invariant and fl.padding_invariant and fl.subadditive):
            raise MeasureFlagError(
                f"{f.name}: needs roi + padding + subadditive flags "
                "(or assume_inheritance=True)"
            )
    elif not fl.right_orthogonal_invariant:
        raise MeasureFlagError(f"{f.name}: right orthogonal invariance is required")
    if not scipy.sparse.issparse(A):
        A = as_dense(A)
    Bd = as_dense(B)
    if identity_sketches:
        Rh = Sh = sk.identity()
        ShA = A
    else:
        policy = policy or sk.SizePolicy()
        seeds = derive_seeds(seed, 51, 3)
        # rank(Sh A) <= rank(A) <= min(n, d): a full rank read at that size
        # is rank(A), and a smaller one redraws Sh at its own affine size
        r_max = min(A.shape)
        Sh = _affine_spec(policy, r_max, eps, A.shape[0], seeds[2])
        ShA = sk.apply(Sh, A)
        r = max(_numerical_rank(ShA), 1)
        if r < r_max:
            Sh = _affine_spec(policy, r, eps, A.shape[0], seeds[2])
            ShA = sk.apply(Sh, A)
        Rh = _affine_spec(policy, r, eps, Bd.shape[1], seeds[1], side="right")
    if Rh.variant == "identity":
        # the change of basis would be a rotation that the lift undoes
        X = small_solver(ShA, sk.apply(Sh, Bd))
    else:
        S = _affine_spec(policy, r, eps, A.shape[0], seeds[0])
        SB = as_dense(sk.apply(S, Bd))
        ShBRh = as_dense(sk.apply(Sh, as_dense(sk.apply(Rh, Bd))))
        Q, R1, piv, _ = lowrank._pivoted_col_basis(as_dense(sk.apply(Rh, SB)).T)
        X = _lift(small_solver(ShA, ShBRh @ Q), R1, piv, SB)
    del ShA  # the n x d' residual below sets the peak: do not hold Sh A across it
    Rm = A @ X - Bd
    return X, float(np.sum(Rm * Rm)) + f.evaluate(X)


def solve_general_lowrank(
    A,
    k: int,
    pair_f: PairMeasure,
    diag_solver,
    eps: float,
    policy: sk.SizePolicy | None = None,
    seed: int = 0,
):
    """Two-sided sketched reduction for min ||YX - A||_F^2 + f(Y, X).

    Affine sketches S (left) and R (right) and inner sketches S-hat and
    R-hat feed the two-sided core of `lowrank`, whose reduced k x k problem
    is solved by the SVD reduction with diag_solver. A CSR A stays sparse:
    it is only sketched on the left and multiplied by the d x k R Z_R in
    the lift, and the returned objective, recomputed on A, sums the fit over
    row blocks (`lowrank.objective_value`).
    """
    _require_pair_flags(pair_f)
    n, d = A.shape
    if not (1 <= k <= min(n, d)):
        raise ValueError("k must satisfy 1 <= k <= min(n, d)")
    policy = policy or sk.SizePolicy()
    seeds = derive_seeds(seed, 61, 4)
    S = _affine_spec(policy, float(k), eps, n, seeds[0])
    R = _affine_spec(policy, float(k), eps, d, seeds[1], side="right")
    Sh = _affine_spec(policy, float(k), eps, n, seeds[2])
    Rh = _affine_spec(policy, float(k), eps, d, seeds[3], side="right")
    pieces = lowrank._assemble_core(A, S, R, Sh, Rh, {})
    Z_R, Z_S, truncated = lowrank._solve_two_sided(
        pieces.S2AR, pieces.SAR2, pieces.S2AR2, k, diag_solver
    )
    Y, X = lowrank._lift_factors(A, pieces, Z_R, Z_S)
    return lowrank.LowRankFactors(
        Y=Y,
        X=X,
        objective=lowrank.objective_value(A, Y, X, 0.0) + pair_f.evaluate(Y, X),
        k=k,
        lam=0.0,
        rank_truncated=truncated,
    )
