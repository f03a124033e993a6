"""General orthogonally-invariant regularizers.

Matrix measures carry caller-declared invariance flags that are spot-checked
by randomized trials at registration (invariance of a black-box evaluator is
undecidable, so falsification is the honest contract). On top of them sit:

* the SVD reduction of regularized low-rank approximation to a k x k
  diagonal core problem, with closed-form diagonal solvers;
* the sketched pipeline for general multiple-response regression: one left
  sketch of A and B, and the small solver on the left-sketched problem,
  rotated onto the row space of C = (SA)'(SB) when there are more
  responses than columns, which is exact under the measure's flags. Every
  small problem reaches its solver as one `ReducedProblem`, its Gram form
  (G = A'A, C = A'B, ||B||_F^2, eigvalsh(G)), and the Gram of the left
  sketch that reads the rank is the one the solver iterates on; the
  accelerated (monotone FISTA with restart) prox solver never reads the
  sketch itself;
* general low-rank approximation, which runs `lowrank`'s two-sided
  sketched pipeline on A as given, with a diagonal solver in the core.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse

from . import lowrank, ridge
from . import sketch as sk
from .la import (
    RANK_RTOL, as_dense, derive_seed, gram, gram_eigvalsh, make_rng, row_block, row_blocks,
    short_gram_eigvalsh,
)
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


def _row_norms(V):
    """The Euclidean norm of each row of a dense V, as np.linalg.norm(V,
    axis=1) computes it, without that wrapper's checks."""
    sq = np.add.reduce(V * V, axis=1)
    return np.sqrt(sq, out=sq)


def _vnorm(A, p):
    rows = _row_norms(as_dense(A))
    if p == 1:
        return float(np.add.reduce(rows))
    return float(np.sum(rows**p) ** (1.0 / p))


def _prox_fro_sq(V, t):
    # prox of t * ||.||_F^2
    return V / (1.0 + 2.0 * t)


def _prox_fro(V, t):
    nrm = math.sqrt(np.vdot(V, V))
    if nrm <= t:
        return np.zeros_like(V)
    return (1.0 - t / nrm) * V


def _prox_nuclear(V, t):
    U, s, Vt = np.linalg.svd(V, full_matrices=False)
    return (U * np.maximum(s - t, 0.0)) @ Vt


def _prox_vnorm1(V, t):
    # rows with norm <= t go to zero; the floor at t keeps t / norm from
    # overflowing, and at most 1, so the scale 1 - t / norm is never negative
    scale = np.maximum(_row_norms(V), max(t, 1e-300))[:, None]
    np.divide(t, scale, out=scale)
    np.subtract(1.0, scale, out=scale)
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
# small solvers for the reduced regression problem min ||Ah Z - Bh||_F^2 + f(Z)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReducedProblem:
    """min ||Ah Z - Bh||_F^2 + f(Z) in its Gram form, which is all a small
    solver reads: G = Ah'Ah (d x d), C = Ah'Bh (d x d'), b2 = ||Bh||_F^2,
    and w = eigvalsh(G), ascending."""

    G: np.ndarray
    C: np.ndarray
    b2: float
    w: np.ndarray


def _gram_eigs(Ah):
    """(G, w, delta): the d x d Gram of Ah and `la.gram_eigvalsh` of it."""
    G = gram(Ah)
    return (G, *gram_eigvalsh(G, *Ah.shape))


def reduced_problem(Ah, Bh, gram_eigs=None) -> ReducedProblem:
    """The Gram form of min ||Ah Z - Bh||_F^2 + f(Z), for a dense Bh.

    Two products with Ah, O(m d (d + d')) for an m x d Ah, and one eigvalsh of
    the d x d G; gram_eigs, `_gram_eigs(Ah)` formed already, saves the
    first product and the eigvalsh. A CSR Ah is read in row blocks by
    `la.gram`, never densified.
    """
    G, w, _ = gram_eigs or _gram_eigs(Ah)
    return ReducedProblem(G=G, C=gram(Ah, Bh), b2=float(np.vdot(Bh, Bh)), w=w)


def ridge_small_solver(lam: float):
    """Exact small solver for f = lam * ||.||_F^2, lam > 0: (G + lam I) Z = C,
    by `ridge._solve_gram` as `ridge._solve_ridge` solves a tall problem."""
    if not lam > 0:
        raise ValueError("ridge_small_solver needs lam > 0")
    return lambda prob: ridge._solve_gram(prob.G, prob.C, lam)


PROX_ITERS = 2000  # step cap of prox_small_solver
PROX_TOL = 1e-10  # objective decrease, relative to the objective, below which a step stalls


def prox_small_solver(f: MatrixMeasure):
    """Accelerated (monotone FISTA with restart) solver for
    min ||A Z - B||_F^2 + f(Z), called on its `ReducedProblem`.

    Needs f.prox. The loop reads only the Gram form, never A: each step
    costs one product with G, O(d^2 d'), and a few O(d d') updates made in
    place, since G Y = G Z1 + beta (G Z1 - G Z0) by linearity. Step size
    1/L with L = 2 lambda_max(G), the last of the problem's eigenvalues. A
    step from the extrapolated point Y is accepted while it lowers the
    objective by PROX_TOL of it (Beck and Teboulle's MFISTA); one that does
    not is kept only if it lowers the objective at all, and momentum
    restarts from the last accepted iterate (O'Donoghue and Candes). Only a
    stalled step without momentum stops the loop, so accepted iterates never
    raise the objective and the result is never worse than Z = 0, the first
    one. Every decision reads differences of the objective,
    <Z1 - Z0, G (Z1 + Z0) - 2 C> + f(Z1) - f(Z0), which keep their precision
    when ||A Z - B||^2 is tiny next to ||B||^2.
    """
    if f.prox is None:
        raise ValueError(f"measure {f.name} has no prox operator")
    prox, evaluate = f.prox, f.evaluate

    def solve(prob: ReducedProblem):
        G, C2 = prob.G, 2.0 * prob.C
        step = 1.0 / max(2.0 * prob.w[-1], 1e-12)
        Z = np.zeros(C2.shape)
        GZ = np.zeros(C2.shape)
        fZ = evaluate(Z)
        obj = prob.b2 + fZ
        Y, GY, t = Z, GZ, 1.0
        for _ in range(PROX_ITERS):
            V = np.multiply(GY, 2.0)
            V -= C2
            V *= step
            np.subtract(Y, V, out=V)
            Zn = prox(V, step)
            GZn = G @ Zn
            fZn = evaluate(Zn)
            # obj(Z) - obj(Zn) without the terms ||B||^2 and <Z, C>, whose
            # cancellation would cost eps * ||B||^2 of absolute precision
            moved = Zn - Z
            GS = GZn + GZ
            GS -= C2
            drop = fZ - fZn - float(np.vdot(moved, GS))
            if drop >= PROX_TOL * max(abs(obj), 1.0):
                t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
                beta = (t - 1.0) / t_next
                if beta == 0:  # after a (re)start: the next step is a plain one, from Y = Z
                    Y, GY = Zn, GZn
                else:  # Y = Zn + beta (Zn - Z), GY = GZn + beta (GZn - GZ), in the spent buffers
                    moved *= beta
                    moved += Zn
                    np.subtract(GZn, GZ, out=GS)
                    GS *= beta
                    GS += GZn
                    Y, GY = moved, GS
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


def _affine_spec(policy, rank_hint, eps, n_clamp, seed):
    m = sk.recommend_sizes(policy, rank_hint, eps, "affine")
    return sk.countsketch_or_identity(m, n_clamp, seed)


def _numerical_rank(A, gram_eigs=None):
    """Number of singular values of A above RANK_RTOL * sigma_1, as an SVD
    counts them.

    Reads the eigenvalues w of a Gram of A and their bound delta: those of
    gram_eigs (`_gram_eigs(A)`, formed already), or else of the short-side
    Gram (`la.short_gram_eigvalsh`). The SVD of A runs only when they cannot
    certify full rank. Each w_i lies within delta of sigma_i^2 (zero past
    min(n, d)), so w_min - delta > RANK_RTOL^2 (w_max + delta) proves
    sigma_r > RANK_RTOL * sigma_1 for r = len(w) with room to spare:
    sigma_r^2 > delta / 2 >= (n + d) * eps * sigma_1^2 puts sigma_r 200
    times or more above the cutoff, far beyond any rounding of the SVD, so
    the SVD would count r too. The Gram squares the condition number, so it
    certifies full rank but cannot resolve a smaller rank: rank-deficient or
    near-threshold inputs, A = 0, and a d x d Gram of a wide A take the SVD
    count.
    """
    w, delta = short_gram_eigvalsh(A) if gram_eigs is None else gram_eigs[1:]
    if w.size and w[0] - delta > RANK_RTOL * RANK_RTOL * (w[-1] + delta):
        return w.size
    s = _sv(A)
    if s.size == 0 or s[0] == 0:
        return 0
    return int(np.sum(s > RANK_RTOL * s[0]))


def _fit(A, X, B) -> float:
    """||A X - B||_F^2, summed one row block at a time with np.vdot, as
    `lowrank.objective_value` sums its fit: the n x d' residual is never
    formed whole, and a CSR A is read block by block (`la.row_block`)."""
    if scipy.sparse.issparse(A):
        A = A.tocsr()
    fit = 0.0
    for rows in row_blocks(*B.shape):
        R = row_block(A, rows) @ X
        R -= B[rows]
        fit += float(np.vdot(R, R))
        del R  # free this block's residual before the next one is formed
    return fit


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
    directly. small_solver takes a `ReducedProblem` and returns its Z, as
    `prox_small_solver` and `ridge_small_solver` do. Returns (X_tilde,
    objective-on-the-original-problem).

    One left sketch Sh is drawn, sized from rank(A) read off Sh A rather
    than A: Sh is drawn at the affine size of min(n, d), an upper bound on
    the rank, and the rank is read off the eigenvalues of the d x d Gram of
    Sh A, the Gram the small solver then iterates on, so it is formed once
    per draw. Sh B is sketched in the call that sketches A, so Sh is drawn
    once for both. A full rank there is rank(A). A smaller reading r halves
    Sh A and Sh B (`sketch.halve`) to the smallest level of that M-row draw
    with at least the affine size of r rows, which is the sketch
    countsketch(level, seed, fold=M), so A and B are read once; when no
    smaller level fits, the first sketch stays. Only an identity first
    sketch is redrawn at the affine size of r, and A and B sketched again.
    identity_sketches makes Sh the identity and reads no rank: the reduced
    problem is then that of (A, B) itself.

    The responses are not sketched. The reduced problem reads Sh B only
    through C = (Sh A)'(Sh B), which is d x d', and the flags above put its
    optimum's rows in the row space of C, of rank at most d: for P the
    projection onto that row space, ||Sh A Z||_F^2 is the sum of
    ||Sh A Z P||_F^2 and ||Sh A Z (I - P)||_F^2, <Z, C> = <Z P, C>, and f
    is a contraction, f(Z P) <= f(Z). So when d' > d, with C' = Q Rc (Q
    d' x d, orthonormal columns), the small solver runs on the d x d
    problem with C = Rc' and X = W Q'. Every Z in that row space is W Q'
    for W = Z Q, at the same objective (right orthogonal and padding
    invariance give f(W Q') = f(W)), so X is the small solve of the
    unreduced problem, up to rounding. When d' <= d, X is the small solve
    itself. A CSR A stays sparse: the sketch, the Grams and the final
    residual, summed over row blocks, all take it as it is. B is densified.
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
        ShA, ShB = A, Bd
        eigs = _gram_eigs(A)
    else:
        policy = policy or sk.SizePolicy()
        seed_h = derive_seed(seed, 53)
        # rank(Sh A) <= rank(A) <= min(n, d): a full rank read at that size
        # is rank(A), and a smaller one keeps the smallest level of this
        # draw that holds its affine size
        r_max = min(A.shape)
        first = _affine_spec(policy, r_max, eps, A.shape[0], seed_h)
        ShA, ShB = sk.apply(first, A, Bd)
        eigs = _gram_eigs(ShA)
        r = max(_numerical_rank(ShA, eigs), 1)
        if r < r_max:
            m = ShA.shape[0]
            if first.variant == "identity":
                ShA, ShB = sk.apply(_affine_spec(policy, r, eps, A.shape[0], seed_h), A, Bd)
            else:
                need = sk.recommend_sizes(policy, r, eps, "affine")
                while ShA.shape[0] % 2 == 0 and ShA.shape[0] // 2 >= need:
                    ShA, ShB = sk.halve(ShA), sk.halve(ShB)
            if ShA.shape[0] < m:
                eigs = _gram_eigs(ShA)
    prob = reduced_problem(ShA, ShB, eigs)
    del ShA, ShB  # do not hold the sketches across the solve and the residual's pass over A
    d, dprime = prob.C.shape
    if dprime > d:
        Q, Rc = np.linalg.qr(prob.C.T)
        X = small_solver(replace(prob, C=Rc.T)) @ Q.T
    else:
        X = small_solver(prob)
    return X, _fit(A, X, Bd) + f.evaluate(X)


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

    `lowrank.build_core_sized` draws the four sketches of the two-sided
    core, S and S2 on the left and R and R2 on the right, each at the
    affine size of k, and the reduced k x k problem is solved by the SVD
    reduction with diag_solver. A is read twice: by S and S2, and by one
    product A [R Z_R | X'] that lifts Y and gives the fit on A
    (`lowrank._lift_and_fit`), which falls back to the row-blocked residual
    (`lowrank.objective_value`) where its expansion would cancel. A CSR A
    stays sparse throughout.
    """
    _require_pair_flags(pair_f)
    if not (1 <= k <= min(A.shape)):
        raise ValueError("k must satisfy 1 <= k <= min(n, d)")
    m = sk.recommend_sizes(policy or sk.SizePolicy(), float(k), eps, "affine")
    pieces = lowrank.build_core_sized(A, {"m": m, "m_prime": m, "p": m, "p_prime": m}, seed=seed)
    Z_R, Z_S, truncated = lowrank._solve_two_sided(pieces.S2AR, pieces.SAR2, pieces.S2AR2, k, diag_solver)
    Y, X, objective = lowrank._lift_and_fit(A, pieces, Z_R, Z_S, pair_f.evaluate)
    return lowrank.LowRankFactors(Y=Y, X=X, objective=objective, k=k, lam=0.0, rank_truncated=truncated)
