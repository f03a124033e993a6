"""Sketching operators and their empirical embedding checkers.

A SketchSpec is a seeded, serializable description of a random linear
operator S; apply(spec, A) returns S @ A, and the seed fixes S, so every
input sketched with one spec meets the same draw. CountSketch and OSNAP are
sparse m x n CSC matrices with one entry (+-1) or s entries (+-1/sqrt(s)) per
column, so S @ A costs O(nnz(A)) or O(s nnz(A)); on a CSR input it is
scattered from S's arrays into one dense m x d result, with the sums of
scipy's sparse x sparse product but without it. A Gaussian sketch is a dense
m x n matrix, O(n d m) to apply. SRHT is applied by the fast Walsh-Hadamard
transform in O(n d log n) without forming S.

A right sketch is the left sketch of the transpose: A @ R = (S A')'. On a
dense input a sparse operator meets A' one row block of A at a time, so no
transposed copy of all of A is made.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .la import as_dense, derive_seeds, make_rng, row_blocks, svd

VARIANTS = ("identity", "countsketch", "osnap", "srht", "gaussian", "composed")


@dataclass(frozen=True)
class SketchSpec:
    """Seeded description of a sketching operator.

    For a left sketch the operator is S in R^{m x n} and apply() returns S @ A;
    a right sketch R in R^{d x m} is represented as the left sketch of the
    transpose, so apply() returns A @ R with m columns.
    """

    variant: str
    m: int = 0
    s: int = 0  # OSNAP nonzeros per column; 0 means ceil(log2(m))
    seed: int = 0
    side: str = "left"
    inner: tuple = field(default_factory=tuple)  # composed parts, applied right-to-left

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown sketch variant {self.variant!r}")
        if self.side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        if self.variant not in ("identity", "composed") and self.m < 1:
            raise ValueError("sketch size m must be >= 1")
        if self.variant == "osnap" and self.s and not (1 <= self.s <= self.m):
            raise ValueError("OSNAP sparsity must satisfy 1 <= s <= m")
        if self.variant == "composed" and not self.inner:
            raise ValueError("composed spec needs a nonempty inner list")

    def osnap_s(self) -> int:
        if self.s:
            return self.s
        return max(1, math.ceil(math.log2(max(self.m, 2))))

    def with_seed(self, seed: int) -> "SketchSpec":
        if self.variant == "composed":
            seeds = derive_seeds(seed, 0, len(self.inner))
            parts = tuple(p.with_seed(s) for p, s in zip(self.inner, seeds))
            return dataclasses.replace(self, seed=seed, inner=parts)
        return dataclasses.replace(self, seed=seed)

    def to_json(self) -> str:
        return json.dumps(self._to_obj())

    def _to_obj(self):
        obj = {"variant": self.variant, "m": self.m, "seed": self.seed, "side": self.side}
        if self.variant == "osnap":
            obj["s"] = self.osnap_s()
        if self.variant == "composed":
            obj["inner"] = [p._to_obj() for p in self.inner]
        return obj

    @staticmethod
    def from_json(text: str) -> "SketchSpec":
        return SketchSpec._from_obj(json.loads(text))

    @staticmethod
    def _from_obj(obj) -> "SketchSpec":
        return SketchSpec(
            variant=obj["variant"],
            m=int(obj.get("m", 0)),
            s=int(obj.get("s", 0)),
            seed=int(obj.get("seed", 0)),
            side=obj.get("side", "left"),
            inner=tuple(SketchSpec._from_obj(o) for o in obj.get("inner", ())),
        )


def identity(side: str = "left") -> SketchSpec:
    return SketchSpec("identity", m=0, side=side)


def countsketch(m: int, seed: int = 0, side: str = "left") -> SketchSpec:
    return SketchSpec("countsketch", m=m, seed=seed, side=side)


def countsketch_or_identity(m: int, n: int, seed: int = 0, side: str = "left") -> SketchSpec:
    """A CountSketch taking n rows (or columns) to m, or the identity when
    m >= n: such a sketch reduces nothing and only adds collisions."""
    return identity(side=side) if m >= n else countsketch(m, seed=seed, side=side)


def osnap(m: int, s: int = 0, seed: int = 0, side: str = "left") -> SketchSpec:
    return SketchSpec("osnap", m=m, s=s, seed=seed, side=side)


def srht(m: int, seed: int = 0, side: str = "left") -> SketchSpec:
    return SketchSpec("srht", m=m, seed=seed, side=side)


def gaussian(m: int, seed: int = 0, side: str = "left") -> SketchSpec:
    return SketchSpec("gaussian", m=m, seed=seed, side=side)


def compose(outer: SketchSpec, inner: SketchSpec) -> SketchSpec:
    """Composition outer∘inner: apply(compose(o, i), A) == apply(o, apply(i, A)).

    Both parts must be same-side; dimension chaining is checked at apply time.
    """
    if outer.side != inner.side:
        raise ValueError("cannot compose sketches with different sides")
    parts = (outer.inner if outer.variant == "composed" else (outer,)) + (
        inner.inner if inner.variant == "composed" else (inner,)
    )
    return SketchSpec("composed", seed=outer.seed, side=outer.side, inner=parts)


# ---------------------------------------------------------------------------
# the operators (left side: S is m x n for an input with n rows)
# ---------------------------------------------------------------------------


def _countsketch_tables(m: int, n: int, seed: int):
    rng = make_rng(seed)
    h = rng.integers(0, m, size=n)
    sgn = rng.integers(0, 2, size=n) * 2.0 - 1.0
    return h, sgn


def _operator(spec: SketchSpec, n: int):
    """The m x n matrix S of a CountSketch, OSNAP or Gaussian spec.

    CountSketch and OSNAP are CSC matrices with one +-1, or s entries
    +-1/sqrt(s), per column, so S @ A does O(nnz(A)) or O(s nnz(A)) work and
    adds each input row into its output rows in row order.
    """
    m = spec.m
    if spec.variant == "gaussian":
        return make_rng(spec.seed).standard_normal((m, n)) / math.sqrt(m)
    if spec.variant == "countsketch":
        h, sgn = _countsketch_tables(m, n, spec.seed)
        return scipy.sparse.csc_array((sgn, h, np.arange(n + 1)), shape=(m, n))
    # OSNAP block construction (Kane-Nelson): hash j picks a row of block j,
    # whose m // s rows no other hash uses, so each column has s distinct
    # nonzeros, already in ascending row order
    s = spec.osnap_s()
    rng = make_rng(spec.seed)
    block = m // s
    rows = np.empty((n, s), dtype=np.int64)
    vals = np.empty((n, s))
    for j in range(s):
        rows[:, j] = j * block + rng.integers(0, block, size=n)
        vals[:, j] = rng.integers(0, 2, size=n) * 2.0 - 1.0
    vals *= 1.0 / math.sqrt(s)
    indptr = np.arange(0, s * n + 1, s)
    return scipy.sparse.csc_array((vals.ravel(), rows.ravel(), indptr), shape=(m, n))


def fwht(x: np.ndarray) -> np.ndarray:
    """Fast Walsh-Hadamard transform along axis 0 (unnormalized).

    Row count must be a power of two. x is left unchanged: the butterflies
    run in place on one C-ordered copy of it, which is returned.
    """
    n = x.shape[0]
    if n & (n - 1):
        raise ValueError("FWHT length must be a power of two")
    x = np.array(x, order="C")
    h = 1
    while h < n:
        v = x.reshape(-1, 2, h, *x.shape[1:])
        a = v[:, 0] + v[:, 1]
        np.subtract(v[:, 0], v[:, 1], out=v[:, 1])
        v[:, 0] = a
        h *= 2
    return x


def _apply_srht(A, m: int, seed: int) -> np.ndarray:
    Ad = as_dense(A)
    n = Ad.shape[0]
    N = 1 << (n - 1).bit_length() if n > 1 else 1
    rng = make_rng(seed)
    sgn = rng.integers(0, 2, size=n) * 2.0 - 1.0
    X = np.zeros((N,) + Ad.shape[1:])
    X[:n] = sgn[:, None] * Ad  # padding rows are zeros
    X = fwht(X) / math.sqrt(N)
    if m > N:
        raise ValueError(f"SRHT size m={m} exceeds padded input rows N={N}")
    rows = rng.choice(N, size=m, replace=False)
    return math.sqrt(N / m) * X[rows]


SCATTER_ENTRIES = 1 << 14  # products per block of _scatter_csr: ~0.5 MB of temporaries


def _scatter_csr(S, A) -> np.ndarray:
    """(S @ A).toarray() for a CSC operator S with s entries in every column
    and a CSR A, without scipy's sparse x sparse product.

    A's stored entries are read in storage order, SCATTER_ENTRIES // s at a
    time; each is multiplied by the s entries of S's column for its row and
    added into the dense m x d result by np.add.at, which adds repeated
    indices in order. Every output entry thus sums its terms over A's rows in
    ascending order, as scipy's product does, and the result is bit-identical
    to it, in O(s nnz(A)) time and one m x d buffer.
    """
    m, n = S.shape
    d = A.shape[1]
    s = S.nnz // n if n else 1
    S_rows, S_vals = S.indices.reshape(n, s), S.data.reshape(n, s)
    out = np.zeros((m, d))
    flat = out.reshape(-1)
    step = max(1, SCATTER_ENTRIES // s)
    starts = np.arange(0, A.nnz, step)
    # first row of each block: one search for all blocks, which keeps the
    # int32 indptr from being cast anew per block
    for lo, r0 in zip(starts.tolist(), (np.searchsorted(A.indptr, starts, "right") - 1).tolist()):
        hi = min(lo + step, A.nnz)
        r1 = int(np.searchsorted(A.indptr, A.indptr.dtype.type(hi)))
        j = np.repeat(np.arange(r0, r1), np.diff(np.clip(A.indptr[r0 : r1 + 1], lo, hi)))
        idx = np.take(S_rows, j, axis=0).astype(np.int64, copy=False)
        idx *= d
        idx += A.indices[lo:hi, None]
        vals = np.take(S_vals, j, axis=0)
        vals *= A.data[lo:hi, None]
        np.add.at(flat, idx.ravel(), vals.ravel())
    return out


def apply(spec: SketchSpec, A):
    """Apply the sketching operator described by spec to A.

    Left side returns S @ A (m rows); right side returns A @ R (m columns),
    computed as (S A')'. Identity returns the input unchanged.
    """
    if spec.variant == "identity":
        return A
    if spec.variant == "composed":
        out = A
        for part in reversed(spec.inner):
            out = apply(part, out)
        return out
    right = spec.side == "right"
    if right and spec.variant in ("countsketch", "osnap") and not scipy.sparse.issparse(A):
        A = np.asarray(A, dtype=np.float64)
        S = _operator(spec, A.shape[1])
        out = np.empty((A.shape[0], spec.m))
        # (S A')' by row blocks of A: each output entry is the same sum, in the
        # same order, and only one block of A' is copied to row-major order
        for rows in row_blocks(*A.shape):
            out[rows] = (S @ A[rows].T).T
        return out
    if right:
        A = A.T.tocsr() if scipy.sparse.issparse(A) else np.asarray(A, dtype=np.float64).T
    if spec.variant == "srht":
        out = _apply_srht(A, spec.m, spec.seed)
    else:
        S = _operator(spec, A.shape[0])
        if scipy.sparse.issparse(S) and scipy.sparse.issparse(A):
            out = _scatter_csr(S, A.tocsr())
        else:
            out = as_dense(S @ A)
    # row-major like the left side, so later BLAS calls see one layout
    return np.ascontiguousarray(out.T) if right else out


def right_product(spec: SketchSpec, Z, d: int) -> np.ndarray:
    """R @ Z for the d x m operator R of a right sketch (apply(spec, A) is
    A @ R), so A @ right_product(spec, Z, d) is A @ R @ Z without A @ R.

    R is the transpose of `_operator(spec, d)`: one +-1 per row for a
    CountSketch, so for a k-column Z this costs O(d k). The identity returns
    Z; SRHT and composed specs have no operator here.
    """
    if spec.variant == "identity":
        return np.asarray(Z, dtype=np.float64)
    if spec.side != "right" or spec.variant not in ("countsketch", "osnap", "gaussian"):
        raise ValueError(f"right_product needs a right CountSketch, OSNAP or Gaussian spec, not {spec}")
    return np.asarray(_operator(spec, d).T @ Z)


# ---------------------------------------------------------------------------
# sketch-size policy
# ---------------------------------------------------------------------------

PURPOSES = ("ridge_rows", "affine", "subspace", "lowrank_S", "lowrank_R", "cca")


@dataclass(frozen=True)
class SizePolicy:
    """Constants filling in the unnamed multipliers of the size bounds.

    The theory fixes only the *shape* of each bound; each constant multiplies
    one rule of `recommend_sizes`, and the policy holds nothing else. They
    were fit by the CLI `calibrate` command as the smallest values reaching a
    0.9 empirical pass rate on a seeded problem family (see provenance).
    """

    k_sparse: float = 2.0
    k_srht: float = 2.0
    k_gauss: float = 6.0
    k_subspace: float = 1.0
    k_affine: float = 1.0
    provenance: str = (
        "regsketch calibrate --seeds 0..19 --eps 0.25 (200x30 geometric family): "
        "minima k_sparse=0.38 k_srht=0.44 k_gauss=1.97 k_subspace=0.11 k_affine=0.16 "
        "at 0.9 pass rate, frozen here with a >= 3x safety margin"
    )

    def __post_init__(self):
        # a policy read from a file fails here, not later inside a size bound
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            want = str if f.name == "provenance" else (int, float)
            if not isinstance(v, want) or isinstance(v, bool):
                raise TypeError(f"SizePolicy.{f.name} cannot be {v!r}")

    @staticmethod
    def from_json(text: str) -> "SizePolicy":
        return SizePolicy(**json.loads(text))


def recommend_sizes(
    policy: SizePolicy, sd_hat: float, eps: float, purpose: str, variant: str = "countsketch"
) -> int:
    """Sketch size for the given purpose, from the policy constant and the
    bound shape the purpose corresponds to. Monotone nondecreasing in sd_hat
    and 1/eps; clamped below at 1.
    """
    if sd_hat < 0:
        raise ValueError("sd_hat must be nonnegative")
    if not (0 < eps <= 1):
        raise ValueError("eps must lie in (0, 1]")
    if purpose not in PURPOSES:
        raise ValueError(f"unknown purpose {purpose!r}")
    if purpose in ("ridge_rows", "lowrank_S", "lowrank_R"):
        if variant == "srht":
            val = policy.k_srht * (sd_hat + math.log(1.0 / eps + 1.0)) * math.log(
                sd_hat / eps + 2.0
            ) / eps
        elif variant == "gaussian":
            val = policy.k_gauss * sd_hat / eps
        else:  # countsketch and osnap
            val = policy.k_sparse * (sd_hat / eps + sd_hat**2)
    elif purpose == "affine":
        val = policy.k_affine * sd_hat**2 / eps**2
    else:  # subspace and cca: the one subspace-embedding bound
        val = policy.k_subspace * sd_hat**2 / eps**2
    return max(1, math.ceil(val))


# ---------------------------------------------------------------------------
# empirical embedding checkers
# ---------------------------------------------------------------------------

REQUIRED_PASS_FRACTION = 0.9  # share of trials a check needs to pass
AFFINE_RANDOM_X = 50  # seeded candidate X of the affine falsifier, beyond X* and 0
AFFINE_RNG_SEED = 0  # root seed of those candidates


@dataclass
class EmbedReport:
    """One empirical check of an embedding condition over several trial seeds."""

    deviations: list
    threshold: float
    pass_fraction: float
    passed: bool

    @property
    def max_deviation(self) -> float:
        return max(self.deviations)


def _trial_specs(spec: SketchSpec, trials: int):
    if trials < 1:  # no trial is no evidence, and must not read as a pass
        raise ValueError("an embedding check needs trials >= 1")
    return [spec.with_seed(s) for s in derive_seeds(spec.seed, 1, trials)]


def _report(devs, threshold):
    frac = float(np.mean([d <= threshold for d in devs]))
    return EmbedReport(
        deviations=[float(d) for d in devs],
        threshold=float(threshold),
        pass_fraction=frac,
        passed=frac >= REQUIRED_PASS_FRACTION,
    )


def check_subspace_embedding(spec: SketchSpec, A, eps: float, trials: int = 20) -> EmbedReport:
    """Exact worst-case relative deviation of ||SAx||^2 over range(A).

    With U an orthonormal basis of range(A), the worst deviation equals
    max_i |sigma_i(SU)^2 - 1|, computed exactly from the singular values of SU.
    """
    Ad = as_dense(A)
    f = svd(Ad)
    r = int(np.sum(f.sigma > 1e-12 * (f.sigma[0] if f.sigma.size else 0.0)))
    threshold = 2 * eps + eps**2  # squared-norm form of the (1 +- eps) condition
    if r == 0 or spec.variant == "identity":
        # nothing to distort (A = 0), or sigma(U) = 1 exactly for an
        # orthonormal basis: the deviation is 0, without the roundoff
        return _report([0.0], threshold)
    U = f.U[:, :r]
    devs = []
    for sp in _trial_specs(spec, trials):
        SU = as_dense(apply(sp, U))
        s = np.linalg.svd(SU, compute_uv=False)
        s = np.concatenate([s, np.zeros(r - s.size)])
        devs.append(float(np.max(np.abs(s**2 - 1.0))))
    return _report(devs, threshold)


def check_affine_embedding(spec: SketchSpec, A, B, eps: float, trials: int = 20) -> EmbedReport:
    """Falsifier for the affine embedding property of S for (A, B).

    Evaluates the ratio ||S(AX-B)||_F^2 / ||AX-B||_F^2 at the unsketched
    minimizer, at X=0, and at AFFINE_RANDOM_X seeded X, and reports the worst
    deviation seen. A sound falsifier, not a verifier: the sup over all X is
    not evaluated in closed form.
    """
    Ad, Bd = as_dense(A), as_dense(B)
    if Ad.shape[0] != Bd.shape[0]:
        raise ValueError("A and B must have equal row counts")
    Xstar, *_ = np.linalg.lstsq(Ad, Bd, rcond=None)
    rng = make_rng(AFFINE_RNG_SEED, 7)
    cands = [Xstar, np.zeros_like(Xstar)] + [
        rng.standard_normal(Xstar.shape) for _ in range(AFFINE_RANDOM_X)
    ]
    devs = []
    for sp in _trial_specs(spec, trials if spec.variant != "identity" else 1):
        worst = 0.0
        for X in cands:
            Rm = Ad @ X - Bd
            denom = float(np.sum(Rm * Rm))
            if denom <= 1e-300:
                continue
            SR = as_dense(apply(sp, Rm))
            worst = max(worst, abs(float(np.sum(SR * SR)) / denom - 1.0))
        devs.append(worst)
    return _report(devs, eps)


def check_ridge_conditions(
    spec: SketchSpec,
    A,
    b,
    lam: float,
    eps: float,
    trials: int = 20,
):
    """Exact deviations for the two ridge sketching conditions.

    Returns a pair of EmbedReports: the Gram condition
    ||U1' S'S U1 - U1'U1||_2 <= 1/4 and the residual-product condition
    ||U1' S'S r - U1' r|| <= sqrt(eps * Delta* / 2), with r = b - A x*.
    Both come from one SVD A = U diag(sigma) V' and the shrinkage
    w = sigma / (sigma^2 + lam), zero where sigma^2 + lam = 0: U1 =
    U diag(sqrt(sigma w)) is the first n rows of an orthonormal basis of
    [A; sqrt(lam) I], and x* = V diag(w) U'b.
    """
    Ad = as_dense(A)
    bd = as_dense(b).reshape(Ad.shape[0])
    f = svd(Ad)
    U, V = f.U, f.V
    s2l = f.sigma**2 + lam
    shrink = np.divide(f.sigma, s2l, out=np.zeros_like(s2l), where=s2l > 0)
    U1 = U * np.sqrt(f.sigma * shrink)
    G = U1.T @ U1
    x = V @ (shrink * (U.T @ bd))
    resid = bd - Ad @ x
    objective = float(resid @ resid + lam * (x @ x))
    thr_vec = math.sqrt(max(eps * objective / 2.0, 0.0))
    devs_gram, devs_vec = [], []
    eff_trials = trials if spec.variant != "identity" else 1
    for sp in _trial_specs(spec, eff_trials):
        SU1 = as_dense(apply(sp, U1))
        Sr = as_dense(apply(sp, resid[:, None]))[:, 0]
        devs_gram.append(float(np.linalg.norm(SU1.T @ SU1 - G, 2)))
        devs_vec.append(float(np.linalg.norm(SU1.T @ Sr - U1.T @ resid)))
    return (
        _report(devs_gram, 0.25),
        _report(devs_vec, thr_vec),
    )
