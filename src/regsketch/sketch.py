"""Sketching operators and their empirical embedding checkers.

A SketchSpec is a seeded, serializable description of a random linear
operator S; apply(spec, A) returns S @ A, and the seed fixes S, so every
input sketched with one spec meets the same draw. CountSketch and OSNAP are
m x n matrices with one entry (+-1) or s entries (+-1/sqrt(s)) per column,
so S @ A costs O(nnz(A)) or O(s nnz(A)). They are drawn in one form,
tables of a row hash and a sign per entry with the very values of the int64
draws: the hash in the narrowest unsigned dtype that holds m - 1 (int32
above 2^16 rows), the sign int8, so 3 bytes per input row for a CountSketch
of up to 2^16 rows, 2 up to 2^8, and 3 s or 2 s for an OSNAP. A CSR input is
scattered from them into one dense m x d result, with the sums of scipy's
sparse x sparse product but without it or a CSC matrix. For a dense input
they are widened once per `apply` call into the CSC matrix, freed as they
widen: 16 bytes per input row for a CountSketch (int32 hash and indptr,
float64 sign), 13 s at the peak of an OSNAP. It meets A one column block at
a time when A is not row-major. A Gaussian sketch is a dense m x n matrix,
O(n d m) to apply. SRHT is applied by the fast Walsh-Hadamard transform in
O(n d log n) without forming S, in one zero-padded copy of A and a
temporary of half its rows.
apply(spec, A, B, ...) sketches several inputs with one construction of
that draw.

A folded CountSketch, countsketch(m, seed, fold=M), is the M-row CountSketch
of that seed with its rows halved down to m (`halve`): the bottom half added
onto the top half, which is the CountSketch with hash h mod M/2. So one pass
over A at M rows gives every size M / 2^j, each bit for bit the apply of its
own folded spec.

A right sketch is the left sketch of the transpose: A @ R = (S A')'. On a
dense input A' is not row-major, so a sparse operator meets it one row block
of A at a time, and no transposed copy of all of A is made.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .la import as_dense, derive_seeds, make_rng, row_blocks

VARIANTS = ("identity", "countsketch", "osnap", "srht", "gaussian", "composed")


@dataclass(frozen=True)
class SketchSpec:
    """Seeded description of a sketching operator.

    For a left sketch the operator is S in R^{m x n} and apply() returns S @ A;
    a right sketch R in R^{d x m} is represented as the left sketch of the
    transpose, so apply() returns A @ R with m columns. A CountSketch with
    fold = M > 0 is drawn at M rows and halved to m (see `halve`).
    """

    variant: str
    m: int = 0
    s: int = 0  # OSNAP nonzeros per column; 0 means ceil(log2(m))
    seed: int = 0
    side: str = "left"
    inner: tuple = field(default_factory=tuple)  # composed parts, applied right-to-left
    fold: int = 0  # CountSketch rows drawn before halving to m; 0: drawn at m

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown sketch variant {self.variant!r}")
        if self.side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        if self.variant not in ("identity", "composed") and self.m < 1:
            raise ValueError("sketch size m must be >= 1")
        if self.variant == "osnap" and self.s and not (1 <= self.s <= self.m):
            raise ValueError("OSNAP sparsity must satisfy 1 <= s <= m")
        if self.variant == "composed" and not (self.inner and all(p.side == self.side for p in self.inner)):
            raise ValueError("composed spec needs a nonempty inner list of its own side")
        if self.fold and not (
            self.variant == "countsketch" and self.fold > self.m and self.fold % self.m == 0
            and (self.fold // self.m) & (self.fold // self.m - 1) == 0
        ):
            raise ValueError("fold must be a CountSketch's m times a power of two above 1")

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
        if self.fold:
            obj["fold"] = self.fold
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
            fold=int(obj.get("fold", 0)),
        )


def identity(side: str = "left") -> SketchSpec:
    return SketchSpec("identity", m=0, side=side)


def countsketch(m: int, seed: int = 0, side: str = "left", fold: int = 0) -> SketchSpec:
    """An m-row CountSketch, or with fold = M the M-row one halved to m; a
    fold of m itself is no fold."""
    return SketchSpec("countsketch", m=m, seed=seed, side=side, fold=0 if fold == m else fold)


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
    parts = (outer.inner if outer.variant == "composed" else (outer,)) + (
        inner.inner if inner.variant == "composed" else (inner,)
    )
    return SketchSpec("composed", seed=outer.seed, side=outer.side, inner=parts)


# ---------------------------------------------------------------------------
# the operators (left side: S is m x n for an input with n rows)
# ---------------------------------------------------------------------------


def _index_dtype(*maxima):
    """int32 for index arrays whose values and counts stay within the given
    maxima, when those fit in it; int64 otherwise."""
    return np.int32 if max(maxima) <= np.iinfo(np.int32).max else np.int64


def _hash_dtype(m: int, entries: int):
    """The dtype of a CSR scatter's row hashes below m: the narrowest unsigned
    one that holds m - 1 (uint8 up to 2^8 rows, uint16 up to 2^16), and
    `_index_dtype` of m and the tables' entries above 2^16 rows."""
    return np.min_scalar_type(m - 1) if m <= 1 << 16 else _index_dtype(m, entries)


SIGN_CHUNK = 1 << 16  # values drawn at a time: a 256 KiB int32 temporary


def _draw_ints(rng, high: int, out: np.ndarray, mul: int = 1, add: int = 0) -> None:
    """Fill the vector out with mul * rng.integers(0, high, size=len(out)) +
    add: the values, and the end state of the stream, of that one draw.

    numpy's bounded draw in a range that fits 32 bits spends the stream's
    32-bit words value by value, rejections included, by the same path for
    int32 and int64 output, so each value takes the same words however the
    draw is split: the values are drawn as int32, SIGN_CHUNK at a time, and
    written into out's own dtype, narrow or wide.
    """
    for lo in range(0, out.shape[0], SIGN_CHUNK):
        v = rng.integers(0, high, size=min(SIGN_CHUNK, out.shape[0] - lo), dtype=_index_dtype(high))
        if mul != 1:
            v *= mul
        if add:
            v += add
        out[lo : lo + v.size] = v


def _draw_signs(rng, out: np.ndarray) -> None:
    """Fill the vector out with random +-1: the values, and the end state of
    the stream, of the one draw `rng.integers(0, 2, size=len(out)) * 2.0 - 1.0`
    (`_draw_ints`), in out's own dtype."""
    _draw_ints(rng, 2, out, 2, -1)


def _tables(spec: SketchSpec, n: int):
    """The tables (rows, signs, scale) of a CountSketch or OSNAP spec at n
    input rows: S has the entry scale * signs[i, k] at (rows[i, k], i).

    rows and signs are n x s, with s = 1 for a CountSketch and
    spec.osnap_s() for OSNAP, and scale = 1 / sqrt(s). OSNAP is the block
    construction (Kane-Nelson): hash k picks a row of block k, whose m // s
    rows no other hash uses, so each column has s distinct nonzeros, already
    in ascending row order. Each hash's rows, then its signs, are drawn by
    `_draw_ints`: the values, and the stream state, of the int64 draws
    `rng.integers(0, m // s, size=n) + k (m // s)` and
    `rng.integers(0, 2, size=n) * 2.0 - 1.0`, in `_hash_dtype` and int8:
    3 s bytes per input row up to 2^16 rows, 2 s up to 2^8. This is the one
    form of both draws; `_csc` widens it for a dense input.
    """
    s = spec.osnap_s() if spec.variant == "osnap" else 1
    rng = make_rng(spec.seed)
    block = spec.m // s
    rows = np.empty((n, s), dtype=_hash_dtype(spec.m, s * n))
    signs = np.empty((n, s), dtype=np.int8)
    for k in range(s):
        _draw_ints(rng, block, rows[:, k], add=k * block)
        _draw_signs(rng, signs[:, k])
    return rows, signs, 1.0 / math.sqrt(s)


def _csc(m: int, operators: dict, key) -> None:
    """Replace the tables (rows, signs, scale) at key in the dict operators by
    S's m x n CSC matrix, freeing them as it widens: the rows to
    `_index_dtype` (int32 whenever m and the s n entries fit), then the
    signs to float64, scaled in place. scipy keeps the arrays without a copy,
    so a CountSketch peaks at its matrix's 16 bytes per input row (int32 hash
    and indptr, float64 sign), an OSNAP at 13 s: int8 signs beside 12 s."""
    rows, signs, scale = operators.pop(key)
    n, s = rows.shape
    rows = rows.astype(_index_dtype(m, rows.size), copy=False)
    vals = signs.astype(np.float64)
    del signs
    if s > 1:
        vals *= scale
    indptr = np.arange(0, s * n + 1, s, dtype=rows.dtype)
    operators[key] = scipy.sparse.csc_array((vals.ravel(), rows.ravel(), indptr), shape=(m, n))


def _operator(spec: SketchSpec, n: int):
    """The m x n matrix S of a CountSketch, OSNAP or Gaussian spec. A
    CountSketch or OSNAP is its `_tables` widened by `_csc`, as a dense input
    of `apply` meets it: one +-1, or s entries +-1/sqrt(s), per column, so
    S @ A does O(nnz(A)) or O(s nnz(A)) work, adding each input row into its
    output rows in row order."""
    if spec.variant == "gaussian":
        return make_rng(spec.seed).standard_normal((spec.m, n)) / math.sqrt(spec.m)
    return _shared(spec, n, {}, csc=True)


def _fwht_in_place(x: np.ndarray) -> np.ndarray:
    """The butterflies of `fwht` on a C-ordered x itself, each level's sums
    formed in one reused temporary of half x's rows."""
    n = x.shape[0]
    if n & (n - 1):
        raise ValueError("FWHT length must be a power of two")
    tmp = np.empty((n // 2,) + x.shape[1:], dtype=x.dtype)
    h = 1
    while h < n:
        v = x.reshape(-1, 2, h, *x.shape[1:])
        a = tmp.reshape(-1, h, *x.shape[1:])
        np.add(v[:, 0], v[:, 1], out=a)
        np.subtract(v[:, 0], v[:, 1], out=v[:, 1])
        v[:, 0] = a
        h *= 2
    return x


def fwht(x: np.ndarray) -> np.ndarray:
    """Fast Walsh-Hadamard transform along axis 0 (unnormalized).

    Row count must be a power of two. x is left unchanged: the butterflies
    run in place on one C-ordered copy of it, which is returned.
    """
    return _fwht_in_place(np.array(x, order="C"))


def _apply_srht(A, m: int, seed: int) -> np.ndarray:
    """S @ A for the SRHT: signs, zero-padding to N = 2^k rows, the
    Walsh-Hadamard transform and m sampled rows scaled by sqrt(N / m) /
    sqrt(N). One N-row copy of A and an N/2-row temporary are all it holds,
    and only the sampled rows are scaled."""
    n = A.shape[0]
    N = 1 << (n - 1).bit_length() if n > 1 else 1
    if m > N:
        raise ValueError(f"SRHT size m={m} exceeds padded input rows N={N}")
    rng = make_rng(seed)
    sgn = np.empty(n, dtype=np.int8)
    _draw_signs(rng, sgn)
    X = np.zeros((N,) + A.shape[1:])  # padding rows are zeros
    if scipy.sparse.issparse(A):
        A.astype(np.float64, copy=False).toarray(out=X[:n])
        X[:n] *= sgn[:, None]
    else:
        np.multiply(sgn[:, None], A, out=X[:n])
    _fwht_in_place(X)
    rows = rng.choice(N, size=m, replace=False)
    return (X[rows] / math.sqrt(N)) * math.sqrt(N / m)


# entries of S per row block of _apply_gaussian: 8 MiB, since each block
# re-reads A, and blocks of a few rows would make that pass the cost
GAUSSIAN_BLOCK_ENTRIES = 1 << 20


def _apply_gaussian(A, m: int, seed: int) -> np.ndarray:
    """S @ A for the m x n Gaussian S of `_operator`, drawn one row block at a
    time from the same stream: the same entries, without the whole S.

    Blocks hold about GAUSSIAN_BLOCK_ENTRIES entries and at least two rows,
    or all m: numpy multiplies a single row by gemv, which may round unlike
    the gemm of the whole S, while a gemm of some rows of S gives those rows
    of the whole product as the BLAS in use forms them.
    """
    n = A.shape[0]
    rng = make_rng(seed)
    out = np.empty((m, A.shape[1]))
    count = max(1, m // max(2, GAUSSIAN_BLOCK_ENTRIES // max(n, 1)))
    bounds = [m * i // count for i in range(count + 1)]
    for lo, hi in zip(bounds, bounds[1:]):
        S = rng.standard_normal((hi - lo, n))
        S /= math.sqrt(m)
        out[lo:hi] = S @ A
    return out


SCATTER_ENTRIES = 1 << 14  # products per block of _scatter_csr: ~0.3 MB of temporaries


def _scatter_csr(m: int, tables, A) -> np.ndarray:
    """(S @ A).toarray() for the m-row S of tables (rows, signs, scale), as
    `_tables` gives them, and a float64 CSR A, without scipy's sparse x
    sparse product or S's CSC matrix.

    A's stored entries are read in storage order, SCATTER_ENTRIES // s at a
    time; each, times scale, is multiplied by the s signs of its row and
    added into the dense m x d result by np.add.at, which adds repeated
    indices in order. A sign is +-1, so each product is +-fl(scale a), the
    very product of S's entry +-scale and a; every output entry sums its
    terms over A's rows in ascending order, as scipy's product does, and the
    result is bit-identical to it, in O(s nnz(A)) time and one m x d buffer.
    The tables are read in their own dtypes, uint16 rows and int8 signs as
    `_tables` draws them, and widened only in the block's gathers.
    A block's row ids are freed once both gathers have read them, and its
    other arrays before the next block's are formed, so beside the tables
    and the result the temporaries are those of one block, about 17 bytes
    per product for a CountSketch, np.add.at's index buffer included.
    """
    rows, signs, scale = tables
    n, s = rows.shape
    d = A.shape[1]
    out = np.zeros((m, d))
    flat = out.reshape(-1)
    # flat indices are int32 wherever m d fits in it
    flat_index = _index_dtype(m * d)
    step = max(1, SCATTER_ENTRIES // s)
    # first row of each block: one search for all blocks, in indptr's own
    # dtype, so indptr is never cast
    starts = np.arange(0, A.nnz, step, dtype=A.indptr.dtype)
    for lo, r0 in zip(starts.tolist(), (np.searchsorted(A.indptr, starts, "right") - 1).tolist()):
        hi = min(lo + step, A.nnz)
        r1 = int(np.searchsorted(A.indptr, A.indptr.dtype.type(hi)))
        j = np.repeat(np.arange(r0, r1), np.diff(np.clip(A.indptr[r0 : r1 + 1], lo, hi)))
        # every j is a row of the tables, so "clip" gathers the same entries
        # without the bounds check of the default mode; j is freed once both
        # gathers have read it
        sgn = np.take(signs, j, axis=0, mode="clip")
        idx = np.take(rows, j, axis=0, mode="clip").astype(flat_index, copy=False)
        del j
        idx *= d
        idx += A.indices[lo:hi, None]
        vals = sgn.astype(np.float64)
        del sgn
        a = A.data[lo:hi, None]
        vals *= a * scale if scale != 1.0 else a
        np.add.at(flat, idx.ravel(), vals.ravel())
        del idx, vals  # free this block's arrays before the next block's are formed
    return out


def apply(spec: SketchSpec, A, *more):
    """Apply the sketching operator described by spec to A.

    Left side returns S @ A (m rows); right side returns A @ R (m columns),
    computed as (S A')'. Identity returns the input unchanged. With more
    inputs, returns the tuple (apply(spec, A), apply(spec, more[0]), ...),
    each equal to its own call, but a CountSketch or OSNAP is drawn once for
    all of them rather than once per input, and widened to its CSC matrix at
    most once.
    """
    operators = {}
    outs = tuple(_apply(spec, M, operators) for M in (A, *more))
    return outs if more else outs[0]


def _shared(spec: SketchSpec, n: int, operators: dict, csc: bool):
    """spec's operator at n input rows, drawn once per (spec, n) in the dict
    operators shared by the inputs of one `apply` call: its `_tables` for a
    CSR input (csc false), and for a dense one the CSC matrix that `_csc`
    widens them to, once, in their place. Tables asked of that matrix are
    its own arrays, scale 1."""
    key = (spec, n)
    if key not in operators:
        operators[key] = _tables(spec, n)
    if csc and not scipy.sparse.issparse(operators[key]):
        _csc(spec.m, operators, key)
    op = operators[key]
    if not csc and scipy.sparse.issparse(op):
        s = op.nnz // n if n else 1
        return op.indices.reshape(n, s), op.data.reshape(n, s), 1.0
    return op


def halve(SA: np.ndarray, side: str = "left") -> np.ndarray:
    """The bottom half of SA's rows (columns for a right sketch) added onto
    its top half.

    For SA the apply of an M-row CountSketch with hash h (M even) this is the
    apply of the CountSketch with hash h mod M/2 and the same signs: each row
    i < M/2 gathers the input rows hashed to i or i + M/2. It sums them in
    another order than a direct apply of that hash, so the two agree to
    rounding; `apply` of a folded spec halves, so it gives these bits.
    """
    if side == "right":
        h = SA.shape[1] // 2
        return SA[:, :h] + SA[:, h:]
    h = SA.shape[0] // 2
    return SA[:h] + SA[h:]


# A CountSketch or OSNAP of a dense A that is not row-major (the transpose a
# right sketch meets, or a wide input's A') copies one column block of A to
# row-major order at a time, in blocks of la.BLOCK_ENTRIES / COLUMN_BLOCK_DIVISOR
# entries: at 256 KiB they stay in cache, and with one BLAS thread a 384 x 1000
# input to 384 columns took 0.6 ms against 1.9 ms in 1 MiB blocks, with a
# quarter of the copy
COLUMN_BLOCK_DIVISOR = 4


def _apply(spec: SketchSpec, A, operators):
    if spec.variant == "identity":
        return A
    if spec.fold:
        out = _apply(dataclasses.replace(spec, m=spec.fold, fold=0), A, operators)
        while (out.shape[1] if spec.side == "right" else out.shape[0]) > spec.m:
            out = halve(out, spec.side)
        return out
    if spec.variant == "composed":
        out = A
        for part in reversed(spec.inner):
            out = _apply(part, out, operators)
        return out
    right = spec.side == "right"
    if right:
        A = A.T.tocsr() if scipy.sparse.issparse(A) else np.asarray(A, dtype=np.float64).T
    if spec.variant == "srht":
        out = _apply_srht(A, spec.m, spec.seed)
    elif spec.variant == "gaussian":
        out = _apply_gaussian(A, spec.m, spec.seed)
    elif scipy.sparse.issparse(A):
        tables = _shared(spec, A.shape[0], operators, csc=False)
        out = _scatter_csr(spec.m, tables, A.tocsr().astype(np.float64, copy=False))
    else:
        A = np.asarray(A, dtype=np.float64)
        S = _shared(spec, A.shape[0], operators, csc=True)
        if A.flags.c_contiguous:
            out = S @ A
        else:
            # by column blocks of A: each output entry is the same sum, in
            # the same order, and only one block of A is copied to row-major
            # order; a right sketch's output is row-major as (S A')'
            out = np.empty((A.shape[1], spec.m)).T if right else np.empty((spec.m, A.shape[1]))
            for cols in row_blocks(A.shape[1], COLUMN_BLOCK_DIVISOR * A.shape[0]):
                out[:, cols] = S @ A[:, cols]
    # row-major like the left side, so later BLAS calls see one layout
    return np.ascontiguousarray(out.T) if right else out


def right_product(spec: SketchSpec, Z, d: int) -> np.ndarray:
    """R @ Z for the d x m operator R of a right sketch (apply(spec, A) is
    A @ R), so A @ right_product(spec, Z, d) is A @ R @ Z without A @ R.

    R is the transpose of `_operator(spec, d)`: one +-1 per row for a
    CountSketch, so for a k-column Z this costs O(d k). The identity returns
    Z; SRHT, composed and folded specs have no operator here.
    """
    if spec.variant == "identity":
        return np.asarray(Z, dtype=np.float64)
    if spec.side != "right" or spec.fold or spec.variant not in ("countsketch", "osnap", "gaussian"):
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
    U, sigma, _ = np.linalg.svd(as_dense(A), full_matrices=False)
    r = int(np.sum(sigma > 1e-12 * (sigma[0] if sigma.size else 0.0)))
    threshold = 2 * eps + eps**2  # squared-norm form of the (1 +- eps) condition
    if r == 0 or spec.variant == "identity":
        # nothing to distort (A = 0), or sigma(U) = 1 exactly for an
        # orthonormal basis: the deviation is 0, without the roundoff
        return _report([0.0], threshold)
    U = U[:, :r]
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
    U, sigma, Vt = np.linalg.svd(Ad, full_matrices=False)
    s2l = sigma**2 + lam
    shrink = np.divide(sigma, s2l, out=np.zeros_like(s2l), where=s2l > 0)
    U1 = U * np.sqrt(sigma * shrink)
    G = U1.T @ U1
    x = Vt.T @ (shrink * (U.T @ bd))
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
