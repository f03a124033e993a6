"""Benchmark / calibration command line.

Every subcommand runs a seeded family of trials and emits one record per
trial (jsonl or csv), plus a summary line on stderr. The trial subcommands
are registered from TRIAL_COMMANDS, each with only the flags its trial reads,
and share one loop, `run_trials`; each supplies only its per-seed trial.
`calibrate` runs its own search. Objective ratios are floored at 1 - 1e-9 so
tiny negative slack from finite arithmetic does not masquerade as beating the
optimum.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys

import numpy as np
import scipy.sparse

from . import cca as cca_mod
from . import genreg, lowrank, problems, ridge
from . import sketch as sk
from . import statdim
from .la import as_dense, read_matrix_market

RATIO_FLOOR = 1.0 - 1e-9
PASS_RATE = 0.8


def _record(args, seed, exact_obj, sketch_obj, extra, passed=None, ratio=None):
    """One trial's record, in the order `emit` writes it: command, seed,
    exact_objective, sketch_objective, ratio, passed, then the subcommand's
    extras. ratio defaults to sketch_obj / exact_obj, floored at RATIO_FLOOR,
    and passed to ratio <= 1 + eps."""
    if ratio is None:
        if exact_obj > 0:
            ratio = max(sketch_obj / exact_obj, RATIO_FLOOR)
        else:
            ratio = 1.0 if sketch_obj <= 1e-12 else math.inf
    if passed is None:
        passed = ratio <= 1.0 + args.eps
    return {
        "command": args.command,
        "seed": seed,
        "exact_objective": exact_obj,
        "sketch_objective": sketch_obj,
        "ratio": ratio,
        "passed": passed,
        **extra,
    }


def emit(rows, out, fmt):
    fh = open(out, "w") if out else sys.stdout
    try:
        if fmt == "csv":
            keys = sorted({k for r in rows for k in r})
            w = csv.DictWriter(fh, fieldnames=keys)
            w.writeheader()
            for r in rows:
                w.writerow(r)
        else:
            for r in rows:
                fh.write(json.dumps(r) + "\n")
    finally:
        if out:
            fh.close()
    n = len(rows)
    npass = sum(r["passed"] for r in rows)
    rate = npass / n if n else 0.0
    print(f"{npass}/{n} trials passed (rate {rate:.2f}, need {PASS_RATE:.2f})", file=sys.stderr)
    return rate >= PASS_RATE


def _seed_range(text):
    if ".." in text:
        a, b = text.split("..")
        return list(range(int(a), int(b) + 1))
    return [int(text)]


def _positive_int(text):
    """argparse type of the size and count flags: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _policy_file(path):
    """argparse type of --config: the SizePolicy in a JSON file."""
    try:
        with open(path) as fh:
            return sk.SizePolicy.from_json(fh.read())
    except (OSError, ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(f"cannot read a size policy from {path!r}: {exc}") from None


def _sketch_json(text):
    """argparse type of --sketch: a SketchSpec in JSON."""
    try:
        return sk.SketchSpec.from_json(text)
    except (ValueError, TypeError, KeyError, AttributeError) as exc:
        raise argparse.ArgumentTypeError(f"not a sketch spec: {text!r} ({exc!r})") from None


def _matrix_file(path):
    """argparse type of --matrix: the matrix in a Matrix Market file."""
    try:
        return read_matrix_market(path)
    except (OSError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"cannot read a matrix from {path!r}: {exc}") from None


def _load_matrix(args, seed):
    if args.matrix is not None:
        A = args.matrix
        rng = np.random.default_rng(seed)
        b = A @ rng.standard_normal(A.shape[1])
        return A, b
    return problems.generate_problem(args.n, args.d, seed, kind=args.spectrum, density=args.density)


def _sketch_spec(args, m, seed, limit=None):
    if args.sketch is not None:
        return args.sketch.with_seed(seed)
    if limit is None:
        return sk.countsketch(m, seed=seed)
    return sk.countsketch_or_identity(m, limit, seed)


def _resolve_lambda(args, A):
    if args.lam is not None:
        return args.lam
    return problems.lambda_for_sd(A, 3.0, 8.0)


def _sketch_rows(spec, n):
    """Rows the applied sketch leaves of n: the m of its outermost part that
    is not the identity, or n when every part is."""
    parts = spec.inner if spec.variant == "composed" else (spec,)
    return next((part.m for part in parts if part.variant != "identity"), n)


def _ridge_trial(args, seed):
    A, b = _load_matrix(args, seed)
    responses = {}
    if "dprime" in args:
        # mr-ridge: a seeded d'-column B near the range of A
        rng = np.random.default_rng(seed + 1)
        b = np.asarray(A @ rng.standard_normal((A.shape[1], args.dprime)))
        b = b + 0.01 * rng.standard_normal(b.shape)
        responses = {"dprime": args.dprime}
    lam = _resolve_lambda(args, A)
    p = ridge.RidgeProblem(A, b, lam)
    ex = ridge.solve_exact(p)
    sd = statdim.sd_estimate(A, lam, seed=seed).estimate
    m = min(A.shape[0], sk.recommend_sizes(args.policy, sd, args.eps, "ridge_rows"))
    spec = _sketch_spec(args, m, seed, limit=A.shape[0])
    sol = ridge.solve_sketched_rows(p, spec)
    return _record(
        args, seed, ex.objective, sol.objective,
        {"lam": lam, "m": _sketch_rows(spec, A.shape[0]), "sd_hat": sd, "guard": sol.guard_applied,
         **responses},
    )


def _lowrank_trial(args, seed):
    A, _ = _load_matrix(args, seed)
    lam = args.lam if args.lam is not None else 0.25
    ex = lowrank.solve_exact_shrink(A, args.k, lam)
    sol = lowrank.solve_sketched(A, args.k, lam, args.eps, policy=args.policy, seed=seed)
    # pass criterion: additive eps ||A||_F^2 slack on the objective gap, with
    # ||A||_F^2 read from the stored entries of a sparse A
    fro2 = float(np.sum((A.data if scipy.sparse.issparse(A) else as_dense(A)) ** 2))
    gap = sol.objective - ex.objective
    return _record(
        args, seed, ex.objective, sol.objective,
        {"lam": lam, "k": args.k, "gap_over_fro2": gap / fro2 if fro2 else 0.0,
         "m": sol.sizes["m"], "m_drawn": sol.sizes["m_drawn"],
         "levels_read": sol.sizes["levels_read"], "sd_hat": sol.sizes["sd_hat"]},
        passed=gap <= args.eps * fro2 + 1e-9,
    )


def _cca_trial(args, seed):
    A, _ = problems.generate_problem(args.n, args.d, seed, kind=args.spectrum, density=args.density)
    B, _ = problems.generate_problem(
        args.n, args.dprime, seed + 10_000, kind=args.spectrum, density=args.density
    )
    lam = args.lam if args.lam is not None else 0.1
    ex = cca_mod.solve_exact_cca(A, B, lam, lam)
    sd_max = max(statdim.sd_exact(A, lam), statdim.sd_exact(B, lam))
    m = min(args.n, cca_mod.cca_sketch_size(args.policy, sd_max, args.eps))
    spec = _sketch_spec(args, m, seed, limit=args.n)
    sol = cca_mod.solve_sketched_cca(A, B, lam, lam, spec)
    val = cca_mod.validate_cca(A, B, lam, lam, sol, ex, eta=args.eps)
    # ratio is the worst of the three conditions the gate reads, over eta, so
    # that the trial passes exactly when ratio <= 1
    worst = max(val.max_sigma_dev, val.max_constraint_dev, val.max_alignment_dev)
    return _record(
        args, seed, sum(ex.sigmas), sum(sol.sigmas),
        {"lam": lam, "m": _sketch_rows(spec, args.n), "max_sigma_dev": val.max_sigma_dev,
         "validated": val.passed},
        passed=val.passed,
        ratio=worst / val.eta,
    )


def _prox_measure(name):
    """argparse type of --measure: a shipped measure that has a prox operator."""
    usable = sorted(k for k, m in genreg.builtin_measures().items() if m.prox is not None)
    if name not in usable:
        raise argparse.ArgumentTypeError(
            f"{name!r} is not a measure with a prox; choose from {', '.join(usable)}"
        )
    return name


def _genreg_trial(args, seed):
    f = genreg.scaled(genreg.builtin_measures()[args.measure], args.lam if args.lam is not None else 0.1)
    solver = genreg.prox_small_solver(f)
    A, _ = _load_matrix(args, seed)
    rng = np.random.default_rng(seed + 2)
    B = np.asarray(A @ rng.standard_normal((A.shape[1], args.dprime)))
    # the reference side is the same prox solver on (A, B) itself
    _, obj_exact = genreg.solve_general_regression(
        A, B, f, solver, args.eps, policy=args.policy, seed=seed, identity_sketches=True,
        assume_inheritance=True,
    )
    _, obj = genreg.solve_general_regression(
        A, B, f, solver, args.eps, policy=args.policy, seed=seed, assume_inheritance=True
    )
    return _record(args, seed, obj_exact, obj, {"measure": args.measure})


def _statdim_trial(args, seed):
    A, _ = _load_matrix(args, seed)
    lam = args.lam if args.lam is not None else 0.1
    exact = statdim.sd_exact(A, lam)
    est = statdim.sd_estimate(A, lam, seed=seed)
    return _record(
        args, seed, exact, est.estimate,
        {"lam": lam, "lower": est.lower, "upper": est.upper, "binding": est.binding},
        passed=est.lower <= exact <= est.upper if est.binding else True,
    )


def _check_embedding_trial(args, seed):
    A, _ = _load_matrix(args, seed)
    spec = _sketch_spec(args, A.shape[0] // 2 if args.m is None else args.m, seed)
    rep = sk.check_subspace_embedding(spec, A, args.eps, trials=args.trials)
    # no objective: the record holds the worst deviation against its threshold
    return _record(
        args, seed, None, None,
        {"variant": spec.variant, "m": _sketch_rows(spec, A.shape[0]),
         "pass_fraction": rep.pass_fraction, "max_deviation": rep.max_deviation,
         "threshold": rep.threshold},
        passed=rep.passed,
        ratio=rep.max_deviation / rep.threshold,
    )


# subcommand -> (help, per-seed trial, the shared flags it reads, as named in
# _add_shared, and its own (flag, type, default)s)
TRIAL_COMMANDS = {
    "ridge": ("row-sketched ridge regression trials", _ridge_trial, "eps lam density matrix sketch config", []),
    "mr-ridge": ("multiple-response ridge trials", _ridge_trial, "eps lam density matrix sketch config",
                 [("--dprime", _positive_int, 4)]),
    "lowrank": ("regularized rank-k factorization trials", _lowrank_trial, "eps lam density matrix config",
                [("--k", _positive_int, 5)]),
    "cca": ("regularized CCA trials", _cca_trial, "eps lam density sketch config", [("--dprime", _positive_int, 20)]),
    "genreg": ("general-regularizer regression trials", _genreg_trial, "eps lam density matrix config",
               [("--measure", _prox_measure, "vnorm_2"), ("--dprime", _positive_int, 3)]),
    "statdim": ("statistical-dimension estimator trials", _statdim_trial, "lam density matrix", []),
    "check-embedding": ("empirical subspace-embedding check", _check_embedding_trial, "eps density matrix sketch",
                        [("--m", _positive_int, None), ("--trials", _positive_int, 5)]),
}


def run_trials(args):
    """One record per seed from the subcommand's trial, then the summary."""
    rows = [args.trial(args, seed) for seed in _seed_range(args.seeds)]
    return emit(rows, args.out, args.format)


# constant -> the (purpose, variant) of the size rule it multiplies
CALIBRATED = {
    "k_sparse": ("ridge_rows", "countsketch"),
    "k_srht": ("ridge_rows", "srht"),
    "k_gauss": ("ridge_rows", "gaussian"),
    "k_subspace": ("subspace", "countsketch"),
    "k_affine": ("affine", "countsketch"),
}


def _calibration_inputs(args, seed):
    """Each family's seeded inputs, which depend on the seed alone: the
    ridge_rows constants run on the --n x --d family (its ridge problem,
    sd_lambda and exact objective), subspace and affine on a tall 2000 x 8
    one (A and B), so their d^2/eps^2 sizes stay below n (or the search meets
    a flat pass rate)."""
    A, b = problems.generate_problem(args.n, args.d, seed, kind=args.spectrum)
    lam = problems.lambda_for_sd(A, 3.0, 8.0)
    p = ridge.RidgeProblem(A, b, lam)
    T, _ = problems.generate_problem(2000, 8, seed, kind=args.spectrum)
    B = np.asarray(T @ np.random.default_rng(seed).standard_normal((T.shape[1], 3)))
    return {"ridge": (p, statdim.sd_exact(A, lam), ridge.solve_exact(p).objective), "tall": (T, B)}


def _calibration_trial(args, constant, K, seed, inputs):
    """Whether the seed's problem meets the eps target under a sketch sized by
    the constant's rule, with the constant forced to K."""
    purpose, variant = CALIBRATED[constant]
    if purpose == "ridge_rows":
        p, sd, exact = inputs["ridge"]
        A = p.A
    else:
        A, B = inputs["tall"]
        sd = float(A.shape[1])
    m = min(A.shape[0], sk.recommend_sizes(sk.SizePolicy(**{constant: K}), sd, args.eps, purpose, variant))
    spec = sk.SketchSpec(variant, m=m, seed=seed)
    if purpose == "ridge_rows":
        return ridge.solve_sketched_rows(p, spec).objective <= (1.0 + args.eps) * exact + 1e-12
    if purpose == "subspace":
        return sk.check_subspace_embedding(spec, A, args.eps, trials=1).passed
    return sk.check_affine_embedding(spec, A, B, args.eps, trials=1).passed


def cmd_calibrate(args):
    """Smallest constant per rule with >= 0.9 pass rate: double up from
    1/16, then bisect 12 steps. Each seed's inputs are built once, for every
    constant and step. Prints the fitted SizePolicy as JSON, the format
    --config reads."""
    inputs = {seed: _calibration_inputs(args, seed) for seed in _seed_range(args.seeds)}
    fitted = {}
    for constant in CALIBRATED:
        def passes(K):
            hits = sum(_calibration_trial(args, constant, K, seed, inp) for seed, inp in inputs.items())
            return hits / len(inputs) >= 0.9

        K = 1.0 / 16.0
        while K < 4096 and not passes(K):
            K *= 2.0
        lo, hi = K / 2.0, K
        for _ in range(12):
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if passes(mid) else (mid, hi)
        fitted[constant] = hi
    policy = sk.SizePolicy(
        **fitted,
        provenance=f"regsketch calibrate --seeds {args.seeds} --eps {args.eps} "
        f"({args.n}x{args.d} {args.spectrum} family): minima at 0.9 pass rate",
    )
    text = json.dumps(dataclasses.asdict(policy), indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return True


class _GeneratorFlag(argparse.Action):
    """Stores a flag of the problem generator and notes it given, for `main` to refuse next to --matrix."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.generator_flags += (self.option_strings[0],)


def _add_family(p):
    """Flags of every subcommand: the seeded problem family and the output."""
    p.add_argument("--seeds", default="0..9", help="seed or inclusive range a..b")
    p.add_argument("--n", type=_positive_int, default=200, action=_GeneratorFlag)
    p.add_argument("--d", type=_positive_int, default=30, action=_GeneratorFlag)
    p.add_argument("--spectrum", default="geometric", choices=problems.SPECTRA, action=_GeneratorFlag)
    p.add_argument("--out", default=None)
    p.set_defaults(generator_flags=())


def _add_shared(p, names):
    """The shared flags named in the space-separated names: a subcommand takes
    only those its trial reads."""
    flags = {
        "eps": (("--eps",), {"type": float, "default": 0.5}),
        "lam": (("--lam", "--lambda"), {"dest": "lam", "type": float, "default": None}),
        "density": (("--density",), {"type": float, "default": None, "action": _GeneratorFlag}),
        "matrix": (("--matrix",), {"type": _matrix_file, "default": None, "help": "Matrix Market file for A"}),
        "sketch": (("--sketch",), {"type": _sketch_json, "default": None, "help": "sketch spec as JSON"}),
        "config": (("--config",), {"dest": "policy", "type": _policy_file, "default": sk.SizePolicy(),
                                   "help": "size-policy JSON file"}),
    }
    for name in names.split():
        option_strings, kwargs = flags[name]
        p.add_argument(*option_strings, **kwargs)


def main(argv=None):
    ap = argparse.ArgumentParser(prog="regsketch")
    sub = ap.add_subparsers(dest="command", required=True)

    for name, (help_text, trial, shared, extra) in TRIAL_COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        _add_family(p)
        _add_shared(p, shared)
        p.add_argument("--format", default="jsonl", choices=("jsonl", "csv"))
        for flag, type_, default in extra:
            p.add_argument(flag, type=type_, default=default)
        p.set_defaults(fn=run_trials, trial=trial)

    p = sub.add_parser("calibrate", help="fit size-policy constants on the seeded family")
    _add_family(p)
    _add_shared(p, "eps")
    p.set_defaults(fn=cmd_calibrate)

    args = ap.parse_args(argv)
    if getattr(args, "matrix", None) is not None and args.generator_flags:
        given = ", ".join(dict.fromkeys(args.generator_flags))
        sub.choices[args.command].error(f"argument --matrix: not allowed with {given}")
    ok = args.fn(args)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
