"""Per-layer metrics: which regsketch bindings the traced run wraps, how a
round's spans become metrics, and the sketch-kernel probes.

Metric names are `<module>.<function>.<quantity>`. A metric of a layer that a
workload does not call reads 0 on that workload. README.md maps each metric
to the end-to-end metric and workload it should move.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.sparse

from regsketch import cca, genreg, la, lowrank, problems, ridge, sketch, statdim

# (owner, attribute, span name): every binding through which the workloads
# reach a public function. Bindings imported by name are wrapped in the
# importing module, since that is the name the caller looks up.
SPANNED = [
    (statdim, "sd_estimate", "statdim.sd_estimate"),
    (statdim, "residual_norm_estimate", "statdim.residual_norm_estimate"),
    (problems, "lambda_for_sd", "problems.lambda_for_sd"),
    (problems, "sd_exact", "problems.sd_exact"),
    (sketch, "apply", "sketch.apply"),
    (ridge, "solve_sketched_rows", "ridge.solve_sketched_rows"),
    (ridge, "objective_value", "ridge.objective_value"),
    (ridge, "solve_exact", "ridge.solve_exact"),
    (lowrank, "core_sizes", "lowrank.core_sizes"),
    (lowrank, "build_core_sized", "lowrank.build_core_sized"),
    (lowrank, "solve_core", "lowrank.solve_core"),
    (lowrank, "objective_value", "lowrank.objective_value"),
    (lowrank, "solve_sketched", "lowrank.solve_sketched"),
    (cca, "solve_sketched_cca", "cca.solve_sketched_cca"),
    (cca, "solve_exact_cca", "cca.solve_exact_cca"),
    (cca, "lambda_qr", "la.lambda_qr"),
    (genreg, "solve_general_regression", "genreg.solve_general_regression"),
]

# modules holding their own `as_dense` binding; only bytes are counted, so the
# densifying copy stays in its caller's self time
AS_DENSE_OWNERS = [la, statdim, sketch, ridge, lowrank, cca, genreg]

# `<span name>.<quantity>` read from one round's span summary
SPAN_METRICS = [
    "statdim.sd_estimate.s",
    "statdim.residual_norm_estimate.calls",
    "sketch.apply.s",
    "sketch.apply.calls",
    "sketch.apply.peak_mb",
    "ridge.solve_sketched_rows.self_s",
    "ridge.objective_value.s",
    "ridge.solve_exact.s",
    "lowrank.core_sizes.s",
    "lowrank.build_core_sized.self_s",
    "lowrank.solve_core.s",
    "lowrank.objective_value.s",
    "lowrank.objective_value.peak_mb",
    "lowrank.solve_sketched.self_s",
    "cca.solve_sketched_cca.self_s",
    "cca.solve_sketched_cca.peak_mb",
    "cca.solve_exact_cca.s",
    "la.lambda_qr.s",
    "genreg.solve_general_regression.self_s",
    "genreg.small_solver.s",
]

# read from the unsketched solve of a round; every other span and counter
# metric is read from the sketched solve alone
EXACT_PATH = {"ridge.solve_exact.s", "cca.solve_exact_cca.s", "la.lambda_qr.s"}

# counters taken at wrapped boundaries
COUNT_METRICS = ["sketch.apply.entries", "sketch.apply.rows", "la.as_dense.bytes", "genreg.prox.calls"]

# read from the spans of one traced set-up
SETUP_METRICS = ["problems.lambda_for_sd.s", "problems.sd_exact.calls"]

PROBE_REPS = 5  # timed calls of each probe; its median is reported

PROBES = ["countsketch_dense", "countsketch_csr", "osnap", "srht", "gaussian", "csr_matmul_floor"]

UNITS = {"s": "s", "self_s": "s", "overhead_s": "s", "calls": "count", "entries": "count", "rows": "count",
         "peak_mb": "MB", "bytes": "B", "entries_per_s": "1/s", "over_exact": "ratio"}


def install(tracer, sd_exact_by_id: dict) -> None:
    """Wrap every binding in SPANNED and AS_DENSE_OWNERS on `tracer`."""

    def on_sd_estimate(args, kwargs, result):
        exact = sd_exact_by_id.get(id(args[0]))
        if exact:
            tracer.record("statdim.sd_estimate.over_exact", result.estimate / exact)

    def on_apply(args, kwargs, result):
        spec, A = args[0], args[1]
        if spec.variant != "identity":
            tracer.count("sketch.apply.entries", la.nnz(A))
            tracer.count("sketch.apply.rows", spec.m)

    hooks = {"statdim.sd_estimate": on_sd_estimate, "sketch.apply": on_apply}
    for owner, attr, name in SPANNED:
        tracer.wrap(owner, attr, name, on_call=hooks.get(name))

    def on_as_dense(args, kwargs, result):
        if scipy.sparse.issparse(args[0]):
            tracer.count("la.as_dense.bytes", result.nbytes)

    for owner in AS_DENSE_OWNERS:
        tracer.wrap(owner, "as_dense", "la.as_dense", on_call=on_as_dense, span=False)


def _from_spans(spans: dict, metric: str):
    span, quantity = metric.rsplit(".", 1)
    return spans.get(span, {}).get(quantity, 0)


def round_metrics(exact: dict, sketched: dict) -> dict:
    """Per-layer metrics of one round, from the span summaries of its
    unsketched and its sketched solve."""
    out = {m: _from_spans((exact if m in EXACT_PATH else sketched)["spans"], m) for m in SPAN_METRICS}
    out.update({m: sketched["counts"].get(m, 0) for m in COUNT_METRICS})
    ratios = sketched["values"].get("statdim.sd_estimate.over_exact", [])
    out["statdim.sd_estimate.over_exact"] = max(ratios, default=0.0)
    return out


def setup_metrics(summary: dict) -> dict:
    return {m: _from_spans(summary["spans"], m) for m in SETUP_METRICS}


def unit_of(metric: str) -> str:
    return UNITS[metric.rsplit(".", 1)[1]]


def _median_time(fn) -> float:
    times = []
    for _ in range(PROBE_REPS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def kernel_probes(seed: int) -> dict:
    """Entries per second of each sketch kernel on fixed-shape seeded inputs.

    Dense probes sketch a 65536 x 32 matrix to 256 rows. The CSR probe
    sketches a 262144 x 64 CSR matrix with 1/16 of its entries stored. The
    floor is a plain scipy CSR product S @ A of the same CountSketch operator,
    with S obtained by applying the sketch to identity column blocks.
    """
    rng = np.random.default_rng([int(seed), 99])
    m, n = 256, 65536
    dense = rng.standard_normal((n, 32))
    sparse = scipy.sparse.random(262144, 64, density=1 / 16, format="csr", random_state=rng)
    cs = sketch.countsketch(m, seed=seed)
    eye = scipy.sparse.identity(n, format="csc")
    S = scipy.sparse.hstack(
        [scipy.sparse.csr_matrix(sketch.apply(cs, eye[:, j : j + 4096].tocsr())) for j in range(0, n, 4096)]
    ).tocsr()
    runs = {
        "countsketch_dense": (lambda: sketch.apply(cs, dense), dense.size),
        "countsketch_csr": (lambda: sketch.apply(cs, sparse), sparse.nnz),
        "osnap": (lambda: sketch.apply(sketch.osnap(m, seed=seed), dense), dense.size),
        "srht": (lambda: sketch.apply(sketch.srht(m, seed=seed), dense), dense.size),
        "gaussian": (lambda: sketch.apply(sketch.gaussian(m, seed=seed), dense), dense.size),
        "csr_matmul_floor": (lambda: S @ dense, dense.size),
    }
    return {f"sketch.{name}.entries_per_s": entries / _median_time(fn)
            for name, (fn, entries) in runs.items()}


def metric_names() -> list:
    probes = [f"sketch.{p}.entries_per_s" for p in PROBES]
    return SPAN_METRICS + COUNT_METRICS + ["statdim.sd_estimate.over_exact"] + SETUP_METRICS + probes + [
        "trace.overhead_s"
    ]
