"""Sketched-vs-exact benchmark of regsketch.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from `src/`. One run
makes its inputs from --seed, times set-up, then alternates the program's
unsketched solve and its full sketched pipeline (sizing included) for about S
seconds, checking every output against reference.py. The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end ones; with
--trace 1 they are the per-layer ones from spans around regsketch's public
functions (see layers.py), and the spans are written to perfbench/out/.
"""

import os
import sys

# One BLAS thread, pinned before numpy loads: single-process timings on a
# shared machine are steadiest without BLAS worker threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")

SETUP_REPS = 3  # set-up is timed this many times per run; its median is setup_s

END_TO_END_UNITS = {"sketched_s": "s", "exact_s": "s", "sketched_peak_mb": "MB", "setup_s": "s"}


def sketch_seed(seed: int, sample: int) -> int:
    """Seed of the sketches drawn for one sample, from the run seed."""
    return int(np.random.SeedSequence([int(seed), int(sample)]).generate_state(1)[0])


class Ops:
    """Counts operations and failures; an operation that raises is failed,
    one whose output fails its check makes the run incorrect."""

    def __init__(self, workload, ref, inp):
        self.w, self.ref, self.inp = workload, ref, inp
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.ratios = {"exact": [], "sketched": []}

    def solve(self, kind: str, inp: dict, seed: int = 0):
        """Time one solve; return (seconds, output), or None when it raised."""
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            out = self.w.exact(inp) if kind == "exact" else self.w.sketched(inp, seed)
            elapsed = time.perf_counter() - t0
        except Exception as exc:  # a failed operation is counted, the run goes on
            self.failed += 1
            print(f"{self.w.name} {kind}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return None
        return elapsed, out

    def check(self, kind: str, out) -> None:
        from reference import CheckFailed

        try:
            self.ratios[kind].append(self.w.check(self.ref, self.inp, out, kind == "sketched"))
        except CheckFailed as exc:
            self.correct = False
            print(f"{self.w.name} {kind}: check failed: {exc}", file=sys.stderr)

    def run(self, kind: str, inp: dict, seed: int = 0):
        """Time one solve and check its output afterwards; return the seconds,
        or None when the solve raised."""
        done = self.solve(kind, inp, seed)
        if done is None:
            return None
        self.check(kind, done[1])
        return done[0]


def timed_setups(w, seed: int):
    times, inp = [], None
    for _ in range(SETUP_REPS):
        inp = None  # free the previous inputs before the next set-up
        t0 = time.perf_counter()
        inp = w.setup(seed)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), inp


def run_untraced(w, seed: int, seconds: float):
    t_begin = time.perf_counter()
    setup_s, inp = timed_setups(w, seed)
    t_setup = time.perf_counter()
    ops = Ops(w, w.reference(inp), inp)
    t_ref = time.perf_counter()
    # warm-up of both paths: lazy imports and first-touch costs
    ops.run("exact", inp)
    ops.run("sketched", inp, sketch_seed(seed, 0))

    # untimed pass: peak traced allocation of one sketched solve above the
    # live inputs, read before its output is checked
    tracemalloc.start()
    try:
        done = ops.solve("sketched", inp, sketch_seed(seed, 0))
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    if done is not None:
        ops.check("sketched", done[1])

    exact_t, sketched_t = [], []
    start, rnd = time.perf_counter(), 0
    while rnd == 0 or time.perf_counter() - start < seconds:
        # alternate which side goes first, so slow drift within a run hits both
        for kind in ("exact", "sketched") if rnd % 2 == 0 else ("sketched", "exact"):
            if kind == "exact":
                for _ in range(w.exact_reps):
                    exact_t.append(ops.run("exact", inp))
            else:
                sketched_t.append(ops.run("sketched", inp, sketch_seed(seed, rnd + 1)))
        rnd += 1

    print(
        f"{w.name} seed={seed}: {rnd} rounds; sketched {_spread(sketched_t)}; exact {_spread(exact_t)}; "
        f"objective ratio sketched max {max(ops.ratios['sketched'], default=float('nan')):.6f}; "
        f"set-ups {t_setup - t_begin:.1f} s, reference {t_ref - t_setup:.1f} s, "
        f"warm-up and peak {start - t_ref:.1f} s, rounds {time.perf_counter() - start:.1f} s",
        file=sys.stderr,
    )
    metrics = {
        "sketched_s": _median(sketched_t),
        "exact_s": _median(exact_t),
        "sketched_peak_mb": peak_mb,
        "setup_s": setup_s,
    }
    return ops, {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}


def run_traced(w, seed: int, seconds: float):
    import layers
    from spans import Tracer

    tracer = Tracer()
    mark = tracer.mark()
    layers.install(tracer, {})
    try:
        inp = w.setup(seed)
    finally:
        tracer.unwrap_all()
    setup_metrics = layers.setup_metrics(tracer.summary(mark))
    ops = Ops(w, w.reference(inp), inp)
    sd_exact = w.sd_exact(inp)
    traced_inp = w.instrument(inp, tracer)
    probes = layers.kernel_probes(seed)
    ops.run("exact", inp)  # warm-up
    ops.run("sketched", inp, sketch_seed(seed, 0))

    rounds, traced_t, untraced_t = [], [], []
    start, rnd = time.perf_counter(), 0
    while rnd == 0 or time.perf_counter() - start < seconds:
        s = sketch_seed(seed, rnd + 1)
        untraced_t.append(ops.run("sketched", inp, s))
        tracemalloc.start()
        layers.install(tracer, sd_exact)
        try:
            mark = tracer.mark()
            ops.run("exact", traced_inp)
            exact_summary = tracer.summary(mark)
            mark = tracer.mark()
            traced_t.append(ops.run("sketched", traced_inp, s))
            rounds.append(layers.round_metrics(exact_summary, tracer.summary(mark)))
        finally:
            tracer.unwrap_all()
            tracemalloc.stop()
        rnd += 1

    os.makedirs(OUT, exist_ok=True)
    tracer.dump(os.path.join(OUT, f"spans-{w.name}-{seed}.jsonl"))
    metrics = {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
    metrics.update(setup_metrics)
    metrics.update(probes)
    metrics["trace.overhead_s"] = _median(traced_t) - _median(untraced_t)
    print(f"{w.name} seed={seed}: {rnd} traced rounds", file=sys.stderr)
    return ops, {k: {"value": metrics[k], "unit": layers.unit_of(k)} for k in layers.metric_names()}


def _spread(samples) -> str:
    kept = sorted(t for t in samples if t is not None)
    if not kept:
        return "no samples"
    return f"{len(kept)} samples, min/median/max {kept[0]:.4f}/{statistics.median(kept):.4f}/{kept[-1]:.4f} s"


def _median(samples):
    kept = [t for t in samples if t is not None]
    return statistics.median(kept) if kept else float("nan")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "regsketch", "__init__.py")):
        print(f"run.py: no regsketch sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    runner = run_traced if args.trace else run_untraced
    ops, metrics = runner(w, args.seed, args.seconds)
    print(json.dumps({"correct": ops.correct, "attempted": ops.attempted, "failed": ops.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
