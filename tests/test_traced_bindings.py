"""The traced benchmark (`perfbench/run.py --trace 1`) wraps regsketch
functions by module and name; each one it names must still exist."""

import os

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_every_traced_binding_exists(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import layers
    from spans import Tracer

    bindings = [(owner, attr) for owner, attr, _ in layers.SPANNED]
    bindings += [(owner, "as_dense") for owner in layers.AS_DENSE_OWNERS]
    tracer = Tracer()
    try:
        layers.install(tracer, {})
        assert all(hasattr(getattr(owner, attr), "__wrapped__") for owner, attr in bindings)
    finally:
        tracer.unwrap_all()
    assert not any(hasattr(getattr(owner, attr), "__wrapped__") for owner, attr in bindings)


def test_traced_genreg_run_counts_prox_steps(monkeypatch):
    # the traced benchmark wraps the small solver genreg_mr builds and counts
    # the prox calls of its measure: both must still see the solve
    monkeypatch.syspath_prepend(PERFBENCH)
    import layers
    import workloads
    from spans import Tracer

    w = workloads.GenregMr()
    monkeypatch.setattr(w, "n", 4000)
    inp = w.setup(1)
    tracer = Tracer()
    try:
        layers.install(tracer, {})
        traced = w.instrument(inp, tracer)
        mark = tracer.mark()
        w.sketched(traced, 1)
        summary = tracer.summary(mark)
    finally:
        tracer.unwrap_all()
    assert summary["counts"].get("genreg.prox.calls", 0) > 0
    assert summary["spans"]["genreg.small_solver"]["calls"] == 1
    assert not hasattr(workloads.genreg.solve_general_regression, "__wrapped__")


def test_traced_lowrank_run_records_each_layer_once(monkeypatch):
    # the benchmark's lowrank per-layer metrics read these three spans: a
    # solve that reached a layer through a name the tracer does not wrap
    # would read 0 there without failing
    monkeypatch.syspath_prepend(PERFBENCH)
    import layers
    import workloads
    from spans import Tracer

    w = workloads.LowrankDense()
    monkeypatch.setattr(w, "n", 800)
    monkeypatch.setattr(w, "d", 200)
    inp = w.setup(1)
    tracer = Tracer()
    try:
        layers.install(tracer, {})
        mark = tracer.mark()
        w.sketched(w.instrument(inp, tracer), 1)
        spans = tracer.summary(mark)["spans"]
    finally:
        tracer.unwrap_all()
    for name in ("lowrank.core_sizes", "lowrank.build_core_sized", "lowrank.solve_core"):
        assert spans.get(name, {}).get("calls") == 1, name
