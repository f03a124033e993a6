"""Span nesting, self time, peak allocation and unwrapping."""

import time
import tracemalloc
import types

import numpy as np
import pytest

from spans import Tracer


def _fake_module():
    mod = types.SimpleNamespace()

    def inner():
        time.sleep(0.02)
        return np.ones(1_000_000)  # 8 MB

    def outer():
        time.sleep(0.02)
        return float(mod.inner().sum())

    mod.inner, mod.outer = inner, outer
    return mod


def test_self_time_excludes_children_and_unwrap_restores():
    mod = _fake_module()
    originals = (mod.inner, mod.outer)
    tracer = Tracer()
    tracer.wrap(mod, "inner", "m.inner")
    tracer.wrap(mod, "outer", "m.outer", on_call=lambda a, k, r: tracer.count("m.outer.calls"))
    mark = tracer.mark()
    assert mod.outer() == 1_000_000.0
    summary = tracer.summary(mark)
    outer, inner = summary["spans"]["m.outer"], summary["spans"]["m.inner"]
    assert outer["s"] >= inner["s"] >= 0.02
    assert outer["self_s"] == pytest.approx(outer["s"] - inner["s"], abs=1e-9)
    assert summary["counts"] == {"m.outer.calls": 1}
    assert tracer.spans[1].parent == tracer.spans[0].id
    tracer.unwrap_all()
    assert (mod.inner, mod.outer) == originals


def test_peak_is_attributed_to_enclosing_spans():
    mod = _fake_module()
    tracer = Tracer()
    tracer.wrap(mod, "inner", "m.inner")
    tracer.wrap(mod, "outer", "m.outer")
    tracemalloc.start()
    try:
        mark = tracer.mark()
        mod.outer()
        spans = tracer.summary(mark)["spans"]
    finally:
        tracemalloc.stop()
        tracer.unwrap_all()
    assert spans["m.inner"]["peak_mb"] >= 8.0
    assert spans["m.outer"]["peak_mb"] >= 8.0


def test_count_only_wrapper_opens_no_span():
    mod = _fake_module()
    tracer = Tracer()
    tracer.wrap(mod, "inner", "m.inner", on_call=lambda a, k, r: tracer.count("bytes", r.nbytes), span=False)
    mod.inner()
    tracer.unwrap_all()
    assert tracer.spans == [] and tracer.counts == {"bytes": 8_000_000}
