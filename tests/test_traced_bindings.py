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
