"""A traced round reads the exact-path metrics from the unsketched solve and
every other metric from the sketched solve alone."""

import layers


def _summary(spans, counts=None, values=None):
    return {"spans": spans, "counts": counts or {}, "values": values or {}}


def test_round_metrics_keep_the_two_solves_apart():
    # both solves call solve_exact_cca, lambda_qr and apply; each metric must
    # come from one of them only
    exact = _summary(
        {"cca.solve_exact_cca": {"s": 1.0}, "la.lambda_qr": {"s": 0.9}, "sketch.apply": {"s": 5.0, "calls": 5}},
        {"sketch.apply.rows": 100, "la.as_dense.bytes": 1000},
    )
    sketched = _summary(
        {"cca.solve_exact_cca": {"s": 0.01}, "la.lambda_qr": {"s": 0.005}, "sketch.apply": {"s": 0.2, "calls": 1}},
        {"sketch.apply.rows": 7, "la.as_dense.bytes": 64},
        {"statdim.sd_estimate.over_exact": [1.5, 1.2]},
    )
    m = layers.round_metrics(exact, sketched)
    assert m["cca.solve_exact_cca.s"] == 1.0 and m["la.lambda_qr.s"] == 0.9
    assert m["sketch.apply.s"] == 0.2 and m["sketch.apply.calls"] == 1
    assert m["sketch.apply.rows"] == 7 and m["la.as_dense.bytes"] == 64
    assert m["statdim.sd_estimate.over_exact"] == 1.5
    assert m["genreg.prox.calls"] == 0 and m["ridge.solve_exact.s"] == 0
