"""BENCHMARK.json names exactly the metrics and workloads the benchmark reports."""

import json
import os
import re

import layers
import run
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_metrics_and_workloads_match_the_code():
    bench = _bench()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        name: layers.unit_of(name) for name in layers.metric_names()
    }


def test_fields_are_well_formed():
    bench = _bench()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer") for x in bench[key]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in bench["workloads"])
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in bench["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
