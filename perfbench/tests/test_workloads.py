"""Every workload's program outputs pass the reference checks at small sizes,
and run.py refuses to run without the program's sources."""

import os
import shutil
import subprocess
import sys

import pytest

import workloads

SMALL = {
    "ridge_tall": {"n": 4096, "d": 16},
    "lowrank_dense": {"n": 400, "d": 120},
    "cca_sparse": {"n": 20_000},
    "genreg_mr": {"n": 8000},
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_small_workload_outputs_pass_checks(name):
    w = type(workloads.WORKLOADS[name])()
    for attr, value in SMALL[name].items():
        setattr(w, attr, value)
    inp = w.setup(3)
    r = w.reference(inp)
    # each check raises reference.CheckFailed on a wrong answer
    w.check(r, inp, w.exact(inp), sketched=False)
    w.check(r, inp, w.sketched(inp, 11), sketched=True)


def test_run_fails_without_program_sources(tmp_path):
    bench = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    shutil.copytree(bench, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "genreg_mr", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
