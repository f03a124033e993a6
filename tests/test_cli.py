import argparse
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest
import scipy.sparse

from regsketch import cli, la
from regsketch import sketch as sk


def _read_jsonl(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def test_identity_override_all_pass(tmp_path):
    out = tmp_path / "ridge.jsonl"
    rc = cli.main([
        "ridge", "--seeds", "0..9", "--n", "300", "--d", "10",
        "--sketch", '{"variant": "identity", "m": 0, "seed": 0, "side": "left"}',
        "--out", str(out),
    ])
    assert rc == 0
    rows = _read_jsonl(out)
    assert len(rows) == 10
    assert all(r["passed"] for r in rows)
    assert all(r["ratio"] <= 1 + 1e-6 for r in rows)


def test_undersketched_run_exits_nonzero(tmp_path):
    out = tmp_path / "under.jsonl"
    rc = cli.main([
        "ridge", "--seeds", "0..9", "--n", "300", "--d", "10",
        "--sketch", '{"variant": "countsketch", "m": 2, "seed": 0, "side": "left"}',
        "--out", str(out),
    ])
    assert rc == 1
    rows = _read_jsonl(out)
    assert sum(r["passed"] for r in rows) < 8


def test_reports_are_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    argv = ["ridge", "--seeds", "0..4", "--n", "300", "--d", "10", "--out"]
    cli.main(argv + [str(out1)])
    cli.main(argv + [str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_ratio_floor_holds(tmp_path):
    out = tmp_path / "r.jsonl"
    cli.main(["ridge", "--seeds", "0..4", "--n", "400", "--d", "12", "--out", str(out)])
    assert all(r["ratio"] >= 1 - 1e-9 for r in _read_jsonl(out))


def test_csv_format(tmp_path):
    out = tmp_path / "r.csv"
    rc = cli.main([
        "statdim", "--seeds", "0..2", "--n", "100", "--d", "10",
        "--format", "csv", "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 4  # header + 3 records
    assert "ratio" in lines[0]


COMMON_FIELDS = ["command", "seed", "exact_objective", "sketch_objective", "ratio", "passed"]


def test_policy_sized_subcommands_pass(tmp_path):
    # small but honest configurations, one for each trial subcommand, with
    # the extra fields each record carries after the common ones
    cases = [
        (["ridge", "--seeds", "0..9", "--n", "1200", "--d", "20"], ["lam", "m", "sd_hat", "guard"]),
        (["mr-ridge", "--seeds", "0..9", "--n", "800", "--d", "15"],
         ["lam", "m", "sd_hat", "guard", "dprime"]),
        (["lowrank", "--seeds", "0..9", "--n", "300", "--d", "200", "--k", "5"],
         ["lam", "k", "gap_over_fro2", "m", "m_drawn", "levels_read", "sd_hat"]),
        (["cca", "--seeds", "0..9", "--n", "3000", "--d", "10", "--dprime", "8"],
         ["lam", "m", "max_sigma_dev", "validated"]),
        (["statdim", "--seeds", "0..9", "--n", "200", "--d", "30"], ["lam", "lower", "upper", "binding"]),
        (["genreg", "--seeds", "0..9", "--n", "600", "--d", "6", "--density", "0.5"], ["measure"]),
        (["check-embedding", "--seeds", "0..4", "--n", "500", "--d", "20", "--m", "200"],
         ["variant", "m", "pass_fraction", "max_deviation", "threshold"]),
    ]
    assert {argv[0] for argv, _ in cases} == set(cli.TRIAL_COMMANDS)
    for i, (argv, extras) in enumerate(cases):
        out = tmp_path / f"case{i}.jsonl"
        assert cli.main(argv + ["--out", str(out)]) == 0, argv[0]
        assert all(list(r) == COMMON_FIELDS + extras for r in _read_jsonl(out)), argv[0]
        if argv[0] in ("ridge", "mr-ridge"):
            # the gate must run a real sketch, not one collapsed to the identity
            n = int(argv[argv.index("--n") + 1])
            assert all(r["m"] < n for r in _read_jsonl(out)), argv[0]


def _readme_command_line():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    return readme.read_text().split("## Command line", 1)[1]


def test_readme_examples_name_every_subcommand():
    block = _readme_command_line().split("```sh\n", 1)[1].split("```", 1)[0]
    named = set(re.findall(r"^regsketch ([\w-]+)", block, flags=re.MULTILINE))
    assert named == set(cli.TRIAL_COMMANDS) | {"calibrate"}


@pytest.mark.parametrize("command", [*cli.TRIAL_COMMANDS, "calibrate"])
def test_readme_lists_the_flags_each_subcommand_takes(command, capsys):
    # README lists, one line each, the flags every trial subcommand takes and
    # then each subcommand's own
    section = _readme_command_line()
    listed = set(re.findall(r"--[\w-]+", re.search(rf"^- `{command}`:(.*)$", section, re.M).group(1)))
    if command != "calibrate":
        listed |= set(re.findall(r"--[\w-]+", re.search(r"^- every trial subcommand:(.*)$", section, re.M).group(1)))
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    assert set(re.findall(r"--[\w-]+", capsys.readouterr().out)) - {"--help"} == listed


def test_genreg_reads_the_size_policy(tmp_path):
    # k_affine this large sizes every affine sketch past its input: identities
    config = tmp_path / "policy.json"
    config.write_text('{"k_affine": 10000.0}')
    out = tmp_path / "genreg.jsonl"
    rc = cli.main([
        "genreg", "--seeds", "0..2", "--n", "500", "--d", "6",
        "--config", str(config), "--out", str(out),
    ])
    assert rc == 0
    rows = _read_jsonl(out)
    assert len(rows) == 3
    assert all(r["sketch_objective"] == r["exact_objective"] for r in rows)


def test_genreg_rotates_more_responses_than_columns(tmp_path):
    # 50 responses on 6 columns: both solves run on the rotated 6 x 6 problem
    outs = [tmp_path / f"run{i}.jsonl" for i in range(2)]
    for out in outs:
        rc = cli.main([
            "genreg", "--seeds", "0..2", "--n", "400", "--d", "6", "--dprime", "50", "--out", str(out),
        ])
        assert rc == 0
    rows = _read_jsonl(outs[0])
    assert len(rows) == 3 and all(r["passed"] for r in rows)
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_matrix_market_override(tmp_path, monkeypatch):
    mm = tmp_path / "a.mtx"
    mm.write_text(
        "%%MatrixMarket matrix array real general\n3 2\n1.0\n0.0\n0.0\n0.0\n2.0\n0.0\n"
    )
    reads = []

    def counted_read(path):
        reads.append(path)
        return la.read_matrix_market(path)

    monkeypatch.setattr(cli, "read_matrix_market", counted_read)
    out = tmp_path / "mm.jsonl"
    rc = cli.main([
        "ridge", "--seeds", "0..2", "--matrix", str(mm), "--lam", "1.0",
        "--sketch", '{"variant": "identity", "m": 0, "seed": 0, "side": "left"}',
        "--out", str(out),
    ])
    assert rc == 0
    assert len(_read_jsonl(out)) == 3
    assert reads == [str(mm)]  # read once per run, not once per seed


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("ridge", "--config", '{"k_sparse": 2.0, "no_such_constant": 1.0}'),
        # keys of the policy before epsilon and osnap_gamma were deleted
        ("ridge", "--config", '{"k_sparse": 2.0, "epsilon": 0.5, "osnap_gamma": 0.25}'),
        ("ridge", "--config", None),
        ("ridge", "--config", "not json"),
        ("ridge", "--config", '{"k_sparse": "2.0"}'),
        ("ridge", "--sketch", '{"variant": "bogus", "m": 5}'),
        ("ridge", "--sketch", "not json"),
        ("ridge", "--sketch", '{"m": 5}'),
        ("ridge", "--matrix", "%%MatrixMarket matrix array real general\n2 1\n1.0\n"),
        ("ridge", "--matrix", None),
        ("ridge", "--matrix", "%%MatrixMarket matrix array real general\n2 1\nnan\n1.0\n"),
        ("ridge", "--matrix", "%%MatrixMarket matrix coordinate real general\n2 1 1\n1 1 inf\n"),
        ("ridge", "--matrix", "%%MatrixMarket matrix coordinate real general\n2 1 1\n1 1 3 1\n"),
        # a --matrix file replaces the generator, so its flags are refused next to one
        ("ridge", "--n", "100"),
        ("statdim", "--density", "0.1"),
        ("genreg", "--spectrum", "flat"),
        # each trial subcommand takes only the shared flags its trial reads
        ("lowrank", "--sketch", '{"variant": "gaussian", "m": 3}'),
        ("genreg", "--sketch", '{"variant": "gaussian", "m": 3}'),
        ("statdim", "--sketch", '{"variant": "gaussian", "m": 3}'),
        ("statdim", "--config", '{"k_sparse": 2.0}'),
        ("statdim", "--eps", "0.25"),
        ("check-embedding", "--lam", "5"),
        ("check-embedding", "--config", '{"k_sparse": 2.0}'),
        ("cca", "--matrix", "%%MatrixMarket matrix array real general\n2 1\n1.0\n2.0\n"),
        # calibrate fits its constants on its own family and reads none of
        # the trial flags, so even a well-formed one is a usage error
        ("calibrate", "--sketch", '{"variant": "gaussian", "m": 3}'),
        ("calibrate", "--config", '{"k_sparse": 2.0}'),
        ("calibrate", "--lam", "5"),
        ("calibrate", "--density", "0.1"),
        ("calibrate", "--matrix", "%%MatrixMarket matrix array real general\n2 1\n1.0\n2.0\n"),
        ("calibrate", "--format", "csv"),
    ],
    ids=[
        "config-unknown-key", "config-deleted-keys", "config-missing-file", "config-not-json", "config-wrong-type",
        "sketch-bogus-variant", "sketch-not-json", "sketch-no-variant",
        "matrix-short", "matrix-missing-file", "matrix-nan", "matrix-inf", "matrix-extra-field",
        "matrix-with-n", "matrix-with-density", "matrix-with-spectrum",
        "lowrank-sketch", "genreg-sketch", "statdim-sketch", "statdim-config", "statdim-eps",
        "check-embedding-lam", "check-embedding-config", "cca-matrix",
        "calibrate-sketch", "calibrate-config", "calibrate-lam", "calibrate-density", "calibrate-matrix",
        "calibrate-format",
    ],
)
def test_malformed_input_is_usage_error(tmp_path, capsys, request, command, flag, value):
    # exit 2 with a usage message, distinct from exit 1 for a low pass rate
    if flag in ("--config", "--matrix"):
        path = tmp_path / "input"
        if value is not None:
            path.write_text(value)
        value = str(path)
    argv = [command, "--seeds", "0", "--n", "100", "--d", "5", flag, value]
    # the matrix-with-* cases add a well-formed --matrix file to the generator flag
    with_matrix = request.node.callspec.id.startswith("matrix-with-")
    if with_matrix:
        matrix = tmp_path / "a.mtx"
        matrix.write_text("%%MatrixMarket matrix array real general\n2 1\n1.0\n2.0\n")
        argv += ["--matrix", str(matrix)]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and flag in err
    # the message names both flags, and a bad file fails in its reader first
    assert ("argument --matrix: not allowed with" in err) == with_matrix
    if with_matrix:
        assert flag in err.split("not allowed with", 1)[1]


COMPOSED = (
    '{"variant": "composed", "inner": [{"variant": "gaussian", "m": 40}, '
    '{"variant": "countsketch", "m": 200}]}'
)


@pytest.mark.parametrize(
    "argv, sketch, rows",
    [
        (["ridge"], '{"variant": "gaussian", "m": 50}', 50),
        (["ridge"], '{"variant": "identity"}', 600),
        (["ridge"], COMPOSED, 40),
        (["mr-ridge"], '{"variant": "gaussian", "m": 50}', 50),
        (["cca", "--dprime", "8"], COMPOSED, 40),
        (["check-embedding"], COMPOSED, 40),
    ],
    ids=[
        "ridge-gaussian", "ridge-identity", "ridge-composed", "mr-ridge-gaussian", "cca-composed",
        "check-embedding-composed",
    ],
)
def test_records_report_the_applied_sketch(tmp_path, argv, sketch, rows):
    # "m" is the row count of the --sketch that ran, not the policy's size
    out = tmp_path / "r.jsonl"
    cli.main(argv + ["--seeds", "0", "--n", "600", "--d", "10", "--sketch", sketch, "--out", str(out)])
    assert [r["m"] for r in _read_jsonl(out)] == [rows]


def test_calibrated_policy_reads_as_config(tmp_path, monkeypatch):
    # every constant passes, so the search ends fast; the output format is under test
    monkeypatch.setattr(cli, "_calibration_trial", lambda *args: True)
    policy = tmp_path / "policy.json"
    assert cli.main(["calibrate", "--seeds", "0..1", "--eps", "0.5", "--out", str(policy)]) == 0
    fitted = sk.SizePolicy.from_json(policy.read_text())
    assert "--seeds 0..1 --eps 0.5" in fitted.provenance
    out = tmp_path / "ridge.jsonl"
    cli.main(["ridge", "--seeds", "0", "--n", "300", "--d", "10", "--config", str(policy), "--out", str(out)])
    [row] = _read_jsonl(out)
    assert row["m"] == sk.recommend_sizes(fitted, row["sd_hat"], 0.5, "ridge_rows")


def test_calibrate_fits_each_constant_on_its_family(monkeypatch):
    # the three ridge_rows constants on the --n x --d family the provenance
    # names, subspace and affine on the tall 2000 x 8 one
    read = {}

    class Recorded(dict):
        def __getitem__(self, family):
            read.setdefault(constant, set()).add(family)
            return super().__getitem__(family)

    args = argparse.Namespace(n=120, d=10, spectrum="geometric", eps=0.5)
    inputs = cli._calibration_inputs(args, 0)
    assert inputs["ridge"][0].A.shape == (120, 10) and inputs["tall"][0].shape == (2000, 8)
    inputs = Recorded(inputs)
    for constant in cli.CALIBRATED:
        cli._calibration_trial(args, constant, 1.0, 0, inputs)
    assert read == {
        "k_sparse": {"ridge"}, "k_srht": {"ridge"}, "k_gauss": {"ridge"},
        "k_subspace": {"tall"}, "k_affine": {"tall"},
    }


def test_calibrate_builds_each_problem_once(monkeypatch, capsys):
    # the problems depend on the family and the seed alone, not on the
    # constant or the step of the search
    built = []
    generate = cli.problems.generate_problem
    monkeypatch.setattr(
        cli.problems, "generate_problem", lambda *a, **kw: built.append(a) or generate(*a, **kw)
    )
    assert cli.main(["calibrate", "--seeds", "0..1", "--n", "120", "--d", "10", "--eps", "0.5"]) == 0
    assert len(built) <= 2 * 2
    assert json.loads(capsys.readouterr().out)["k_affine"] == 0.0976715087890625


def test_calibrate_prints_the_fitted_constants(capsys):
    assert cli.main(["calibrate", "--seeds", "0..1", "--n", "120", "--d", "10", "--eps", "0.5"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "k_sparse": 0.21942138671875,
        "k_srht": 0.32623291015625,
        "k_gauss": 0.8209228515625,
        "k_subspace": 0.0976715087890625,
        "k_affine": 0.0976715087890625,
        "provenance": "regsketch calibrate --seeds 0..1 --eps 0.5 (120x10 geometric family): "
        "minima at 0.9 pass rate",
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["check-embedding", "--m", "0"],
        ["check-embedding", "--m", "-3"],
        ["check-embedding", "--trials", "0"],
        ["check-embedding", "--trials", "-1"],
        ["lowrank", "--k", "0"],
        ["mr-ridge", "--dprime", "0"],
        ["genreg", "--dprime", "0"],
        ["cca", "--dprime", "-1"],
        ["ridge", "--n", "0"],
        ["statdim", "--d", "-2"],
        ["calibrate", "--n", "0"],
    ],
    ids=lambda argv: "".join(argv),
)
def test_nonpositive_size_or_count_is_usage_error(argv, capsys):
    # a zero m or trial count used to run a default or raise, and a zero
    # response count to pass vacuously
    with pytest.raises(SystemExit) as exc:
        cli.main(argv[:1] + ["--seeds", "0"] + argv[1:])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and f"argument {argv[1]}: must be at least 1" in err


def test_check_embedding_m_defaults_to_half_n(tmp_path):
    out = tmp_path / "e.jsonl"
    cli.main(["check-embedding", "--seeds", "0", "--n", "100", "--d", "5", "--out", str(out)])
    assert [r["m"] for r in _read_jsonl(out)] == [50]


def test_lowrank_keeps_a_sparse_a_sparse(tmp_path, monkeypatch):
    densified = []

    def recorded(A):
        densified.append(scipy.sparse.issparse(A))
        return la.as_dense(A)

    monkeypatch.setattr(cli, "as_dense", recorded)
    out = tmp_path / "lowrank.jsonl"
    cli.main(["lowrank", "--seeds", "0..1", "--n", "300", "--d", "200", "--density", "0.05", "--out", str(out)])
    assert len(_read_jsonl(out)) == 2
    assert not any(densified)


def test_cca_honours_density(tmp_path):
    reports = []
    for density in ([], ["--density", "0.3"]):
        out = tmp_path / f"cca{len(density)}.jsonl"
        argv = ["cca", "--seeds", "0", "--n", "1500", "--d", "6", "--dprime", "5", "--out", str(out)]
        cli.main(argv + density)
        reports.append(out.read_bytes())
    assert reports[0] != reports[1]


def test_cca_ratio_is_what_the_gate_reads(tmp_path):
    # the README's borderline example: ratio is the worst eta condition over
    # eta, so a record passes exactly when its ratio is at most 1
    out = tmp_path / "cca.jsonl"
    cli.main(["cca", "--seeds", "0..9", "--n", "3000", "--d", "10", "--dprime", "8", "--eps", "0.25",
              "--out", str(out)])
    rows = _read_jsonl(out)
    assert len(rows) == 10
    assert all(r["passed"] == (r["ratio"] <= 1) for r in rows)
    assert all(r["ratio"] >= r["max_sigma_dev"] / 0.25 for r in rows)


def test_seed_range_parsing():
    assert cli._seed_range("3..5") == [3, 4, 5]
    assert cli._seed_range("7") == [7]


def test_missing_subcommand_errors():
    with pytest.raises(SystemExit):
        cli.main([])


@pytest.mark.parametrize("measure", ["schatten_inf", "min_fro_nuclear", "no_such_measure"])
def test_genreg_measure_without_prox_is_usage_error(measure, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["genreg", "--seeds", "0", "--measure", measure])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "--measure" in err


def test_module_entry_point_runs_from_a_checkout(tmp_path):
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-m", "regsketch", "genreg", "--seeds", "0..1",
         "--n", "200", "--d", "6", "--measure", "vnorm_2"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    rows = [json.loads(line) for line in done.stdout.splitlines() if line.strip()]
    assert [r["seed"] for r in rows] == [0, 1]
    assert all(r["command"] == "genreg" for r in rows)
