import csv
import hashlib
import json
import os
import resource
import shlex
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from conftest import save_points_csv

from empwass.cli import _Finite, build_parser, main


@pytest.fixture
def pts_file(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "pts.csv"
    save_points_csv(path, rng.random((200, 2)))
    return str(path)


def _run(argv):
    return main(argv)


def test_wpp_identical_files_zero(tmp_path, pts_file, capsys):
    out = tmp_path / "out"
    rc = _run(["wpp", "--a", pts_file, "--b", pts_file, "--p", "2",
               "--out", str(out)])
    assert rc == 0
    payload = json.loads((out / "wpp.json").read_text())
    assert payload["value"] == 0.0
    assert (out / "effective-config.json").exists()


def test_wpp_malformed_csv_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("0.1,0.2\noops\n")
    rc = _run(["wpp", "--a", str(bad), "--b", str(bad), "--p", "1"])
    assert rc == 2
    assert "line 2" in capsys.readouterr().err


def test_missing_required_flag_exit_2():
    assert _run(["wpp", "--a", "x.csv"]) == 2
    assert _run(["rate", "--sampler", "uniform-cube:1", "--p", "1",
                 "--ngrid", "32:64", "--reps", "30"]) == 2  # no --seed


def test_unknown_subcommand_exit_2():
    assert _run(["frobnicate"]) == 2


@pytest.mark.parametrize("argv, line", [
    (["cover", "--points", "p.csv", "--delta", "abc"],
     "empwass cover: error: argument --delta: invalid float value: 'abc'"),
    (["rate"], "empwass rate: error: the following arguments are required: "
               "--sampler, --p, --ngrid, --reps, --seed"),
    ([], "empwass: error: the following arguments are required: cmd"),
])
def test_usage_error_is_one_line(capsys, argv, line):
    assert _run(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [line]
    assert captured.out == ""


def test_help_exits_zero():
    assert _run(["--help"]) == 0


def test_cover_and_dim(tmp_path, pts_file):
    out = tmp_path / "c"
    rc = _run(["cover", "--points", pts_file, "--delta", "0.3",
               "--out", str(out)])
    assert rc == 0
    payload = json.loads((out / "cover.json").read_text())
    assert payload["n_lower"] <= payload["n_upper"]

    out2 = tmp_path / "d"
    rc = _run(["dim", "--points", pts_file, "--out", str(out2)])
    assert rc == 0
    payload = json.loads((out2 / "dim.json").read_text())
    assert "alpha" in payload or payload.get("degenerate")


def test_wpp_plan_on_the_line(tmp_path):
    # the closed form yields no plan, so --plan takes the transport solve
    # (which used to be skipped, writing no plan.csv)
    rng = np.random.default_rng(5)
    a, b = tmp_path / "a1.csv", tmp_path / "b1.csv"
    save_points_csv(a, rng.random((7, 1)))
    save_points_csv(b, rng.random((5, 1)))
    values = {}
    for extra in ([], ["--plan"]):
        out = tmp_path / f"o{len(extra)}"
        assert _run(["wpp", "--a", str(a), "--b", str(b), "--p", "2",
                     *extra, "--out", str(out)]) == 0
        values[len(extra)] = json.loads((out / "wpp.json").read_text())
        assert (out / "plan.csv").exists() == bool(extra)
    assert values[0]["method"] == "closed-form-1d"
    assert values[1]["method"] == "min-cost-flow"
    assert values[1]["value"] == pytest.approx(values[0]["value"],
                                               rel=1e-12)
    with open(tmp_path / "o1" / "plan.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert sum(float(r["cost"]) for r in rows) == pytest.approx(
        values[1]["value"], rel=1e-12)


@pytest.mark.parametrize("grid", [[], ["--delta-grid", "0.1,0.01,0.001,1"]])
def test_dim_zero_diameter_is_degenerate(tmp_path, grid):
    same = tmp_path / "same.csv"
    save_points_csv(same, np.full((3, 2), 0.5))
    out = tmp_path / "o"
    assert _run(["dim", "--points", str(same), *grid, "--out", str(out)]) == 0
    assert json.loads((out / "dim.json").read_text()) == {
        "degenerate": True, "reason": "point set has zero diameter"}


def test_dim_output_golden(tmp_path):
    # sha256 of dim.json as written when diameter scanned every pair and
    # the greedy cover tested one center at a time against every point
    square = tmp_path / "square.csv"
    save_points_csv(square, np.random.default_rng(7).random((2000, 2)))
    with resources.as_file(resources.files("empwass").joinpath(
            "data/cantor_third_5000.csv")) as cantor:
        for name, points, digest in (
                ("square", square, "a48e8d036acf391de0a667caf281706c"
                                   "6242b674365518f8bb935a84bc4bc373"),
                ("cantor", cantor, "8b805fc33481aa53089602aeea1191c8"
                                   "a74e10c37789ddbc898899ef502f8d7c")):
            out = tmp_path / name
            assert _run(["dim", "--points", str(points),
                         "--out", str(out)]) == 0
            blob = (out / "dim.json").read_bytes()
            assert hashlib.sha256(blob).hexdigest() == digest


def test_tail_output_golden(tmp_path):
    # sha256 of tail.json and tail.csv as written when every replicate was
    # evaluated on its own (closed form at p = 1, Gauss-Legendre at p = 2)
    for p, json_digest, csv_digest in (
            ("1", "f7c5de3f27bf82bf5c4e6166ace4290c"
                  "63425fa6cd3034d0adf1a5e0c0594919",
                  "35f9be2e9fb0565cbe12380a979cbeb9"
                  "d5e7b9ff9414e70205279f898e6971f9"),
            ("2", "e3efcf7cb6ff66e7eaf253cd25545a4b"
                  "ac114660164c0c3c5a84d69a62842e3a",
                  "25e8aad8f76f2c5774924476915c4d4d"
                  "1875830d2d7787732a3a71f876e4fdca")):
        out = tmp_path / f"p{p}"
        assert _run(["tail", "--sampler", "pareto-radial:3:1",
                     "--estimator", "1d-quantile", "--xgrid", "1.0",
                     "--ngrid", "64:128", "--reps", "1000", "--seed", "0",
                     "--p", p, "--out", str(out)]) == 0
        for name, digest in (("tail.json", json_digest),
                             ("tail.csv", csv_digest)):
            blob = (out / name).read_bytes()
            assert hashlib.sha256(blob).hexdigest() == digest, (p, name)


@pytest.mark.parametrize("a, p", [("0.8", "1"), ("1.5", "2"), ("2", "2")])
def test_pareto_without_finite_moment_exit_2(tmp_path, capsys, a, p):
    # W_p^p to pareto-radial with a <= p is infinite: refuse, do not
    # report a finite mean
    common = ["--sampler", f"pareto-radial:{a}:1", "--p", p, "--seed", "3"]
    argvs = (["tail", *common, "--estimator", "1d-quantile",
              "--ngrid", "64:64", "--reps", "1000", "--xgrid", "1"],
             ["rate", *common, "--estimator", "1d-quantile",
              "--ngrid", "32:64", "--reps", "30"],
             ["asrun", *common, "--nmax", "64"])
    for argv in argvs:
        capsys.readouterr()
        assert _run([*argv, "--out", str(tmp_path / argv[0])]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "infinite" in err
        assert not (tmp_path / argv[0] / f"{argv[0]}.json").exists()


@pytest.mark.parametrize("given, reason", [
    # both used to validate the matrix alone and exit 0
    (["--points", "{pts}", "--matrix", "{pts}"],
     "argument --matrix: not allowed with argument --points"),
    ([], "one of the arguments --points --matrix is required"),
])
def test_validate_metric_takes_exactly_one_input(tmp_path, capsys, pts_file,
                                                 given, reason):
    err = _no_output(tmp_path, capsys, ["validate-metric", *(
        pts_file if a == "{pts}" else a for a in given)])
    assert err == f"empwass validate-metric: error: {reason}\n"


def test_validate_metric_exit_codes(tmp_path, pts_file):
    assert _run(["validate-metric", "--points", pts_file,
                 "--trials", "500", "--out", str(tmp_path / "ok")]) == 0
    bad = tmp_path / "bad_matrix.csv"
    bad.write_text("0.0,1.0,5.0\n1.0,0.0,1.0\n5.0,1.0,0.0\n")
    assert _run(["validate-metric", "--matrix", str(bad),
                 "--trials", "100", "--out", str(tmp_path / "bad")]) == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flag, rows", [
    ("--matrix", "0,inf,1\ninf,0,1\n1,1,0\n"),
    # finite coordinates whose distances overflow to inf
    ("--points", "1e200,0\n-1e200,0\n0,1\n")])
def test_validate_metric_non_finite_exit_2(tmp_path, capsys, flag, rows):
    path = tmp_path / "in.csv"
    path.write_text(rows)
    out = tmp_path / "v"
    assert _run(["validate-metric", flag, str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    # a point cloud is refused when its space is built
    reason = {"--matrix": "non-finite distance encountered",
              "--points": "point cloud too wide: its distances overflow "
                          "a float"}[flag]
    assert err.splitlines() == [f"error: {reason}"]
    assert not (out / "validate.json").exists()


def test_rate_deterministic_across_workers(tmp_path):
    def run(out, workers):
        rc = _run(["rate", "--sampler", "uniform-cube:1", "--p", "1",
                   "--estimator", "1d-quantile", "--ngrid", "32:128",
                   "--reps", "30", "--seed", "11", "--workers", str(workers),
                   "--out", str(out)])
        assert rc == 0
    a, b = tmp_path / "a", tmp_path / "b"
    run(a, 1)
    run(b, 2)
    assert (a / "rate.csv").read_bytes() == (b / "rate.csv").read_bytes()
    assert (a / "rate.json").read_bytes() == (b / "rate.json").read_bytes()


@pytest.mark.parametrize("flag", [["--delta", "0.5"], ["--delta=0.5"],
                                  ["--del", "0.5"], ["--del=0.5"]])
@pytest.mark.parametrize("before", [False, True])
def test_config_loses_to_every_spelling_of_a_flag(tmp_path, pts_file, flag,
                                                  before):
    # --delta=0.5 and the abbreviation --del used to lose to the config
    cfg = tmp_path / "conf.ini"
    cfg.write_text("[cover]\ndelta = 0.3\n")
    config = ["--config", str(cfg)]
    out = tmp_path / "o"
    assert _run(["cover", "--points", pts_file,
                 *(flag + config if before else config + flag),
                 "--out", str(out)]) == 0
    assert json.loads((out / "cover.json").read_text())["delta"] == 0.5


@pytest.mark.parametrize("config", [["--config={cfg}"], ["--conf", "{cfg}"],
                                    ["--conf={cfg}"], ["--config", "{cfg}"]])
def test_config_read_under_every_spelling(tmp_path, pts_file, config):
    # --config=path and --conf path were accepted but never read
    cfg = tmp_path / "conf.ini"
    cfg.write_text("[cover]\ndelta = 0.3\n")
    out = tmp_path / "o"
    assert _run(["cover", "--points", pts_file,
                 *(a.format(cfg=cfg) for a in config),
                 "--out", str(out)]) == 0
    assert json.loads((out / "cover.json").read_text())["delta"] == 0.3


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("flag", [[], ["--plan"]])
@pytest.mark.parametrize("value, plan", [("false", False), ("False", False),
                                         ("true", True), ("TRUE", True)])
def test_config_boolean_keys(tmp_path, dim, flag, value, plan):
    # plan = false exited 2 with "unrecognized arguments: false"; a false
    # key leaves the flag to the command line
    rng = np.random.default_rng(2)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    save_points_csv(a, rng.random((6, dim)))
    save_points_csv(b, rng.random((4, dim)))
    cfg = tmp_path / "conf.ini"
    cfg.write_text(f"[wpp]\nplan = {value}\n")
    out = tmp_path / "o"
    assert _run(["wpp", "--a", str(a), "--b", str(b), "--p", "1", *flag,
                 "--config", str(cfg), "--out", str(out)]) == 0
    plan = plan or bool(flag)
    assert (out / "plan.csv").exists() == plan
    assert json.loads((out / "effective-config.json").read_text())[
        "plan"] == plan


def test_config_false_on_a_value_flag_exit_2(tmp_path, capsys):
    # kstar = false was dropped, so the run took the default --kstar 3
    cfg = tmp_path / "conf.ini"
    cfg.write_text("[rate]\nkstar = false\n")
    err = _no_output(tmp_path, capsys, [
        "rate", "--config", str(cfg), "--sampler", "uniform-cube:2", "--p",
        "1", "--estimator", "dyadic", "--ngrid", "8:16", "--reps", "30",
        "--seed", "0"])
    assert "argument --kstar: invalid int value: 'false'" in err


@pytest.mark.parametrize("key", ["mref = 50", "kstar = 3"])
def test_unread_experiment_config_key_exit_2(tmp_path, capsys, key):
    # a config key counts as a given flag, and a flag the estimator does
    # not read exits 2 (test_bad_input_exit_2_one_line)
    cfg = tmp_path / "conf.ini"
    cfg.write_text(f"[rate]\n{key}\n")
    err = _no_output(tmp_path, capsys, [
        "rate", "--config", str(cfg), "--sampler", "uniform-cube:1", "--p",
        "1", "--estimator", "1d-quantile", "--ngrid", "8:16", "--reps", "30",
        "--seed", "0"])
    assert "the 1d-quantile estimator reads no" in err, err


@pytest.mark.parametrize("value, flag", [("false", []), ("true", ["--plan"])])
def test_config_switch_writes_the_flags_bytes(tmp_path, value, flag):
    # plan = true writes what --plan writes, plan = false what no flag does
    rng = np.random.default_rng(4)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    save_points_csv(a, rng.random((6, 2)))
    save_points_csv(b, rng.random((4, 2)))
    cfg = tmp_path / "conf.ini"
    cfg.write_text(f"[wpp]\nplan = {value}\n")
    wpp = ["wpp", "--a", str(a), "--b", str(b), "--p", "1"]
    c, f = tmp_path / "c", tmp_path / "f"
    assert _run([*wpp, "--config", str(cfg), "--out", str(c)]) == 0
    assert _run([*wpp, *flag, "--out", str(f)]) == 0
    names = ["wpp.json", *(["plan.csv"] if flag else [])]
    for out in (c, f):
        assert sorted(p.name for p in out.iterdir()) == sorted(
            ["effective-config.json", *names])
    for name in names:
        assert (c / name).read_bytes() == (f / name).read_bytes()


@pytest.mark.parametrize("text, reason", [
    ("delta = 0.3\n", "File contains no section headers."),
    ("[cover]\ndelta = 0.3\ndelta = 0.4\n", "already exists"),
    ("[cover]\ndelta = 3%\n", "'%' must be followed by"),
])
def test_malformed_config_exit_2_one_line(tmp_path, capsys, pts_file, text,
                                          reason):
    # configparser's errors were tracebacks
    cfg = tmp_path / "conf.ini"
    cfg.write_text(text)
    err = _no_output(tmp_path, capsys, ["cover", "--points", pts_file,
                                        "--delta", "0.1",
                                        "--config", str(cfg)])
    assert err.startswith("error: ") and reason in err, err


def test_config_file_supplies_defaults_flags_override(tmp_path, pts_file):
    cfg = tmp_path / "conf.ini"
    cfg.write_text("[cover]\ndelta = 0.3\n")
    out = tmp_path / "o"
    rc = _run(["cover", "--points", pts_file, "--config", str(cfg),
               "--out", str(out)])
    assert rc == 0
    eff = json.loads((out / "effective-config.json").read_text())
    assert eff["delta"] == 0.3
    out2 = tmp_path / "o2"
    rc = _run(["cover", "--points", pts_file, "--config", str(cfg),
               "--delta", "0.5", "--out", str(out2)])
    assert rc == 0
    eff2 = json.loads((out2 / "effective-config.json").read_text())
    assert eff2["delta"] == 0.5


# the required flags of each subcommand; the files are never opened
_MINIMAL_ARGV = {
    "wpp": ["--a", "a.csv", "--b", "b.csv", "--p", "1"],
    "cover": ["--points", "x.csv", "--delta", "0.3"],
    "dim": ["--points", "x.csv"],
    "tree": ["--points", "x.csv", "--kstar", "1"],
    "rings": ["--a", "a.csv", "--b", "b.csv", "--p", "1"],
    "bound": ["--formula", "moment", "--grid", "g.json"],
    "asrun": ["--sampler", "uniform-cube:1", "--p", "1", "--nmax", "8",
              "--seed", "0"],
    "verify-appendix": ["--dist", "uniform", "--r", "2", "--ngrid", "8:8",
                        "--reps", "10", "--seed", "0"],
    "validate-metric": ["--points", "x.csv"],
}


@pytest.mark.parametrize("cmd, flag", [
    ("wpp", "--method"),
    *((c, "--workers") for c in _MINIMAL_ARGV),
    *((c, "--seed") for c in ("wpp", "cover", "dim", "tree", "rings",
                              "bound"))])
def test_removed_flags_exit_2(tmp_path, capsys, cmd, flag):
    # a subcommand offers only the flags it reads, so these are refused
    # on the command line and from a --config file
    argv = [cmd, *_MINIMAL_ARGV[cmd]]
    build_parser().parse_args(argv)
    assert _run([*argv, flag, "1"]) == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
    cfg = tmp_path / "conf.ini"
    cfg.write_text(f"[{cmd}]\n{flag[2:]} = 1\n")
    assert _run([*argv, "--config", str(cfg)]) == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


def test_config_without_path_exit_2(capsys):
    assert _run(["cover", "--points", "x.csv", "--delta", "0.3",
                 "--config"]) == 2
    assert capsys.readouterr().err == "error: --config needs a path\n"


def _limit_memory():
    gib = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (gib, gib))


@pytest.mark.parametrize("ngrid", ["0:100", "64:32", "32,0"])
def test_bad_ngrid_exit_2(tmp_path, ngrid):
    # a child process under a memory cap and a timeout, so a grid parser
    # that loops forever fails the test instead of hanging the suite
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "empwass.cli", "rate",
         "--sampler", "uniform-cube:1", "--p", "1", "--ngrid", ngrid,
         "--reps", "2", "--seed", "0", "--out", str(tmp_path)],
        env=env, preexec_fn=_limit_memory, capture_output=True, text=True,
        timeout=30)
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: grid")


@pytest.mark.parametrize("argv", [
    ["tree", "--points", "{pts}", "--kstar", str(10 ** 9)],
    ["tree", "--points", "{pts}", "--kstar", str(10 ** 400)],
    ["rate", "--sampler", "uniform-cube:2", "--p", "1", "--estimator",
     "dyadic", "--ngrid", "8:16", "--reps", "30", "--seed", "0",
     "--kstar", str(10 ** 9)]])
def test_unbounded_depth_exit_2(tmp_path, pts_file, argv):
    # these depths used to run without end; a child process under a
    # memory cap and a timeout fails the test instead of hanging the suite
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "empwass.cli",
         *(pts_file if a == "{pts}" else a for a in argv),
         "--out", str(tmp_path / "o")],
        env=env, preexec_fn=_limit_memory, capture_output=True, text=True,
        timeout=30)
    assert proc.returncode == 2
    assert proc.stderr == ("error: k_star too large: the radius "
                           "4^-k_star*diam/2 underflows to 0\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("ngrid", ["64:64", "1:1"])
def test_rate_over_one_n_exit_2(tmp_path, capsys, ngrid):
    rc = _run(["rate", "--sampler", "uniform-cube:1", "--p", "1",
               "--estimator", "1d-quantile", "--ngrid", ngrid, "--reps", "30",
               "--seed", "0", "--out", str(tmp_path / "r")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "error: rate fits need at least 2 values of n\n"
    assert not (tmp_path / "r" / "rate.json").exists()


def test_colliding_tail_columns_exit_2(tmp_path, capsys):
    # 0.1 and 0.1000001 both format as tail_x0.1 under :g
    rc = _run(["tail", "--sampler", "uniform-cube:1", "--p", "1",
               "--estimator", "1d-quantile", "--ngrid", "64:64",
               "--reps", "1000", "--xgrid", "0.1,0.1000001", "--seed", "0",
               "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "tail_x0.1" in err
    assert not (tmp_path / "tail.json").exists()


def test_bound_subcommand_csv(tmp_path):
    spec = tmp_path / "grid.json"
    spec.write_text(json.dumps({
        "params": {"p": 1.0, "alpha": 1.0, "Delta": 1.0},
        "n_grid": [10, 100], "x_grid": [0.1, 0.5]}))
    out = tmp_path / "b"
    rc = _run(["bound", "--formula", "hoeffding", "--grid", str(spec),
               "--out", str(out)])
    assert rc == 0
    lines = (out / "bounds.csv").read_text().strip().splitlines()
    assert len(lines) == 5  # header + 4 rows


@pytest.mark.parametrize("formula", ["fuk-nagaev", "moderate"])
def test_bound_overflow_is_a_row_error(tmp_path, formula):
    # r = 3 at x = 1e200: x ** r overflows a float
    spec = tmp_path / "grid.json"
    spec.write_text(json.dumps({
        "params": {"p": 1, "r": 3, "q": 4, "alpha": 1, "weak_rp": 1,
                   "i2pp": 1, "iap": 1, "rho": 0.8},
        "n_grid": [10], "x_grid": [1.0, 1e200]}))
    out = tmp_path / "b"
    assert _run(["bound", "--formula", formula, "--grid", str(spec),
                 "--out", str(out)]) == 0
    with open(out / "bounds.csv", newline="") as f:
        ok, big = csv.DictReader(f)
    assert ok["error"] == "" and ok["applicable"] == "True"
    assert big["error"].startswith("float overflow")


def test_hoeffding_bad_constants_are_row_errors(tmp_path):
    # C = 0 divided by zero and Delta < 0 made Delta ** p complex; an
    # infinite Delta (a grid's 1e400 parses as inf) would make it NaN
    cases = {"C must be positive": {"p": 1, "Delta": 1, "C": 0},
             "Delta must be nonnegative": {"p": 1.5, "Delta": -1},
             "Delta must be finite": {"p": 1, "Delta": float("inf")}}
    for k, (reason, params) in enumerate(cases.items()):
        spec = tmp_path / "grid.json"
        spec.write_text(json.dumps({"params": params, "x_grid": [0.5]}))
        out = tmp_path / f"b{k}"
        assert _run(["bound", "--formula", "hoeffding", "--grid", str(spec),
                     "--out", str(out)]) == 0
        with open(out / "bounds.csv", newline="") as f:
            row, = csv.DictReader(f)
        assert row["error"] == reason


@pytest.mark.parametrize("reason, grid", [
    ("x_grid is not a list of numbers",
     {"x_grid": [float("nan"), 0.5], "n_grid": [10],
      "params": {"p": 1, "alpha": 1, "Delta": 1}}),
    ("n_grid is not a list of numbers",
     {"n_grid": [float("nan")], "params": {"p": 1, "Delta": 1}}),
    ("params is not an object of numbers/nulls",
     {"params": {"p": float("nan"), "Delta": 1}}),
])
def test_bound_grid_nan_exit_2(tmp_path, capsys, reason, grid):
    # a NaN used to become a nan row and exit 0
    spec = tmp_path / "grid.json"
    spec.write_text(json.dumps(grid))
    err = _no_output(tmp_path, capsys, ["bound", "--formula", "hoeffding",
                                        "--grid", str(spec)])
    assert err == f"error: {spec}: {reason}\n"


@pytest.mark.parametrize("n", [10.7, -3, -0.5, 1e400, -1e400])
def test_bound_grid_refuses_fractional_or_negative_n(tmp_path, capsys, n):
    # each formula takes int(n): 10.7 used to be evaluated at n = 10, and
    # n = -3 gave a hoeffding "probability" of 15.6, both with exit 0
    spec = tmp_path / "grid.json"
    spec.write_text(json.dumps({"n_grid": [10, n], "x_grid": [0.5],
                                "params": {"p": 1, "Delta": 1}}))
    err = _no_output(tmp_path, capsys, ["bound", "--formula", "hoeffding",
                                        "--grid", str(spec)])
    assert err == (f"error: {spec}: n_grid holds an n that is not a whole "
                   "number >= 0\n")


def test_bound_grid_takes_whole_float_n(tmp_path):
    # n = 10.0 is still n = 10, and -0.0 is the default n = 0; each row
    # reports n as the grid spells it
    rows = {}
    for name, ns in (("int", [0, 10]), ("float", [-0.0, 10.0])):
        spec = tmp_path / f"{name}.json"
        spec.write_text(json.dumps({"n_grid": ns, "x_grid": [0.5],
                                    "params": {"p": 1, "Delta": 1}}))
        out = tmp_path / name
        assert _run(["bound", "--formula", "hoeffding", "--grid", str(spec),
                     "--out", str(out)]) == 0
        with open(out / "bounds.csv", newline="") as f:
            rows[name] = list(csv.DictReader(f))
    assert [r["n"] for r in rows["float"]] == ["-0.0", "10.0"]
    for r in (*rows["int"], *rows["float"]):
        del r["n"]
    assert rows["float"] == rows["int"]


def test_fuk_nagaev_without_n_grid_is_a_row_error(tmp_path):
    # the default n_grid is [0], and both integral bullets divided by n
    for k, params in enumerate(({"p": 1, "alpha": 1, "i2pp": 1.0},
                                {"p": 1, "alpha": 3, "iap": 1.0})):
        spec = tmp_path / "grid.json"
        spec.write_text(json.dumps({"x_grid": [0.5], "params": params}))
        out = tmp_path / f"b{k}"
        assert _run(["bound", "--formula", "fuk-nagaev", "--grid", str(spec),
                     "--out", str(out)]) == 0
        with open(out / "bounds.csv", newline="") as f:
            row, = csv.DictReader(f)
        assert row["n"] == "0" and row["error"] == "n must be >= 1"


@pytest.mark.parametrize("formula, params", [
    ("fuk-nagaev", {"p": 1, "alpha": 1, "r": 3, "q": 10 ** 8, "i2pp": 1.0,
                    "weak_rp": 1}),
    ("moderate", {"p": 1, "alpha": 1, "r": 10 ** 8, "rho": 0.8,
                  "weak_rp": 1})])
def test_bound_integer_grid_overflows(tmp_path, formula, params):
    # an integer x raised to a huge integer power is Python's exact integer
    # power, which runs for minutes; a child process under a memory cap and
    # a timeout fails the test instead of hanging the suite
    spec = tmp_path / "grid.json"
    spec.write_text(json.dumps({"params": params, "n_grid": [10],
                                "x_grid": [10]}))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "empwass.cli", "bound", "--formula", formula,
         "--grid", str(spec), "--out", str(tmp_path / "b")],
        env=env, preexec_fn=_limit_memory, capture_output=True, text=True,
        timeout=30)
    assert proc.returncode == 0, proc.stderr
    with open(tmp_path / "b" / "bounds.csv", newline="") as f:
        row, = csv.DictReader(f)
    assert row["error"].startswith("float overflow")


def _strict_json(path):
    """The JSON file at path, refusing NaN and Infinity (not JSON)."""
    def refuse(name):
        raise ValueError(f"{path} holds {name}")
    return json.loads(Path(path).read_text(), parse_constant=refuse)


def test_undefined_fit_values_are_null(tmp_path):
    # n = 1 in the rate fit: the log log n correction is -inf there
    out = tmp_path / "rate"
    assert _run(["rate", "--sampler", "uniform-cube:2", "--p", "1",
                 "--estimator", "mcf-two-sample", "--ngrid", "1:2",
                 "--reps", "30", "--seed", "0", "--out", str(out)]) == 0
    rate = _strict_json(out / "rate.json")
    assert rate["slope"] is not None
    assert rate["corrected_slope"] is rate["corrected_r2"] is None
    # a sampler without alpha normalizes no row
    out = tmp_path / "asrun"
    assert _run(["asrun", "--sampler", "pareto-radial:3:1", "--p", "1",
                 "--nmax", "16", "--seed", "0", "--out", str(out)]) == 0
    rows = _strict_json(out / "asrun.json")["rows"]
    assert [r["normalized"] for r in rows] == [None] * 3
    with open(out / "asrun.csv", newline="") as f:
        assert [r["normalized"] for r in csv.DictReader(f)] == [""] * 3


def test_asrun_without_alpha_reports_null(tmp_path, capsys):
    out = tmp_path / "as"
    assert _run(["asrun", "--sampler", "pareto-radial:3:1", "--p", "1",
                 "--nmax", "256", "--seed", "0", "--out", str(out)]) == 0
    assert json.loads(capsys.readouterr().out) == {"max_normalized": None}
    assert json.loads((out / "asrun.json").read_text())[
        "max_normalized"] is None


_EXPERIMENT = ["--p", "1", "--estimator", "1d-quantile", "--ngrid", "64:64",
               "--reps", "1000", "--seed", "0"]


@pytest.mark.parametrize("argv, reason", [
    # a NaN radius finds no neighbours, and the cover's block rule then
    # divided by zero
    (["cover", "--points", "{pts}", "--delta", "nan"], "delta must be"),
    (["dim", "--points", "{pts}", "--delta-grid", "0.1,0.01,nan,0.001"],
     "delta must be"),
    (["tail", "--sampler", "pareto-radial:nan", *_EXPERIMENT,
      "--xgrid", "0.1"], "a > 0"),
    (["tail", "--sampler", "exp-radial:nan:1", *_EXPERIMENT,
      "--xgrid", "0.1"], "kappa > 0"),
    (["tail", "--sampler", "exp-radial:1:nan", *_EXPERIMENT,
      "--xgrid", "0.1"], "lam > 0"),
    (["tail", "--sampler", "uniform-cube:1", *_EXPERIMENT, "--xgrid", "nan"],
     "finite"),
    (["fitc", "--sampler", "uniform-cube:1", *_EXPERIMENT,
      "--xgrid", "0.1,inf"], "finite"),
    (["wpp", "--a", "{a1}", "--b", "{b1}", "--p", "nan"], "p must be"),
    (["wpp", "--a", "{pts}", "--b", "{pts}", "--p", "nan"], "p must be"),
    (["asrun", "--sampler", "uniform-cube:1", "--p", "nan", "--nmax", "64",
      "--seed", "0"], "p must be"),
    (["asrun", "--sampler", "point-mass:3", "--p", "nan", "--nmax", "64",
      "--seed", "0"], "p must be"),
    (["asrun", "--sampler", "uniform-cube:1", "--p", "1", "--nmax", "2",
      "--seed", "0"], "first checkpoint"),
    # past about 1,075 halvings the last scale is 0; refused before the
    # grid is allocated, and a count of hundreds of digits raised an
    # OverflowError
    (["dim", "--points", "{pts}", "--scales", str(2 ** 40)], "to 0"),
    (["dim", "--points", "{pts}", "--scales", str(10 ** 400)], "to 0"),
    # tree.json held 3,000 levels (15 MB)
    (["tree", "--points", "{pts}", "--kstar", "3000"], "underflows to 0"),
    # a field the family does not take, or an infinite parameter, was
    # dropped or ran the whole experiment before failing to write
    (["tail", "--sampler", "uniform-cantor:0.25:6", *_EXPERIMENT,
      "--xgrid", "0.1"], "bad sampler spec"),
    (["rate", "--sampler", "uniform-cube:2:7", "--p", "1", "--ngrid", "8:16",
      "--reps", "30", "--seed", "0"], "bad sampler spec"),
    (["asrun", "--sampler", "point-mass:1:zzz", "--p", "1", "--nmax", "64",
      "--seed", "0"], "bad sampler spec"),
    (["tail", "--sampler", "pareto-radial:inf:1", *_EXPERIMENT,
      "--xgrid", "0.1"], "a > 0"),
    (["tail", "--sampler", "exp-radial:1e400:1", *_EXPERIMENT,
      "--xgrid", "0.1"], "kappa > 0"),
    # an estimator that does not read --mref or --kstar took the flag and
    # echoed it into rate.json ("m_ref": 50 on a run without a reference
    # sample); given at its default value, too
    (["rate", "--sampler", "uniform-cube:1", *_EXPERIMENT, "--mref", "50"],
     "the 1d-quantile estimator reads no m_ref"),
    (["rate", "--sampler", "uniform-cube:1", *_EXPERIMENT, "--kstar", "3"],
     "the 1d-quantile estimator reads no k_star"),
    (["tail", "--sampler", "uniform-cube:1", *_EXPERIMENT, "--xgrid", "0.1",
      "--kstar", "7"], "the 1d-quantile estimator reads no k_star"),
    (["fitc", "--sampler", "uniform-cube:2", "--p", "1", "--ngrid", "8:16",
      "--reps", "30", "--seed", "0", "--xgrid", "0.1", "--kstar", "3"],
     "the mcf-two-sample estimator reads no k_star"),
])
def test_bad_input_exit_2_one_line(tmp_path, capsys, pts_file, argv, reason):
    rng = np.random.default_rng(1)
    files = {"{pts}": pts_file, "{a1}": str(tmp_path / "a1.csv"),
             "{b1}": str(tmp_path / "b1.csv")}
    save_points_csv(files["{a1}"], rng.random((5, 1)))
    save_points_csv(files["{b1}"], rng.random((4, 1)))
    argv = [files.get(a, a) for a in argv]
    out = tmp_path / "out"
    assert _run([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and reason in err, err
    assert not out.exists()


@pytest.mark.parametrize("extra, reason", [
    (["--dist", "pareto", "--a", "1"], "pareto needs"),
    (["--dist", "pareto", "--a", "0.5"], "pareto needs"),
    (["--dist", "pareto", "--a", "nan"], "a must be finite"),
    (["--dist", "uniform", "--r", "0"], "r must lie"),
    (["--dist", "uniform", "--r", "1"], "r must lie"),
    (["--dist", "uniform", "--r", "nan"], "r must be finite"),
    (["--dist", "uniform", "--reps", "1"], "R must be"),
])
def test_verify_appendix_refuses_what_it_cannot_evaluate(tmp_path, capsys,
                                                         extra, reason):
    # flags later on the line win, so --r, --a and --reps are overridden
    argv = ["verify-appendix", "--r", "2", "--ngrid", "8:16", "--reps", "50",
            "--seed", "0", *extra, "--out", str(tmp_path)]
    assert _run(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and reason in err, err


def test_unallocatable_sample_exit_2(tmp_path, capsys):
    # numpy refuses a 7 PiB array at once, before touching memory
    assert _run(["asrun", "--sampler", "uniform-cube:1", "--p", "1",
                 "--nmax", "1000000000000000", "--seed", "0",
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Unable to allocate" in err, err


@pytest.mark.parametrize("grid, reason", [
    ([1, 2], "not a JSON object"),
    ({"params": [1, 2]}, "params is not"),
    ({"params": {"p": 1}, "x_grid": 5}, "x_grid is not"),
    ({"params": {"p": 1}, "x_grid": [None]}, "x_grid is not"),
    ({"params": {"p": 1}, "n_grid": ["10"]}, "n_grid is not"),
    ({"params": {"p": 1, "alpha": 3, "r": "2"}}, "params is not"),
    ({"params": {"p": "1", "Delta": 1}}, "params is not"),
    ({"params": {"p": True, "Delta": 1}}, "params is not"),
])
def test_bound_grid_checked_once(tmp_path, capsys, grid, reason):
    spec = tmp_path / "grid.json"
    spec.write_text(json.dumps(grid))
    out = tmp_path / "b"
    assert _run(["bound", "--formula", "fuk-nagaev", "--grid", str(spec),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and reason in err, err
    assert not out.exists()


def test_bound_missing_and_null_params(tmp_path):
    # a null param counts as absent, so the catalog's default applies; a
    # missing required one is a row error naming the first in signature
    # order (moment_bound(r, n, p, ...))
    spec = tmp_path / "grid.json"
    spec.write_text(json.dumps({"params": {"i2pp": None, "alpha": None},
                                "n_grid": [10], "x_grid": [0.5]}))
    rows = {}
    for formula in ("moment", "fuk-nagaev"):
        out = tmp_path / formula
        assert _run(["bound", "--formula", formula, "--grid", str(spec),
                     "--out", str(out)]) == 0
        with open(out / "bounds.csv", newline="") as f:
            rows[formula], = csv.DictReader(f)
    assert rows["moment"]["error"] == "'r'"
    assert rows["fuk-nagaev"]["error"] == "'p'"
    spec.write_text(json.dumps({"params": {"p": 1, "i2pp": None, "r": None},
                                "n_grid": [10], "x_grid": [0.5]}))
    out = tmp_path / "null"
    assert _run(["bound", "--formula", "fuk-nagaev", "--grid", str(spec),
                 "--out", str(out)]) == 0
    with open(out / "bounds.csv", newline="") as f:
        row, = csv.DictReader(f)
    assert row["applicable"] == "False"
    assert row["reason"] == ("I_{2p,p} is infinite and no weak moment was "
                             "supplied")


def _readme_cli_lines():
    """The `empwass ...` commands of the README's CLI block, continuation
    lines joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("empwass ")]


def test_readme_cli_examples_parse():
    lines = _readme_cli_lines()
    assert len(lines) >= 12
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        build_parser().parse_args(argv)   # exits 2 on a bad example


# Run in a fresh interpreter: which scipy modules are loaded after
# importing the CLI, after a 1-D tail run, and when each rate run's pool of
# workers is built (recorded by wrapping ProcessPoolExecutor.__init__):
# first a 1-D mcf-two-sample run, which never solves, then a 3-D one, whose
# square instances are assignments; last, in the same process, the HiGHS
# golden run, which imports scipy.optimize itself.
_PROBE_HEAD = """
import json, sys
from concurrent.futures import process

seen = {}

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

init = process.ProcessPoolExecutor.__init__
def probe(self, *args, **kwargs):
    seen.setdefault("pool", []).append(loaded())
    init(self, *args, **kwargs)
process.ProcessPoolExecutor.__init__ = probe

from empwass.cli import main
seen["import"] = loaded()
out = sys.argv[1]
"""
_IMPORT_PROBE = _PROBE_HEAD + """
assert main(["tail", "--sampler", "uniform-cube:1", "--p", "1",
             "--estimator", "1d-quantile", "--ngrid", "16:32",
             "--reps", "1000", "--xgrid", "0.1", "--seed", "0",
             "--workers", "1", "--out", out + "/tail"]) == 0
seen["tail"] = loaded()
assert "pool" not in seen
for d in (1, 3):
    assert main(["rate", "--sampler", f"uniform-cube:{d}", "--p", "1",
                 "--estimator", "mcf-two-sample", "--ngrid", "8:32",
                 "--reps", "30", "--seed", "0", "--workers", "2",
                 "--out", f"{out}/rate{d}"]) == 0
    seen[f"rate{d}"] = loaded()
assert main(["rate", "--p", "1", "--reps", "30", "--seed", "0",
             "--sampler", "uniform-cube:2", "--ngrid", "8:16", "--mref", "9",
             "--workers", "1", "--out", out + "/highs"]) == 0
import hashlib
import scipy.optimize
seen["highs"] = [hashlib.sha256(open(f"{out}/highs/{name}", "rb").read())
                 .hexdigest() for name in ("rate.json", "rate.csv")]
seen["same_solver"] = (scipy.optimize.linear_sum_assignment
                       is sys.modules["scipy.optimize._lsap"]
                       .linear_sum_assignment)
print(json.dumps(seen))
"""


def _run_probe(script, tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)], env=env,
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_scipy_loaded_only_where_a_solver_runs(tmp_path):
    seen = _run_probe(_IMPORT_PROBE, tmp_path)
    assert seen["import"] == []
    assert seen["tail"] == []
    # a 1-D two-sample replicate never solves, so nothing is loaded
    assert seen["pool"][0] == seen["rate1"] == []
    # the parent's warm-up replicate loads the compiled assignment module
    # alone before the pool forks: not scipy.optimize, not scipy.sparse
    for modules in (seen["pool"][1], seen["rate3"]):
        assert "scipy.optimize._lsap" in modules
        assert "scipy.optimize" not in modules
        assert "scipy.sparse" not in modules
    # a later import of scipy.optimize reuses that module, and the HiGHS
    # run after it still writes its golden bytes
    assert seen["same_solver"]
    assert tuple(seen["highs"]) == _RATE_GOLDEN["highs"]


# The covering-number subcommands and the dyadic estimator (its pool and
# the parent after the run) load no scipy module at all: the greedy cover
# and the partition tree are numpy only.
_COVER_PROBE = _PROBE_HEAD + """
import numpy as np

pts = out + "/pts.csv"
np.savetxt(pts, np.random.default_rng(0).random((300, 2)), delimiter=",")
for argv in (["cover", "--points", pts, "--delta", "0.1"],
             ["dim", "--points", pts],
             ["tree", "--points", pts, "--kstar", "3"],
             ["rate", "--sampler", "uniform-cube:2", "--p", "1",
              "--estimator", "dyadic", "--ngrid", "8:32", "--reps", "30",
              "--seed", "0", "--workers", "2"]):
    assert main(argv + ["--out", out + "/" + argv[0]]) == 0
    seen[argv[0]] = loaded()
print(json.dumps(seen))
"""


def test_cover_subcommands_load_no_scipy(tmp_path):
    seen = _run_probe(_COVER_PROBE, tmp_path)
    assert seen.pop("pool") == [[]]
    assert seen == dict.fromkeys(("import", "cover", "dim", "tree", "rate"),
                                 [])


def test_rings_subcommand(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    save_points_csv(a, np.array([[1.0], [3.0]]))
    save_points_csv(b, np.array([[1.5], [5.0]]))
    out = tmp_path / "r"
    rc = _run(["rings", "--a", str(a), "--b", str(b), "--p", "1",
               "--out", str(out)])
    assert rc == 0
    payload = json.loads((out / "rings.json").read_text())
    assert payload["dominates"]
    assert payload["bound"]["total"] >= payload["exact"]


_BOUND_PARAMS = {
    # alpha > 2p, alpha/(alpha - p) < r < 2: exponential plus weak moment
    "mid": {"p": 1.0, "alpha": 3.0, "r": 1.8, "q": 3.0, "weak_rp": 2.0,
            "i2pp": 1.5, "iap": 2.0, "cap": 10.0, "rho": 0.8, "kappa": 2.0,
            "i_val": 1.0, "Delta": 1.0},
    # r > 2
    "high": {"p": 1.0, "alpha": 1.5, "r": 2.5, "q": 3.0, "weak_rp": 0.7,
             "i2pp": 1.2, "rho": 0.9, "kappa": 0.5, "eps": 0.2,
             "i_val": 2.0, "Delta": 2.0},
    # 1 < r < 2, alpha < 2p
    "low": {"p": 1.0, "alpha": 1.0, "r": 1.5, "weak_rp": 1.0, "rho": 0.8},
    # integral-only bullets: I_{2p,p} with alpha < 2p, I_{alpha,p} alone
    "i2pp": {"p": 1.0, "alpha": 1.0, "i2pp": 1.5, "rho": 0.7},
    "iap": {"p": 1.0, "alpha": 3.0, "iap": 2.0, "rho": 0.9},
}


def _golden_runs(tmp_path):
    """(case, argv, output files) for the outputs pinned by sha256."""
    rng = np.random.default_rng(3)
    a2, b2 = tmp_path / "a2.csv", tmp_path / "b2.csv"
    save_points_csv(a2, rng.random((14, 2)))
    save_points_csv(b2, rng.random((9, 2)))
    a2, b2 = str(a2), str(b2)
    runs = [
        ("cover", ["cover", "--points", a2, "--delta", "0.3"],
         ("cover.json",)),
        ("rings", ["rings", "--a", a2, "--b", b2, "--p", "1"],
         ("rings.json",)),
        ("wpp-2d", ["wpp", "--a", a2, "--b", b2, "--p", "2", "--plan"],
         ("wpp.json", "plan.csv")),
        ("asrun", ["asrun", "--sampler", "uniform-cube:1", "--p", "1",
                   "--nmax", "256", "--seed", "0"],
         ("asrun.json", "asrun.csv")),
        ("asrun-point-mass", ["asrun", "--sampler", "point-mass:1", "--p",
                              "2", "--nmax", "64", "--seed", "0"],
         ("asrun.json", "asrun.csv")),
        ("appendix", ["verify-appendix", "--dist", "pareto", "--r", "2",
                      "--ngrid", "8:32", "--reps", "200", "--seed", "0"],
         ("appendix.json",)),
        ("validate", ["validate-metric", "--points", a2, "--trials", "200"],
         ("validate.json",)),
    ]
    formulas = ("moment", "hoeffding", "main-term", "fuk-nagaev", "moderate",
                "bernstein", "as-normalizer")
    for name, params in _BOUND_PARAMS.items():
        grid = tmp_path / f"grid-{name}.json"
        grid.write_text(json.dumps({"params": params, "n_grid": [3, 10, 100],
                                    "x_grid": [0.05, 0.5, 2.0]}))
        for formula in (formulas if name in ("mid", "high")
                        else ("fuk-nagaev", "moderate")):
            runs.append((f"bound-{formula}-{name}",
                         ["bound", "--formula", formula, "--grid", str(grid)],
                         ("bounds.csv",)))
    # one rate run per estimator branch, each at one and two workers
    rate = ["rate", "--p", "1", "--reps", "30", "--seed", "0"]
    square = ["--sampler", "uniform-cube:2", "--ngrid", "8:16"]
    for name, argv in {
            "line": ["--sampler", "uniform-cube:1", "--ngrid", "8:32"],
            "assignment": [*square, "--mref", "16"],
            "highs": [*square, "--mref", "9"],
            "dyadic-k0": [*square, "--estimator", "dyadic", "--kstar", "0"],
            "dyadic-k2": [*square, "--estimator", "dyadic", "--kstar", "2"],
            "quantile-p2": ["--sampler", "uniform-cube:1", "--ngrid", "8:32",
                            "--estimator", "1d-quantile", "--p", "2"]}.items():
        for workers in ("1", "2"):
            runs.append((f"rate-{name}-w{workers}",
                         [*rate, *argv, "--workers", workers],
                         ("rate.json", "rate.csv")))
    return runs


# sha256 of each output file, recorded before the subcommands shared one
# output writer; wpp-2d's plan.csv re-recorded when its cost column came
# to use the solve's distance formula (2 of 22 costs moved in the last bit)
_GOLDEN = {
    "cover": (
        "bf8f78cb3c177bfeaf52ce77393ae46f28a4cf0ec6e2df9a1732b0863ff8e067",),
    "rings": (
        "a2f26239e1cf4049e9c20a46878ffc934d78ec71102729d5baa911d02233ce5b",),
    "wpp-2d": (
        "e319206711fd465664d332331a9dfbbe3ecb6587c8d12a4da2e8497e3c145478",
        "7e4d77860c13d66db8672dc4cda4b99160a5286049c03dd287a9475bc5647fde"),
    "asrun": (
        "b87bab333fe5551d0e7df7b330114f3e1384a4d895c28af4c66d0940b7eaf1d0",
        "d2867f95cb66b016426db27ac46ad35011f4b4074525776411b5cd4545b1a1a7"),
    # recorded while asrun still skipped the quantile path for a point mass
    "asrun-point-mass": (
        "7a938756e5a12a426d68a90df1f59bd94b73d880d04b80eea2602bf505272332",
        "7c210ac798ed159e62684293d094dc657b3f09483b59b7a48fc0d1e30e9aaa0a"),
    "appendix": (
        "bd5e3a08cab10eaf9d6a71e999cb890b86487dbb669ed8530ab8bdd4c88274c1",),
    "validate": (
        "454a7b5a45123b158f52f58ab29444f3ddb5a5e01fb541bad8507f814d2b23c3",),
    "bound-moment-mid": (
        "22520799867396088b84af0dd9790f43f6e3272de173b59ea93d55f35a4034e3",),
    "bound-hoeffding-mid": (
        "9b6712e1fac993fe92616c6f007f9926cd9e032674e72ebe3e38374fabd01841",),
    "bound-main-term-mid": (
        "955b2c040e6eb3001a30878caedfd463fdc061a7b105b12ed1007397b111442f",),
    "bound-fuk-nagaev-mid": (
        "9574bc6392664a1c6f789ac74efab05dfec851eec804758adf31834246319a70",),
    "bound-moderate-mid": (
        "4f5c347e341de54efd3306850dddd46694a9723c7dc28f9f6cf324bdb8f10c1b",),
    "bound-bernstein-mid": (
        "037a60503dca2725cc47cfed6decaa014fdb136e51a16ef17e9246ae0f0017af",),
    "bound-as-normalizer-mid": (
        "0d5deb9607aa2519c4bdcf9cc2ebe55b6785b13cd4fc2c319821d8ae21d45b3c",),
    "bound-moment-high": (
        "48291e2026eeb70d72de703435c1f94f74c3fbc7192460bb241afe214c7d80f7",),
    "bound-hoeffding-high": (
        "61afd18cea84304568398f8a1ff792e33d1d917ad1ee9317bd7cda59c76c760e",),
    "bound-main-term-high": (
        "de8d7530aa9cab6a580b4f9f7a3233a5febab1956f5ec76cbbbcb925a72fce43",),
    "bound-fuk-nagaev-high": (
        "33262a95e8d9b7274849ad0aeca46d69751ad6f92614e3d971ac185a3d4c0d61",),
    "bound-moderate-high": (
        "9bec44529fd00f2db99ee23b937e4346f4770e44d6a66ca8bb4a6b49df605485",),
    "bound-bernstein-high": (
        "36bc776268089a7e054e8ffff1db9f72b910926d39f08843604a62c40660f315",),
    "bound-as-normalizer-high": (
        "164a6cc3c86063befb07d4904c7861beacbb5b8b88503faed83b91abdc43a468",),
    "bound-fuk-nagaev-low": (
        "0218e2ad7780c001f3d02ffa635fe69efb6b2b5f486ec0cb1214fda49779c8e9",),
    "bound-moderate-low": (
        "7e57207e089c24795593bef769f591f462503d2a758c8752a2abb7362a1d6527",),
    "bound-fuk-nagaev-i2pp": (
        "c8e9ad3f4e1b22a2f2576a174f6d3e48eb1e3aa95e0c21ebfbdf42fc445bf768",),
    "bound-moderate-i2pp": (
        "aeed083f89c739ff36b8b66e09ba8b2026b27ddaa39e07c72cc5c6cbaae2a578",),
    "bound-fuk-nagaev-iap": (
        "2873f78ec923ec2e44f7e2f468f7fdfe45bff6fc9bec1ae592950cda3b052ba9",),
    "bound-moderate-iap": (
        "cbdabaabdce68e57481e80f3705ef93ec094ed8b5ad09da737f45d89a4163838",),
}

# sha256 of rate.json and rate.csv, one rate run per estimator branch,
# recorded before the estimators became one table; one and two workers
# write the same bytes
_RATE_GOLDEN = {
    "line": (
        "6b7c2f312ae74c89e070a5280078ea6750f60d1debc46619e7db68c83625dc15",
        "045cf4d43193c120c5e562a290818a1fa02641e8559e4ffd97971b8a4656e7b7"),
    "assignment": (
        "1bf4f8cc9c5f9e51cbc4b58b5dd85665aa91343837b0d6ec80d6019b3b4de453",
        "ec2ccd23154faed212190796d148d21c1bb957e5bbe194ce8f70799fcab09e6d"),
    "highs": (
        "5d0c826e9610a71bf36430b8b5940a0da4f581ad6ae6fe38a9dafb9ccc350d6a",
        "888e5874349eefd7d2bb01a55efeef391f4bb359003ae106f298845f5c62b5fd"),
    "dyadic-k0": (
        "5e65ecd54c57dcc44157a23183a27f10f4eb8942c4677fbb85a9da2216c974f9",
        "fa819a69e738e79d86ceb0c7c5fcfef3b723bc51aa3eb020a59cffac15620de2"),
    "dyadic-k2": (
        "a769e79fc8037275a9b975baaab9c9e995c31a5ecac02d8ba805286eddbb44d5",
        "3827c7c90e7223f4e989f0b66c233a856549da8cba26618bbf2df5a82b1f17b2"),
    "quantile-p2": (
        "83fb0148668ddfd085e691c52db0668a4c90a6762649a4a4918390c7b71a4719",
        "f7d13bac25b7bb174f427913cc940078eaed2d970beb43c4f04aafeaa5ad6caa"),
}
_GOLDEN.update({f"rate-{name}-w{workers}": digests
                for name, digests in _RATE_GOLDEN.items()
                for workers in (1, 2)})


def test_outputs_golden(tmp_path):
    runs = _golden_runs(tmp_path)
    assert sorted(case for case, _, _ in runs) == sorted(_GOLDEN)
    for case, argv, files in runs:
        out = tmp_path / case
        assert _run([*argv, "--out", str(out)]) == 0, case
        got = tuple(hashlib.sha256((out / f).read_bytes()).hexdigest()
                    for f in files)
        assert got == _GOLDEN[case], case
        for path in out.glob("*.json"):
            _strict_json(path)


def test_wpp_1d_value_golden(tmp_path):
    # the staircase divides by the final cumulative weight, so the value
    # may move in its last bit against the one recorded here
    rng = np.random.default_rng(5)
    a, b = tmp_path / "a1.csv", tmp_path / "b1.csv"
    save_points_csv(a, rng.random((7, 1)))
    save_points_csv(b, rng.random((5, 1)))
    for p, want in (("1", 0.17782838023601394), ("2", 0.03966045477158202),
                    ("2.5", 0.019419290119769332)):
        out = tmp_path / p
        assert _run(["wpp", "--a", str(a), "--b", str(b), "--p", p,
                     "--out", str(out)]) == 0
        payload = json.loads((out / "wpp.json").read_text())
        assert payload["method"] == "closed-form-1d"
        assert payload["value"] == pytest.approx(want, rel=1e-12, abs=0)


def _no_output(tmp_path, capsys, argv):
    """Run argv into a fresh directory; assert exit 2, one line on stderr
    and no output directory. Returns the line."""
    out = tmp_path / "out"
    assert _run([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert not out.exists()
    return err


@pytest.mark.parametrize("argv, reason", [
    (["wpp", "--a", "{a1}", "--b", "{a1}", "--p", "inf"], "p must be finite"),
    (["rate", "--sampler", "uniform-cube:1", "--p", "inf", "--ngrid", "8:16",
      "--reps", "30", "--seed", "0"], "p must be finite"),
    (["asrun", "--sampler", "uniform-cube:1", "--p", "inf", "--nmax", "8",
      "--seed", "0"], "p must be finite"),
    (["cover", "--points", "{a1}", "--delta", "inf"], "delta must be finite"),
    (["fitc", "--sampler", "uniform-cube:1", *_EXPERIMENT, "--xgrid", "0.1",
      "--alpha=-inf"], "alpha must be finite"),
    (["fitc", "--sampler", "uniform-cube:1", *_EXPERIMENT, "--xgrid", "0.1",
      "--delta", "inf"], "delta must be finite"),
    (["verify-appendix", "--dist", "uniform", "--r", "inf", "--ngrid", "8:16",
      "--reps", "50", "--seed", "0"], "r must be finite"),
    (["tail", "--sampler", "uniform-cube:1", *_EXPERIMENT,
      "--xgrid", "0.1,1e400"], "x must be finite"),
    (["dim", "--points", "{a1}", "--delta-grid", "0.1,0.01,-inf,0.001"],
     "delta must be finite"),
])
def test_non_finite_float_flags_exit_2(tmp_path, capsys, argv, reason):
    a1 = tmp_path / "a1.csv"
    save_points_csv(a1, np.random.default_rng(1).random((5, 1)))
    err = _no_output(tmp_path, capsys,
                     [str(a1) if a == "{a1}" else a for a in argv])
    assert reason in err, err


def test_every_float_flag_refuses_non_finite_values():
    """Every float flag of every subcommand uses the action that refuses
    inf and NaN."""
    sub = build_parser()._subparsers._group_actions[0]
    finite = {(cmd, a.dest): isinstance(a, _Finite)
              for cmd, sp in sub.choices.items() for a in sp._actions
              if a.type is float}
    assert all(finite.values()), finite
    assert {dest for _, dest in finite} == {"p", "delta", "alpha", "r", "a"}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("cmd", [
    ["cover", "--points", "{big}", "--delta", "1"],
    ["dim", "--points", "{big}"],
    ["tree", "--points", "{big}", "--kstar", "2"],
    ["wpp", "--a", "{big}", "--b", "{big}", "--p", "1"],
    ["rings", "--a", "{big}", "--b", "{big}", "--p", "1"],
    ["validate-metric", "--points", "{big}"],
])
def test_overflowing_cloud_exit_2(tmp_path, capsys, cmd):
    # finite coordinates, but 1e200 - (-1e200) squared overflows
    big = tmp_path / "big.csv"
    big.write_text("1e200,0\n-1e200,0\n0,1\n")
    err = _no_output(tmp_path, capsys,
                     [str(big) if a == "{big}" else a for a in cmd])
    assert err == "error: point cloud too wide: its distances overflow " \
        "a float\n"


def test_non_finite_payload_writes_nothing(tmp_path, capsys, monkeypatch,
                                           pts_file):
    # every file is serialized, as strict JSON, before any is written
    import empwass.cli as cli
    monkeypatch.setattr(cli, "_cmd_cover", lambda args: (
        0, {"cover.json": {"delta": args.delta, "x": float("nan")}}, "s"))
    err = _no_output(tmp_path, capsys,
                     ["cover", "--points", pts_file, "--delta", "0.1"])
    assert err.startswith("error: Out of range float values"), err


_FITC = ["fitc", "--sampler", "uniform-cube:1", "--p", "1", "--estimator",
         "1d-quantile", "--ngrid", "64:256", "--reps", "1000", "--seed", "0"]


def test_fitc_fits_only_cells_with_an_exceedance(tmp_path):
    # W_1 <= 1 here, so no replicate exceeds 1.5; that cell's Wilson upper
    # limit (about 3.84 / R) used to falsify Hoeffding's exact 0
    out = tmp_path / "f"
    assert _run([*_FITC, "--xgrid", "0.1,1.5", "--out", str(out)]) == 0
    fit = _strict_json(out / "fitc.json")
    assert fit["ok"] and fit["falsified_at"] is None
    assert 0 < fit["C"] < 1
    assert fit["measures"] == "W_p^p(mu_n, mu)"
    assert (fit["cells_used"], fit["cells_empty"]) == (1, 5)
    assert fit["reason"] is None


def test_fitc_without_exceedances_reports_null(tmp_path):
    out = tmp_path / "f"
    assert _run([*_FITC, "--xgrid", "1.5,2", "--out", str(out)]) == 0
    fit = _strict_json(out / "fitc.json")
    assert fit["ok"] and fit["C"] is None and fit["gap"] is None
    assert (fit["cells_used"], fit["cells_empty"]) == (0, 6)
    assert "no (n, x) cell has an exceedance" in fit["reason"]


def test_fitc_falsified_is_strict_json(tmp_path):
    # the smallest constant cannot hold at x = 0.0001: falsified, no C
    out = tmp_path / "f"
    assert _run([*_FITC, "--xgrid", "0.0001", "--delta", "1e-9",
                 "--out", str(out)]) == 1
    fit = _strict_json(out / "fitc.json")
    assert not fit["ok"] and fit["C"] is None
    assert fit["falsified_at"] is not None


def test_fitc_states_what_the_default_estimator_measures(tmp_path):
    # the default estimator measures the distance to a second sample
    out = tmp_path / "f"
    assert _run(["fitc", "--sampler", "uniform-cube:1", "--p", "1",
                 "--ngrid", "8:16", "--reps", "1000", "--seed", "0",
                 "--xgrid", "0.1", "--out", str(out)]) in (0, 1)
    assert _strict_json(out / "fitc.json")["measures"] == "W_p^p(mu_n, nu_m)"
