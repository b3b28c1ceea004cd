import hashlib
import json
import os
import resource
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from empwass.cli import main
from empwass.metric_core import save_points_csv


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


def test_validate_metric_exit_codes(tmp_path, pts_file):
    assert _run(["validate-metric", "--points", pts_file,
                 "--trials", "500", "--out", str(tmp_path / "ok")]) == 0
    bad = tmp_path / "bad_matrix.csv"
    bad.write_text("0.0,1.0,5.0\n1.0,0.0,1.0\n5.0,1.0,0.0\n")
    assert _run(["validate-metric", "--matrix", str(bad),
                 "--trials", "100", "--out", str(tmp_path / "bad")]) == 1


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
