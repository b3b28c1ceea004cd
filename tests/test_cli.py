import json
import os
import resource
import subprocess
import sys
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
