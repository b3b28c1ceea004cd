"""End-to-end acceptance checks for the whole package.

Each test pins the seeds, grids, and tolerances it was committed with, so
a pass here means the library reproduces the documented behavior exactly:
exact transport costs, multiscale upper bounds, convergence rates with the
logarithmic correction, tail-probability domination, decomposition algebra,
moment inequalities, dimension recovery on bundled data, deterministic
CLI output across worker counts, and the Efron-Stein cap on the spread.
"""

import json
import time
from importlib import resources

import numpy as np
import pytest

from empwass.bound_catalog import hoeffding_bound
from empwass.cli import main as cli_main
from empwass.decomposition import (mixture_bound, ring_decompose,
                                   verify_mixture_convexity,
                                   verify_reconstruction)
from empwass.mc_harness import (ExperimentSpec, fit_bound_constant,
                                run_rate_experiment, run_tail_experiment,
                                verify_appendix_inequalities)
from empwass.measures import DiscreteMeasure, sampler_from_string
from empwass.metric_core import FiniteMetricSpace, load_points_csv
from empwass.multiscale import (auto_delta_grid, build_partition_tree,
                                dyadic_wpp_bound, fit_dimension)
from empwass.ot_exact import wpp_1d, wpp_mcf


def _random_pair_1d(rng, max_atoms=20):
    m = int(rng.integers(2, max_atoms + 1))
    k = int(rng.integers(2, max_atoms + 1))
    pts = rng.normal(scale=2.0, size=(m + k, 1))
    space = FiniteMetricSpace.from_points(pts)
    wa = rng.random(m) + 0.05
    wb = rng.random(k) + 0.05
    mu = DiscreteMeasure(space, np.arange(m), wa / wa.sum())
    nu = DiscreteMeasure(space, m + np.arange(k), wb / wb.sum())
    return mu, nu


def _random_pair_nd(rng, d, n_atoms):
    pts = rng.random((2 * n_atoms, d))
    space = FiniteMetricSpace.from_points(pts)
    wa = rng.random(n_atoms) + 0.05
    wb = rng.random(n_atoms) + 0.05
    mu = DiscreteMeasure(space, np.arange(n_atoms), wa / wa.sum())
    nu = DiscreteMeasure(space, n_atoms + np.arange(n_atoms),
                         wb / wb.sum())
    return space, mu, nu


# 1. network-simplex solver agrees with the exact one-dimensional formula

def test_acceptance_1_simplex_matches_1d_closed_form():
    rng = np.random.default_rng(202601)
    t0 = time.time()
    for _ in range(200):
        mu, nu = _random_pair_1d(rng)
        for p in (1.0, 2.0, 3.0):
            exact = wpp_1d(mu, nu, p).value
            general, plan = wpp_mcf(mu, nu, p)
            plan.validate(mu, nu, p)
            denom = max(exact, 1e-30)
            assert abs(general.value - exact) / denom <= 1e-9
    assert time.time() - t0 < 10.0


# 2. dyadic partition bound dominates the exact cost

def test_acceptance_2_dyadic_bound_dominates_exact():
    rng = np.random.default_rng(202602)
    t0 = time.time()
    gaps = []
    for _ in range(100):
        n_atoms = int(rng.integers(4, 33))          # 2 * 32 = 64 points max
        space, mu, nu = _random_pair_nd(rng, 2, n_atoms)
        k_star = int(rng.integers(1, 4))
        tree = build_partition_tree(space, k_star)
        bound = dyadic_wpp_bound(tree, mu, nu, 1.0)
        exact, _ = wpp_mcf(mu, nu, 1.0)
        assert bound >= exact.value - 1e-12
        gaps.append(bound - exact.value)
    assert min(gaps) >= -1e-12
    assert time.time() - t0 < 60.0


# 3. convergence-rate recovery in one and three dimensions, plus the
#    logarithmic correction at the critical dimension

def test_acceptance_3a_rate_one_dimensional():
    spec = ExperimentSpec(sampler=sampler_from_string("uniform-cube:1"),
                          p=1.0, estimator="1d-quantile",
                          n_grid=(64, 128, 256, 512, 1024, 2048, 4096),
                          replicates=100, seed=33)
    rep = run_rate_experiment(spec)
    assert -0.58 <= rep.slope <= -0.42


def test_acceptance_3b_rate_three_dimensional():
    spec = ExperimentSpec(sampler=sampler_from_string("uniform-cube:3"),
                          p=1.0, estimator="mcf-two-sample",
                          n_grid=(64, 128, 256, 512, 1024),
                          replicates=100, seed=31, workers=4)
    rep = run_rate_experiment(spec)
    assert -0.40 <= rep.slope <= -0.27


def test_acceptance_3c_log_correction_at_critical_dimension():
    # depth-growing multiscale estimator; k_star=0 scales the tree with n
    spec = ExperimentSpec(sampler=sampler_from_string("uniform-cube:2"),
                          p=1.0, estimator="dyadic", k_star=0,
                          n_grid=(32, 64, 128, 256, 512, 1024),
                          replicates=100, seed=320, workers=4)
    rep = run_rate_experiment(spec)
    assert rep.corrected_r2 is not None
    assert rep.corrected_r2 > rep.slope_r2


# 4. exponential tail bound: a finite constant dominates the Wilson upper
#    limits, and the empirical tail decays with sample size

def test_acceptance_4_exponential_tail_domination():
    x_grid = (0.02, 0.05, 0.08, 0.1, 0.15, 0.2, 0.3, 0.5)
    spec = ExperimentSpec(sampler=sampler_from_string("uniform-cube:1"),
                          p=1.0, estimator="1d-quantile",
                          n_grid=(64, 256, 1024), replicates=1000,
                          seed=44, x_grid=x_grid, workers=4)
    rep = run_tail_experiment(spec)
    fit = fit_bound_constant(
        rep, lambda x, n, C: hoeffding_bound(x, n, 1.0, 1.0, 1.0, C))
    assert fit.ok
    assert np.isfinite(fit.C)
    tail_small = rep.per_n[0]["tail_x0.1"]
    tail_large = rep.per_n[-1]["tail_x0.1"]
    assert tail_small > 0.0
    assert tail_small >= 10.0 * tail_large


# 5. transport cost is convex under mixtures

def test_acceptance_5_mixture_convexity():
    rng = np.random.default_rng(202605)
    for _ in range(100):
        n_atoms = int(rng.integers(3, 9))
        pts = rng.normal(size=(6 * n_atoms, 2))
        space = FiniteMetricSpace.from_points(pts)
        mus, nus = [], []
        for c in range(3):
            base = 2 * c * n_atoms
            wa = rng.random(n_atoms) + 0.05
            wb = rng.random(n_atoms) + 0.05
            mus.append(DiscreteMeasure(space, base + np.arange(n_atoms),
                                       wa / wa.sum()))
            nus.append(DiscreteMeasure(space,
                                       base + n_atoms + np.arange(n_atoms),
                                       wb / wb.sum()))
        lams = rng.random(3) + 0.1
        lams /= lams.sum()
        out = verify_mixture_convexity(mus, nus, lams, 2.0)
        assert out["gap"] >= -1e-9


# 6. ring decomposition reconstructs the inputs and bounds the exact cost

def test_acceptance_6_ring_decomposition_and_bound():
    rng = np.random.default_rng(202606)
    for _ in range(100):
        n_atoms = int(rng.integers(4, 17))
        space, mu, nu = _random_pair_nd(rng, 2, n_atoms)
        dec = ring_decompose(mu, nu, x0=0)
        verify_reconstruction(dec)
        # the excess mass is the same whichever side it is read from,
        # and complements the shared per-ring mass
        shared = sum(r.lam_i for r in dec.rings)
        from_a = sum(r.mass_a - r.lam_i for r in dec.rings
                     if r.mass_a > r.lam_i)
        from_b = sum(r.mass_b - r.lam_i for r in dec.rings
                     if r.mass_b > r.lam_i)
        assert dec.lam == pytest.approx(from_a, abs=1e-12)
        assert dec.lam == pytest.approx(from_b, abs=1e-12)
        assert dec.lam == pytest.approx(1.0 - shared, abs=1e-10)
        bound = mixture_bound(dec, 2.0)
        exact, _ = wpp_mcf(mu, nu, 2.0)
        assert bound.total >= exact.value - 1e-12


# 7. heavy-tailed sampler: the polynomially normalized tail sequence stays
#    bounded along the sample-size grid

def test_acceptance_7_heavy_tail_normalized_sequence():
    spec = ExperimentSpec(sampler=sampler_from_string("pareto-radial:3:1"),
                          p=1.0, estimator="1d-quantile",
                          n_grid=(64, 128, 256, 512, 1024),
                          replicates=2000, seed=77, x_grid=(1.0,),
                          workers=4)
    rep = run_tail_experiment(spec)
    seq = [row["n"] ** 1.5 * row["tail_x1"] for row in rep.per_n]
    assert seq[-1] <= 2.0 * float(np.median(seq))


# 8. partial-sum moment inequalities hold within Monte Carlo error

def test_acceptance_8_moment_inequalities():
    for dist in ("rademacher", "uniform", "pareto"):
        for r in (1.5, 2.0, 3.0):
            # only pareto reads a tail index
            out = verify_appendix_inequalities(
                dist, r, (10, 100, 1000), R=3000, seed=88,
                a=4.0 if dist == "pareto" else None)
            for row in out["rows"]:
                for key in ("burkholder_ok", "vbe_ok"):
                    if key in row:
                        assert row[key], (dist, r, row["n"], key)
    # at the square-function exponent the symmetric-sign bound is tight
    out = verify_appendix_inequalities("rademacher", 2.0, (10, 100, 1000),
                                       R=20000, seed=88)
    for row in out["rows"]:
        assert row["burkholder_ratio"] == pytest.approx(1.0, abs=0.02)


# 9. covering-dimension fits on the bundled datasets

def _bundled_space(name):
    with resources.as_file(
            resources.files("empwass").joinpath(f"data/{name}")) as path:
        return load_points_csv(path)


def test_acceptance_9_bundled_dimension_fits():
    cantor = _bundled_space("cantor_third_5000.csv")
    fit = fit_dimension(cantor, auto_delta_grid(cantor, 6))
    assert 0.55 <= fit.alpha <= 0.72

    square = _bundled_space("uniform_square_20000.csv")
    fit = fit_dimension(square, auto_delta_grid(square, 5))
    assert 1.7 <= fit.alpha <= 2.3


# 10. experiment subcommands are byte-identical across worker counts

def test_acceptance_10_cli_worker_determinism(tmp_path):
    def run_rate(out, workers):
        rc = cli_main(["rate", "--sampler", "uniform-cube:1", "--p", "1",
                       "--estimator", "1d-quantile", "--ngrid", "32:256",
                       "--reps", "50", "--seed", "5",
                       "--workers", str(workers), "--out", str(out)])
        assert rc == 0

    def run_tail(out, workers):
        rc = cli_main(["tail", "--sampler", "uniform-cube:1", "--p", "1",
                       "--estimator", "1d-quantile", "--ngrid", "32:128",
                       "--reps", "1000", "--xgrid", "0.05,0.1,0.2",
                       "--seed", "6", "--workers", str(workers),
                       "--out", str(out)])
        assert rc == 0

    a, b = tmp_path / "rate1", tmp_path / "rate4"
    run_rate(a, 1)
    run_rate(b, 4)
    for name in ("rate.csv", "rate.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    # the config echo records the differing worker flag, nothing else does
    ca = json.loads((a / "effective-config.json").read_text())
    cb = json.loads((b / "effective-config.json").read_text())
    assert ca["workers"] == 1 and cb["workers"] == 4

    c, d = tmp_path / "tail1", tmp_path / "tail4"
    run_tail(c, 1)
    run_tail(d, 4)
    for name in ("tail.csv", "tail.json"):
        assert (c / name).read_bytes() == (d / name).read_bytes()


# 17. the spread of W_p^p stays under the Efron-Stein cap in every
#     dimension, while sd/mean falls only where the mean decays slower

# sqrt(chi2_{0.999, R-1} / (R-1)) at R = 100 replicates: a one-sided
# allowance for the sampling error of a sample sd
_SD_ALLOWANCE = 1.224


def test_acceptance_17_sd_under_efron_stein_cap():
    ratio = {}
    for d in (1, 2, 6):
        spec = ExperimentSpec(sampler=sampler_from_string(f"uniform-cube:{d}"),
                              p=1.0, estimator="mcf-two-sample",
                              n_grid=(16, 32, 64, 128, 256), replicates=100,
                              seed=17, workers=2)
        rows = run_rate_experiment(spec).per_n
        for row in rows:
            # p = 1, m = n and E|X - X'|^2 = d/6 on the unit cube
            cap = np.sqrt(d / 6.0 * (2.0 / row["n"]) / 2.0) * _SD_ALLOWANCE
            assert row["sd"] <= cap, (d, row["n"], row["sd"], cap)
        ratio[d] = [row["sd"] / row["mean"] for row in (rows[0], rows[-1])]
    # alpha = 6 > 2p: W_1 concentrates on its mean; alpha = 1 < 2p: not
    assert ratio[6][1] < 0.5 * ratio[6][0], ratio[6]
    assert ratio[1][1] > 0.5 * ratio[1][0], ratio[1]
