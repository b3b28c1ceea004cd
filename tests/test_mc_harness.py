import dataclasses
import json
import math

import numpy as np
import pytest

from empwass import mc_harness
from empwass.measures import sampler_from_string
from empwass.multiscale import MultiscaleError
from empwass.bound_catalog import hoeffding_bound
from empwass.mc_harness import (ExperimentSpec, HarnessError, _one_replicate,
                                _run_replicates, fit_bound_constant,
                                replicate_seed, run_as_trajectory,
                                run_rate_experiment, run_tail_experiment,
                                verify_appendix_inequalities, wilson_interval)


def _spec(**kw):
    base = dict(sampler=sampler_from_string("uniform-cube:1"), p=1.0,
                estimator="1d-quantile", n_grid=(32, 64, 128, 256),
                replicates=60, seed=3)
    base.update(kw)
    return ExperimentSpec(**base)


def test_spec_validation():
    with pytest.raises(HarnessError):
        _spec(n_grid=(64, 32))
    with pytest.raises(HarnessError):
        _spec(estimator="bogus")


@pytest.mark.parametrize("bad", [
    {"n_grid": ()}, {"n_grid": (0, 32)}, {"replicates": 0},
    {"workers": 0}, {"workers": -2}, {"p": 0.5}],
    ids=["empty-grid", "n-zero", "replicates-zero", "workers-zero",
         "workers-negative", "p-below-one"])
def test_spec_rejects_out_of_range(bad):
    with pytest.raises(HarnessError):
        _spec(**bad)


@pytest.mark.parametrize("estimator, unread", [
    ("1d-quantile", {"m_ref": 50}), ("1d-quantile", {"k_star": 3}),
    ("mcf-two-sample", {"k_star": 3})])
def test_spec_refuses_fields_the_estimator_does_not_read(estimator, unread):
    with pytest.raises(HarnessError, match=f"reads no {next(iter(unread))}"):
        _spec(estimator=estimator, **unread)


def test_spec_reads_and_echoes_its_optional_fields():
    two = _spec(estimator="dyadic", m_ref=40, k_star=0)
    assert (two.m_ref, two.k_star, two.depth) == (40, 0, 0)
    unset = _spec()
    assert (unset.m_ref, unset.k_star, unset.depth) == (None, None, 3)
    assert (unset.to_dict()["m_ref"], unset.to_dict()["k_star"]) == (None, 3)


def test_spec_rejects_colliding_tail_columns():
    with pytest.raises(HarnessError, match="tail_x0.1"):
        _spec(x_grid=(0.1, 0.1000001))
    assert _spec(x_grid=(0.1, 0.2)).x_grid == (0.1, 0.2)


@pytest.mark.parametrize("a, p", [(0.8, 1.0), (1.5, 2.0), (2.0, 2.0)])
def test_pareto_without_finite_moment_refused(a, p):
    # W_p^p to a Pareto(a) reference is infinite for a <= p
    sampler = sampler_from_string(f"pareto-radial:{a:g}:1")
    with pytest.raises(HarnessError, match="infinite"):
        _spec(sampler=sampler, p=p)
    with pytest.raises(HarnessError, match="infinite"):
        run_as_trajectory(sampler, p, 64, seed=3)
    # two samples are always at a finite distance
    assert _spec(sampler=sampler, p=p, estimator="mcf-two-sample").p == p


def test_pareto_with_finite_moment_runs():
    rep = run_tail_experiment(_spec(sampler=sampler_from_string(
        "pareto-radial:3:1"), n_grid=(64,), replicates=1000, x_grid=(1.0,)))
    assert math.isfinite(rep.per_n[0]["mean"]) and rep.per_n[0]["mean"] > 0


def test_quantile_estimator_needs_closed_form_quantile():
    for text in ("uniform-cube:2", "uniform-cantor"):
        with pytest.raises(HarnessError, match="closed-form quantile"):
            _spec(sampler=sampler_from_string(text))


_ENGINE_CASES = [
    # (sampler, p, estimator, n_grid, m_ref, k_star)
    ("pareto-radial:3:1", 1.0, "1d-quantile", (64,), None, None),
    ("uniform-sphere:1", 2.0, "1d-quantile", (1, 17), None, None),
    ("uniform-cube:2", 1.0, "dyadic", (3,), None, 0),
    ("uniform-cube:1", 2.0, "mcf-two-sample", (3, 6), 5, None),
]


@pytest.mark.parametrize("R", [1, 37, 1001])
def test_run_replicates_matches_per_replicate_loop(R, wpp_vs_quantile_oracle):
    # blocks, their raggedness and the pool change nothing: every value is
    # the one replicate's own, in replicate order, for any worker count
    for text, p, est, ngrid, m_ref, k_star in _ENGINE_CASES:
        sampler = sampler_from_string(text)
        spec = _spec(sampler=sampler, p=p, estimator=est, n_grid=ngrid,
                     replicates=R, seed=19, m_ref=m_ref, k_star=k_star)
        anti = (sampler.quantile_antideriv if p == 1.0
                and sampler.quantile_antideriv(np.asarray([0.5])) is not None
                else None)
        want = []
        for n in ngrid:
            if est == "1d-quantile":
                want.append([wpp_vs_quantile_oracle(
                    sampler.draw(n, replicate_seed(19, n, rep))[:, 0],
                    sampler.quantile, p, quantile_antideriv=anti).value
                    for rep in range(R)])
            elif est == "dyadic":
                want.append([mc_harness._dyadic_block(
                    spec, [(n, range(rep, rep + 1))])[0] for rep in range(R)])
            else:
                want.append([_one_replicate(spec, n, rep)
                             for rep in range(R)])
        want = [np.asarray(w, dtype=float) for w in want]
        for workers in (1, 2, 3):
            got = _run_replicates(dataclasses.replace(spec, workers=workers))
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), \
                    (text, R, workers)


@pytest.mark.parametrize("estimator", ["mcf-two-sample"])
def test_two_sample_replicates_resolve_the_module_name(monkeypatch,
                                                       estimator):
    # a tracer rebinds mc_harness._one_replicate to count replicates; the
    # blocks must call it by that name, not through a stored reference
    # (a dyadic block builds its replicates' trees together and does not
    # go through _one_replicate)
    calls = []
    original = mc_harness._one_replicate

    def counting(spec, n, rep):
        calls.append((n, rep))
        return original(spec, n, rep)

    monkeypatch.setattr(mc_harness, "_one_replicate", counting)
    spec = _spec(sampler=sampler_from_string("uniform-cube:2"),
                 estimator=estimator, n_grid=(8, 16), replicates=30)
    run_rate_experiment(spec)
    assert sorted(calls) == [(n, rep) for n in spec.n_grid
                             for rep in range(spec.replicates)]


def test_dyadic_block_values_do_not_depend_on_the_blocks():
    # a dyadic block builds its replicates' trees as one forest; however
    # replicates 0-99 are split, each value is the replicate's own
    spec = _spec(sampler=sampler_from_string("uniform-cube:2"),
                 estimator="dyadic", n_grid=(32,), replicates=100, k_star=0)
    whole = mc_harness._dyadic_block(spec, [(32, range(100))])
    singles = np.concatenate([mc_harness._dyadic_block(spec,
                                                       [(32, range(rep,
                                                                   rep + 1))])
                              for rep in range(100)])
    assert whole.dtype == singles.dtype
    assert whole.tobytes() == singles.tobytes()
    rng = np.random.default_rng(5)
    for parts in (2, 7, 30):
        cuts = np.r_[0, np.sort(rng.choice(np.arange(1, 100), parts - 1,
                                           replace=False)), 100]
        got = np.concatenate([mc_harness._dyadic_block(spec,
                                                       [(32, range(a, b))])
                              for a, b in zip(cuts, cuts[1:])])
        assert got.tobytes() == whole.tobytes()


def test_dyadic_forest_of_mixed_n_equals_one_at_a_time():
    # n = 32, 64 and 128 share depth 2 (k_star 0, alpha 2): a forest mixing
    # their replicates gives each value of its replicate alone, in order
    spec = _spec(sampler=sampler_from_string("uniform-cube:2"),
                 estimator="dyadic", n_grid=(32, 64, 128, 512),
                 replicates=40, k_star=0)
    runs = [(32, range(3, 17)), (64, range(0, 40)), (128, range(21, 29)),
            (32, range(30, 31))]
    whole = mc_harness._dyadic_block(spec, runs)
    singles = np.concatenate([mc_harness._dyadic_block(spec,
                                                       [(n, range(r, r + 1))])
                              for n, reps in runs for r in reps])
    assert whole.dtype == singles.dtype
    assert whole.tobytes() == singles.tobytes()
    # n = 512 has depth 3: one forest cannot hold it with n = 32
    with pytest.raises(HarnessError, match="share one depth"):
        mc_harness._dyadic_block(spec, [(32, range(1)), (512, range(1))])


class _InProcessPool:
    """A ProcessPoolExecutor stand-in that maps in this process."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


def test_dyadic_builds_one_forest_per_depth_and_worker(monkeypatch):
    # rate-dyadic-2d's shape: n = 32..256 have depth 2 and n = 512 depth 3,
    # so 2 workers build 4 forests, after the parent's one-tree warm-up,
    # and one worker builds 2; the values are the same
    import concurrent.futures
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        _InProcessPool)
    monkeypatch.setattr(mc_harness.os, "sched_getaffinity",
                        lambda pid: {0, 1})
    forests = []
    build = mc_harness.build_partition_trees

    def counting(spaces, k_star):
        forests.append((k_star, sorted(s.n // 2 for s in spaces)))
        return build(spaces, k_star)

    monkeypatch.setattr(mc_harness, "build_partition_trees", counting)
    spec = _spec(sampler=sampler_from_string("uniform-cube:2"),
                 estimator="dyadic", n_grid=(32, 64, 128, 256, 512),
                 replicates=30, k_star=0, workers=2)
    two = _run_replicates(spec)
    half = [n for n in (32, 64, 128, 256) for _ in range(15)]
    assert forests == [(2, [32]), (2, half), (2, half),
                       (3, [512] * 15), (3, [512] * 15)]
    forests.clear()
    one = _run_replicates(dataclasses.replace(spec, workers=1))
    assert forests == [(2, sorted(half + half)), (3, [512] * 30)]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(one, two))


@pytest.mark.parametrize("workers", [1, 2, 5])
def test_dyadic_tasks_are_capped_at_the_block_values(workers):
    # a large n-grid: every (n, replicate) pair in exactly one task, in
    # order, each task of one depth and at most _BLOCK_VALUES sample
    # values (n a replicate) unless it holds one replicate
    spec = _spec(sampler=sampler_from_string("uniform-cube:2"),
                 estimator="dyadic", n_grid=tuple(2 ** i for i in range(3, 19)),
                 replicates=300, k_star=0)
    tasks = mc_harness._tasks(spec, workers)
    seen = {n: [] for n in spec.n_grid}
    for task_spec, runs in tasks:
        assert task_spec is spec
        assert len({mc_harness._tree_depth(spec, n) for n, _ in runs}) == 1
        assert (sum(n * len(reps) for n, reps in runs)
                <= mc_harness._BLOCK_VALUES
                or sum(len(reps) for _, reps in runs) == 1)
        for n, reps in runs:
            seen[n] += reps
    assert all(seen[n] == list(range(300)) for n in spec.n_grid)
    # n = 32..256 make depth 2 and 480 values a replicate, so a task holds
    # 273 replicates of each at most: one task per worker, two at least
    depth2 = [runs for _, runs in tasks
              if mc_harness._tree_depth(spec, runs[0][0]) == 2]
    assert len(depth2) == max(workers, 2)
    assert all([n for n, _ in runs] == [32, 64, 128, 256] for runs in depth2)


def test_block_layout_follows_the_usable_cores(monkeypatch):
    # on 2 cores, --workers 64 cuts each n's 1,000 replicates into the 8
    # blocks of 125 that --workers 2 cuts, not into 125 blocks of 8
    import concurrent.futures
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        _InProcessPool)
    monkeypatch.setattr(mc_harness.os, "sched_getaffinity",
                        lambda pid: {0, 1})
    blocks = []
    run_block = mc_harness._run_block
    monkeypatch.setattr(mc_harness, "_run_block",
                        lambda task: blocks.append(task[1]) or run_block(task))
    spec = _spec(replicates=1000, workers=2)
    _run_replicates(spec)
    at_cores = list(blocks)
    assert at_cores == [((n, range(s, s + 125)),) for n in spec.n_grid
                        for s in range(0, 1000, 125)]
    blocks.clear()
    _run_replicates(dataclasses.replace(spec, workers=64))
    assert blocks == at_cores


def test_dyadic_values_do_not_depend_on_the_cap(monkeypatch):
    # a cap of 300 values splits the depth-2 n values into groups of
    # their own and cuts every group into many tasks; no value moves
    spec = _spec(sampler=sampler_from_string("uniform-cube:2"),
                 estimator="dyadic", n_grid=(32, 64, 128, 256, 512),
                 replicates=30, k_star=0)
    want = _run_replicates(spec)
    monkeypatch.setattr(mc_harness, "_BLOCK_VALUES", 300)
    assert max(sum(n * len(reps) for n, reps in runs)
               for _, runs in mc_harness._tasks(spec, 1)) == 512
    got = _run_replicates(spec)
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


def test_dyadic_block_holding_the_cap_defect_raises():
    # seed 1, n = 32, replicate 26 is the tree of
    # test_known_cap_defect_uniform_square: a block holding it fails as
    # that replicate alone does
    spec = _spec(sampler=sampler_from_string("uniform-cube:2"),
                 estimator="dyadic", n_grid=(32,), seed=1, k_star=0)
    with pytest.raises(MultiscaleError,
                       match="^level 2 has 64 cells, cover cap is 63$"):
        mc_harness._dyadic_block(spec, [(32, range(24, 32))])


def test_pool_is_capped_by_tasks_and_cores(monkeypatch):
    # workers=10**6 sizes the pool by the tasks and the cores; an executor
    # that records its size and maps in this process starts no process
    import concurrent.futures
    sizes = []

    class Recorder:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
    spec = _spec(n_grid=(8, 16), replicates=16)
    want = _run_replicates(spec)
    cores = len(mc_harness.os.sched_getaffinity(0))
    got = _run_replicates(dataclasses.replace(spec, workers=10 ** 6))
    assert all(w <= cores for w in sizes)
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
    # with 3 cores: 4 blocks of 8 replicates get 3 processes, 2 blocks get
    # 2, and one block runs without a pool
    monkeypatch.setattr(mc_harness.os, "sched_getaffinity",
                        lambda pid: {0, 1, 2})
    for grid, R, size in (((8, 16), 16, [3]), ((8,), 16, [2]), ((8,), 8, [])):
        sizes.clear()
        _run_replicates(dataclasses.replace(spec, n_grid=grid, replicates=R,
                                            workers=10 ** 6))
        assert sizes == size


def test_replicate_seed_is_order_free():
    a = replicate_seed(7, 64, 3).random(4)
    b = replicate_seed(7, 64, 3).random(4)
    assert np.array_equal(a, b)
    c = replicate_seed(7, 64, 4).random(4)
    assert not np.array_equal(a, c)


def test_workers_give_identical_report():
    s1 = _spec(workers=1)
    s4 = _spec(workers=4)
    r1 = run_rate_experiment(s1)
    r4 = run_rate_experiment(s4)
    assert (json.dumps(r1.to_dict(), sort_keys=True)
            == json.dumps(r4.to_dict(), sort_keys=True))


def test_rate_slope_one_dimensional():
    # W_1 against uniform[0,1] decays like n^{-1/2}
    spec = _spec(n_grid=(64, 128, 256, 512, 1024, 2048), replicates=60)
    rep = run_rate_experiment(spec)
    assert not rep.degenerate
    assert rep.slope == pytest.approx(-0.5, abs=0.1)
    lo, hi = rep.slope_ci
    assert lo < -0.5 < hi or abs(rep.slope + 0.5) < 0.1


def test_estimators_agree_in_one_dimension():
    # the two-sample estimator with a large reference sample approximates
    # the exact quantile-integral estimator in distribution
    sampler = sampler_from_string("uniform-cube:1")
    qspec = _spec(sampler=sampler, n_grid=(128, 256), replicates=80)
    tspec = _spec(sampler=sampler, estimator="mcf-two-sample",
                  n_grid=(128, 256), replicates=80, m_ref=100000)
    q = run_rate_experiment(qspec)
    t = run_rate_experiment(tspec)
    for rq, rt in zip(q.per_n, t.per_n):
        se = math.hypot(rq["sd"] / math.sqrt(80), rt["sd"] / math.sqrt(80))
        assert abs(rq["mean"] - rt["mean"]) < 4 * se + 0.01 * rq["mean"]


def test_rate_degenerate_flag_on_point_mass():
    spec = _spec(sampler=sampler_from_string("point-mass:1"),
                 n_grid=(32, 64, 128, 256), replicates=40)
    rep = run_rate_experiment(spec)
    assert rep.degenerate


def test_rate_fit_refuses_a_single_n(monkeypatch):
    # a line through one point divided by zero, or failed to converge
    def no_replicates(spec):
        raise AssertionError("replicates ran")

    monkeypatch.setattr(mc_harness, "_run_replicates", no_replicates)
    for n in (1, 64):
        with pytest.raises(HarnessError, match="at least 2 values of n"):
            run_rate_experiment(_spec(n_grid=(n,), replicates=30))


def test_corrected_fit_reported_in_equality_regime():
    # alpha = 2p for the square with p = 1: log-corrected fit is computed
    spec = _spec(sampler=sampler_from_string("uniform-cube:2"),
                 estimator="mcf-two-sample",
                 n_grid=(64, 128, 256, 512), replicates=40)
    rep = run_rate_experiment(spec)
    assert rep.corrected_slope is not None
    assert rep.corrected_r2 is not None


def test_wilson_interval_properties():
    lo, hi = wilson_interval(5, 100)
    assert 0.0 <= lo < 0.05 < hi <= 1.0
    lo0, hi0 = wilson_interval(0, 100)
    assert lo0 == 0.0 and hi0 > 0.0
    lo1, hi1 = wilson_interval(100, 100)
    assert hi1 == 1.0 and lo1 < 1.0
    # coverage sanity: exact binomial simulation
    rng = np.random.default_rng(0)
    hits = 0
    trials = 400
    for _ in range(trials):
        k = rng.binomial(50, 0.3)
        lo, hi = wilson_interval(int(k), 50)
        hits += lo <= 0.3 <= hi
    assert hits / trials > 0.9


def test_tail_experiment_and_constant_fit_self_inverse():
    spec = _spec(n_grid=(64, 128, 256), replicates=1500,
                 x_grid=(0.05, 0.1))
    rep = run_tail_experiment(spec)
    for row in rep.per_n:
        assert row["tail_x0.05_lo"] <= row["tail_x0.05"] <= row["tail_x0.05_hi"]

    # bound = C * upper limit itself must fit with C ~ 1
    rows = {row["n"]: row for row in rep.per_n}

    def bound(x, n, C):
        return C * rows[n][f"tail_x{x:g}_hi"]

    fit = fit_bound_constant(rep, bound)
    assert fit.ok
    assert fit.C == pytest.approx(1.0, rel=5e-3)


def test_constant_fit_falsifies_impossible_bound():
    spec = _spec(n_grid=(64, 128), replicates=1000, x_grid=(0.05,))
    rep = run_tail_experiment(spec)

    def zero_bound(x, n, C):
        return 0.0  # no C can dominate a positive frequency

    fit = fit_bound_constant(rep, zero_bound)
    assert not fit.ok
    assert fit.falsified_at is not None


def test_tail_experiment_needs_x_grid():
    with pytest.raises(HarnessError):
        run_tail_experiment(_spec(replicates=1500))


def test_as_trajectory_bounded_and_deterministic():
    sampler = sampler_from_string("uniform-cube:1")
    out1 = run_as_trajectory(sampler, 1.0, 4096, seed=5)
    out2 = run_as_trajectory(sampler, 1.0, 4096, seed=5)
    assert out1 == out2
    assert out1["max_normalized"] < 10.0


def test_as_trajectory_without_alpha_has_no_max():
    # pareto-radial carries no covering dimension, so no row is normalized
    # and there is no maximum to report
    out = run_as_trajectory(sampler_from_string("pareto-radial:3:1"), 1.0,
                            256, seed=0)
    assert all(r["normalized"] is None for r in out["rows"])
    assert out["max_normalized"] is None


def test_verify_appendix_rademacher_r2_is_tight():
    out = verify_appendix_inequalities("rademacher", 2.0, (64, 128, 256),
                                       R=1500, seed=9)
    assert math.isfinite(out["maximal_fitted_L"])
    for row in out["rows"]:
        # Rademacher at r = 2 meets the averaged bound with equality
        assert row["burkholder_ratio"] == pytest.approx(1.0, abs=0.05)
        assert row["burkholder_ok"]
        assert row["vbe_ok"]


@pytest.mark.parametrize("dist", ["rademacher", "uniform"])
def test_verify_appendix_refuses_a_tail_index_it_does_not_read(dist):
    with pytest.raises(HarnessError, match=f"^{dist} reads no a; "):
        verify_appendix_inequalities(dist, 2.0, (8,), R=10, seed=0, a=4.0)


def test_verify_appendix_heavy_tailed():
    out = verify_appendix_inequalities("pareto", 1.5, (64, 128), R=1500,
                                       seed=10, a=4.0)
    # r in (1, 2]: only the order-(1,2] inequality applies
    for row in out["rows"]:
        assert row["vbe_ok"]
        assert row["vbe_ratio"] <= 1.0 + 3.0 * row["lhs_se"] / row["vbe_rhs"]


def test_constant_fit_measures_the_bound_not_the_replicates():
    # acceptance 4's setup: an empty cell's upper limit is about 3.84 / R,
    # so a fit that used it moved with R (5.82 at R = 1,000, 5.35 at 4,000)
    x_grid = (0.02, 0.05, 0.08, 0.1, 0.15, 0.2, 0.3, 0.5)
    fits = []
    for R in (1000, 4000):
        rep = run_tail_experiment(_spec(n_grid=(64, 256, 1024), replicates=R,
                                        seed=44, x_grid=x_grid))
        fits.append(fit_bound_constant(
            rep, lambda x, n, C: hoeffding_bound(x, n, 1.0, 1.0, 1.0, C)))
    assert all(f.ok for f in fits)
    assert fits[1].C == pytest.approx(fits[0].C, rel=0.05)
    assert fits[0].cells_used + fits[0].cells_empty == 24
