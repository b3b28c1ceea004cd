import hashlib
import itertools
import json
import math
import os
import re
import resource
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from empwass.mc_harness import ExperimentSpec, _dyadic_block
from empwass.measures import DiscreteMeasure, sampler_from_string
from empwass.metric_core import FiniteMetricSpace, MetricError, diameter
from empwass.multiscale import (DegenerateFitError, MultiscaleError,
                                PartitionTree, auto_delta_grid, auto_k_star,
                                build_partition_tree, build_partition_trees,
                                dyadic_wpp_bound,
                                fit_dimension, greedy_cover)
from empwass.ot_exact import wpp_mcf


def _min_cover_size(space, subset, delta):
    """Exhaustive minimum number of closed delta-balls covering subset."""
    subset = list(subset)
    D = space.submatrix(subset)
    eps = delta * (1 + 1e-12)
    for k in range(1, len(subset) + 1):
        for centers in itertools.combinations(range(len(subset)), k):
            if np.all(D[:, centers].min(axis=1) <= eps):
                return k
    return len(subset)


def test_greedy_cover_sandwiched_by_optimum():
    rng = np.random.default_rng(10)
    for _ in range(8):
        n = int(rng.integers(4, 12))
        pts = rng.random((n, 2))
        space = FiniteMetricSpace.from_points(pts)
        delta = float(rng.uniform(0.1, 0.5))
        est = greedy_cover(space, delta)
        opt = _min_cover_size(space, np.arange(n), delta)
        # greedy upper bound is feasible; packing lower bound is valid
        assert est.n_lower <= opt <= est.n_upper
        # centers actually cover at radius delta
        D = space.distance_block(np.arange(n), est.centers)
        assert np.all(D.min(axis=1) <= delta * (1 + 1e-12))


def test_cover_count_monotone_in_delta():
    rng = np.random.default_rng(11)
    pts = rng.random((80, 2))
    space = FiniteMetricSpace.from_points(pts)
    deltas = [0.4, 0.2, 0.1, 0.05]
    counts = [greedy_cover(space, d).n_upper for d in deltas]
    assert counts == sorted(counts)


def test_greedy_cover_singleton_and_errors():
    space = FiniteMetricSpace.from_points(np.zeros((1, 2)))
    est = greedy_cover(space, 0.1)
    assert est.n_upper == est.n_lower == 1
    with pytest.raises(MultiscaleError):
        greedy_cover(space, 0.0)


def _limit_memory():
    gib = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (gib, gib))


def test_cover_ends_when_a_center_misses_itself():
    # D[1, 1] = 5 > delta: the center must still count as covered, or the
    # loop picks it forever; a child process under a memory cap and a
    # timeout, so a regression fails instead of hanging the suite
    code = ("from empwass.metric_core import FiniteMetricSpace\n"
            "from empwass.multiscale import greedy_cover\n"
            "space = FiniteMetricSpace.from_matrix([[0, 1], [1, 5]])\n"
            "print(greedy_cover(space, 0.5).to_dict())\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          preexec_fn=_limit_memory, capture_output=True,
                          text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(
        {"delta": 0.5, "n_upper": 2, "n_lower": 1, "centers": [0, 1]})


def test_fit_dimension_line_and_square():
    rng = np.random.default_rng(12)
    line = rng.random((3000, 1))
    s1 = FiniteMetricSpace.from_points(line)
    grid = auto_delta_grid(s1, 6)
    fit1 = fit_dimension(s1, grid)
    assert 0.85 <= fit1.alpha <= 1.15
    # enough points that counts stay unsaturated over a 5-scale dyadic grid
    square = rng.random((12000, 2))
    s2 = FiniteMetricSpace.from_points(square)
    grid2 = auto_delta_grid(s2, 5)
    fit2 = fit_dimension(s2, grid2)
    assert 1.7 <= fit2.alpha <= 2.2
    # envelope beta (diam/delta)^alpha is one-sided: dominates every
    # observed count
    envelope = fit2.beta * (fit2.diam / fit2.scales) ** fit2.alpha
    assert np.all(envelope >= fit2.counts - 1e-9)


def test_fit_dimension_argument_validation():
    space = FiniteMetricSpace.from_points(np.random.default_rng(0).random((50, 1)))
    with pytest.raises(MultiscaleError):
        fit_dimension(space, [0.1, 0.05, 0.02])  # too few scales
    with pytest.raises(MultiscaleError):
        fit_dimension(space, [0.1, 0.09, 0.08, 0.07])  # < 1 decade
    for grid in ([-1, -0.5, -0.2, -0.01], [0.5, 0.2, 0.1, -0.01]):
        with pytest.raises(MultiscaleError, match="delta must be positive"):
            fit_dimension(space, grid)
    degenerate = FiniteMetricSpace.from_points(np.zeros((5, 1)))
    with pytest.raises(DegenerateFitError):
        fit_dimension(degenerate, [0.8, 0.4, 0.2, 0.05])


def test_auto_delta_grid_takes_the_count_as_given():
    # four dyadic scales span a factor of 8, so fit_dimension refuses any
    # grid of fewer than 5
    space = FiniteMetricSpace.from_points(
        np.random.default_rng(0).random((200, 2)))
    for k in (2, 3, 4):
        grid = auto_delta_grid(space, k)
        assert grid.size == k
        with pytest.raises(MultiscaleError):
            fit_dimension(space, grid)
    assert fit_dimension(space, auto_delta_grid(space, 5)).scales.size == 5


def test_auto_delta_grid_refuses_scales_that_reach_zero():
    # past about 1,075 halvings diam/8 is 0; refused before any array is
    # allocated, so 2**40 scales cost nothing
    space = FiniteMetricSpace.from_points(
        np.random.default_rng(0).random((50, 2)))
    for n_scales in (2 ** 40, 10 ** 400):   # no OverflowError either
        with pytest.raises(MultiscaleError, match="to 0"):
            auto_delta_grid(space, n_scales)
    # every grid it returns ends above 0; from the first refusal on, all
    # longer grids are refused
    refused = []
    for k in range(1000, 1100):
        try:
            assert auto_delta_grid(space, k)[-1] > 0.0
            refused.append(False)
        except MultiscaleError:
            refused.append(True)
    assert 0 < refused.index(True) and all(refused[refused.index(True):])


def test_partition_tree_refuses_k_star_whose_radius_underflows():
    # 2^-1074 is the smallest float: here 4^-537 * diam/2 (diam/2 is
    # about 0.68, or 1 in place of a zero diameter) is above 0 and
    # 4^-538 * diam/2 is not; refused before the first level, so a depth
    # of hundreds of digits costs nothing
    for pts in (np.random.default_rng(0).random((50, 2)), np.zeros((3, 2))):
        space = FiniteMetricSpace.from_points(pts)
        assert len(build_partition_tree(space, 537).cell_counts) == 537
        for k_star in (538, 3000, 10 ** 9, 10 ** 400):
            with pytest.raises(MultiscaleError, match="underflows to 0"):
                build_partition_tree(space, k_star)


def test_partition_tree_invariants_checked_by_verify():
    rng = np.random.default_rng(13)
    for d in (1, 2):
        pts = rng.random((400, d))
        space = FiniteMetricSpace.from_points(pts)
        tree = build_partition_tree(space, 3)
        tree.verify()  # partition / refinement / diameter / cardinality
        levels = tree.to_dict()["levels"]
        assert len(levels) == 3
        # each level partitions the space
        for level in levels:
            got = np.sort(np.concatenate([c["points"] for c in level]))
            assert np.array_equal(got, np.arange(400))
        # diameters shrink with the prescribed geometric factor
        for k, level in enumerate(levels, start=1):
            cap = 4.0 ** (-k) * tree.diam
            for cell in level:
                assert diameter(space, cell["points"]) <= cap * (1 + 1e-12)


def test_partition_tree_degenerate_inputs():
    space = FiniteMetricSpace.from_points(np.zeros((4, 2)))
    tree = build_partition_tree(space, 2)
    assert tree.cell_counts == [1, 1]
    single = FiniteMetricSpace.from_points(np.array([[1.0, 2.0]]))
    tree1 = build_partition_tree(single, 2)
    assert tree1.diam == 0.0


def test_dyadic_bound_hand_example():
    # two points at distance 1, k* = 1, p = 1:
    # mass discrepancies at level 1 are |1-0| + |0-1| = 2 when the level-1
    # cells separate the points, giving 1 * (1/4 + 4 * (1/4) * 2) = 2.25;
    # with both measures on one point the bound is the resolution term only.
    space = FiniteMetricSpace.from_points(np.array([[0.0], [1.0]]))
    tree = build_partition_tree(space, 1)
    mu = DiscreteMeasure(space, [0], [1.0])
    nu = DiscreteMeasure(space, [1], [1.0])
    assert dyadic_wpp_bound(tree, mu, nu, 1.0) == pytest.approx(0.25 + 2.0)
    assert dyadic_wpp_bound(tree, mu, mu, 1.0) == pytest.approx(0.25)


def test_dyadic_bound_dominates_exact_wpp():
    rng = np.random.default_rng(14)
    for p in (1.0, 2.0):
        for _ in range(10):
            n = int(rng.integers(6, 30))
            pts = rng.random((n, 2))
            space = FiniteMetricSpace.from_points(pts)
            wa = rng.dirichlet(np.ones(n))
            wb = rng.dirichlet(np.ones(n))
            mu = DiscreteMeasure(space, np.arange(n), wa)
            nu = DiscreteMeasure(space, np.arange(n), wb)
            tree = build_partition_tree(space, 3)
            bound = dyadic_wpp_bound(tree, mu, nu, p)
            exact = wpp_mcf(mu, nu, p)[0].value
            assert bound >= exact - 1e-10


def test_dyadic_bound_rejects_outside_support():
    space = FiniteMetricSpace.from_points(np.array([[0.0], [1.0], [2.0]]))
    other = FiniteMetricSpace.from_points(np.array([[0.0], [1.0], [2.0]]))
    tree = build_partition_tree(other, 1)
    mu = DiscreteMeasure(space, [2], [1.0])
    nu = DiscreteMeasure(space, [0], [1.0])
    with pytest.raises(MultiscaleError):
        dyadic_wpp_bound(tree, mu, nu, 1.0)
    # one measure on the tree's space is not enough
    with pytest.raises(MultiscaleError):
        dyadic_wpp_bound(tree, DiscreteMeasure(other, [2], [1.0]), nu, 1.0)


def test_auto_k_star():
    assert auto_k_star(2, 1.0) == 1
    assert auto_k_star(10 ** 6, 2.0) >= 4
    # deeper trees for smaller dimension at fixed n
    assert auto_k_star(10 ** 4, 0.5) >= auto_k_star(10 ** 4, 2.0)


def test_cantor_dimension_from_bundled_data():
    from importlib import resources
    from empwass.metric_core import load_points_csv
    with resources.as_file(resources.files("empwass").joinpath(
            "data/cantor_third_5000.csv")) as path:
        space = load_points_csv(path)
    fit = fit_dimension(space, auto_delta_grid(space, 6))
    # middle-thirds construction has log 2 / log 3 = 0.6309...
    assert 0.55 <= fit.alpha <= 0.72


def _build_unchecked(space, k_star):
    """The tree build_partition_tree makes, before its own verify runs."""
    with mock.patch.object(PartitionTree, "verify", lambda self: None):
        return build_partition_tree(space, k_star)


def _verdict(check, tree):
    try:
        check(tree)
    except MultiscaleError as exc:
        return str(exc)
    return None


@st.composite
def _clouds(draw):
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 40))
    grid = draw(st.sampled_from([2, 4, 1000]))   # coarse grids repeat points
    seed = draw(st.integers(0, 2 ** 32 - 1))
    pts = np.random.default_rng(seed).integers(0, grid, (n, d)) / grid
    space = FiniteMetricSpace.from_points(pts)
    if draw(st.booleans()):
        space = FiniteMetricSpace.from_matrix(space.submatrix(np.arange(n)))
    return space, draw(st.integers(1, 3))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_clouds())
def test_verify_agrees_with_oracle(verify_tree_oracle, cloud):
    space, k_star = cloud
    tree = _build_unchecked(space, k_star)
    assert _verdict(PartitionTree.verify, tree) == \
        _verdict(verify_tree_oracle, tree)


def _square_tree(n=300, k_star=2, seed=15):
    pts = np.random.default_rng(seed).random((n, 2))
    return build_partition_tree(FiniteMetricSpace.from_points(pts), k_star)


def _both_reject(tree, oracle, match):
    with pytest.raises(ValueError, match=match):
        tree.verify()
    with pytest.raises(ValueError):
        oracle(tree)


def test_verify_rejects_point_moved_to_far_cell(verify_tree_oracle):
    tree = _square_tree()
    lab, cen = tree.labels[1], tree.centers[1]
    i = int(np.flatnonzero(np.bincount(lab)[lab] > 1)[0])
    pts = tree.space.points
    far = int(np.argmax(np.linalg.norm(pts[cen] - pts[i], axis=1)))
    lab[i] = far
    _both_reject(tree, verify_tree_oracle, "cell diameter violated at level 2")
    assert _verdict(verify_tree_oracle, tree) == \
        "cell diameter violated at level 2"


def test_verify_rejects_broken_parent_link(verify_tree_oracle):
    tree = _square_tree()
    par = tree.parents[1]
    par[0] = (par[0] + 1) % tree.centers[0].size
    _both_reject(tree, verify_tree_oracle, "refinement violated at level 2")
    assert _verdict(verify_tree_oracle, tree) == \
        "refinement violated at level 2"


def test_verify_rejects_empty_cell(verify_tree_oracle):
    tree = _square_tree()
    tree.centers[1] = np.append(tree.centers[1], tree.centers[1][0])
    tree.parents[1] = np.append(tree.parents[1], tree.parents[1][0])
    _both_reject(tree, verify_tree_oracle, "level 2 does not partition")


def test_verify_rejects_missing_cell(verify_tree_oracle):
    tree = _square_tree()
    tree.centers[1] = tree.centers[1][:-1]
    tree.parents[1] = tree.parents[1][:-1]
    _both_reject(tree, verify_tree_oracle, "level 2 does not partition")
    assert _verdict(verify_tree_oracle, tree) == \
        "level 2 does not partition the set"


@pytest.mark.parametrize("kind", ["points", "matrix"])
def test_verify_rejects_bad_centers(verify_tree_oracle, kind):
    # an out-of-range center raised IndexError on a point cloud and
    # passed on a matrix; a center taken from another cell passed on both
    def tree():
        pts = np.random.default_rng(15).random((300, 2))
        space = FiniteMetricSpace.from_points(pts)
        if kind == "matrix":
            space = FiniteMetricSpace.from_matrix(
                space.submatrix(np.arange(300)))
        return build_partition_tree(space, 2)

    t = tree()
    t.centers[1][3] = t.space.n
    _both_reject(t, verify_tree_oracle, "^level 2 has a center out of range$")
    t = tree()
    t.centers[1][[0, 1]] = t.centers[1][[1, 0]]
    _both_reject(t, verify_tree_oracle,
                 "^level 2 has a center outside its own cell$")
    assert _verdict(verify_tree_oracle, t) == \
        "level 2 has a center outside its own cell"
    t = tree()
    t.centers[0][-1] = -1
    _both_reject(t, verify_tree_oracle, "^level 1 has a center out of range$")
    # in a forest the check reads each tree's own positions
    good, bad = tree(), tree()
    bad.centers[1][0] = bad.centers[1][1]
    good.verify(tree())
    for trees in ((good, bad), (bad, good)):
        with pytest.raises(MultiscaleError, match="center outside its own"):
            trees[0].verify(*trees[1:])


def test_partition_tree_golden():
    # sha256 of the tree.json payload as produced before the tree was
    # stored as label arrays
    pts = np.random.default_rng(2024).random((2000, 2))
    tree = build_partition_tree(FiniteMetricSpace.from_points(pts), 3)
    assert tree.cell_counts == [26, 339, 1503]
    blob = json.dumps(tree.to_dict(), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == \
        "6cce22e0fd43d1286a62e9f315438f9d6f36c967b0756b51cf9b2e6dc3a3a1f4"


def test_matrix_partition_tree_golden():
    # sha256 of the tree.json payload as the per-parent builder produced
    # it; L1 distances on an integer grid with diameter 96 give radii 12
    # and 3 at levels 1 and 2, so exact ties at the radius and between
    # centers occur
    pts = np.random.default_rng(2025).integers(0, 49, (300, 2)).astype(float)
    pts[:2] = [[0.0, 0.0], [48.0, 48.0]]
    D = np.abs(pts[:, None, :] - pts[None, :, :]).sum(-1)
    tree = build_partition_tree(FiniteMetricSpace.from_matrix(D), 3)
    assert tree.cell_counts == [17, 127, 281]
    blob = json.dumps(tree.to_dict(), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == \
        "b422f22b3803232aa97f68f2af31ba0f9096121665a70f9710c9f1af75f1ba56"


@st.composite
def _tree_spaces(draw):
    """Point clouds in d = 1..3 on coarse grids (duplicate points, exact
    distance ties) or uniform, big enough for several blocks of the cover
    walk; or explicit matrices of their Euclidean or integer L1
    distances."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 300))
    grid = draw(st.sampled_from([2, 3, 8, 0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pts = rng.integers(0, grid, (n, d)).astype(float) if grid else \
        rng.random((n, d))
    space = FiniteMetricSpace.from_points(pts)
    kind = draw(st.sampled_from(["points", "euclidean-matrix", "l1-matrix"]))
    if kind == "euclidean-matrix":
        space = FiniteMetricSpace.from_matrix(space.submatrix(np.arange(n)))
    elif kind == "l1-matrix":
        space = FiniteMetricSpace.from_matrix(
            np.abs(pts[:, None, :] - pts[None, :, :]).sum(-1))
    return space, draw(st.integers(1, 4))


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_tree_spaces())
def test_partition_tree_matches_per_parent_builder(partition_tree_oracle,
                                                   case):
    space, k_star = case
    tree = _build_unchecked(space, k_star)
    labels, centers, parents = partition_tree_oracle(space, k_star)
    for got, want in ((tree.labels, labels), (tree.centers, centers),
                      (tree.parents, parents)):
        assert len(got) == len(want) == k_star
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)


@st.composite
def _forests(draw):
    """Two to four spaces of one kind for one forest: point clouds in
    d = 1..3 of one size or of unequal sizes, on coarse grids (duplicate
    points, exact distance ties) or uniform, the second possibly a point
    mass (zero diameter); or explicit matrices of their distances."""
    d = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(1, 150), min_size=2, max_size=4))
    if draw(st.booleans()):
        sizes = [sizes[0]] * len(sizes)
    grid = draw(st.sampled_from([2, 3, 8, 0]))
    point_mass = draw(st.booleans())
    matrix = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    spaces = []
    for r, n in enumerate(sizes):
        pts = rng.integers(0, grid, (n, d)).astype(float) if grid else \
            rng.random((n, d))
        if r == 1 and point_mass:
            pts[:] = 0.5
        space = FiniteMetricSpace.from_points(pts)
        if matrix:
            space = FiniteMetricSpace.from_matrix(
                space.submatrix(np.arange(n)))
        spaces.append(space)
    return spaces, draw(st.integers(1, 3))


def _first_failure(verdicts):
    """The verdict a batched check gives: the failing tree of the lowest
    level, the first such tree on a tie (built trees can fail only the
    cap, the last check of a level)."""
    failing = [(int(re.search(r"level (\d+)", v).group(1)), i)
               for i, v in enumerate(verdicts) if v is not None]
    return verdicts[min(failing)[1]] if failing else None


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_forests())
def test_forest_matches_per_space_builds(partition_tree_oracle, case):
    """Each tree of a forest has the label, center and parent arrays of
    the per-parent builder on its space alone, and the batched verify
    fails exactly as the trees' own checks do."""
    spaces, k_star = case
    with mock.patch.object(PartitionTree, "verify",
                           lambda self, *others: None):
        trees = build_partition_trees(spaces, k_star)
    assert len(trees) == len(spaces)
    for space, tree in zip(spaces, trees):
        assert tree.space is space and tree.diam == diameter(space)
        labels, centers, parents = partition_tree_oracle(space, k_star)
        for got, want in ((tree.labels, labels), (tree.centers, centers),
                          (tree.parents, parents)):
            assert len(got) == len(want) == k_star
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w)
    verdicts = [_verdict(PartitionTree.verify, t) for t in trees]
    assert _verdict(lambda t: t.verify(*trees[1:]), trees[0]) == \
        _first_failure(verdicts)


def test_batched_verify_checks_every_tree():
    # two valid trees and a third whose level-2 cell holds a far point:
    # the batch names the diameter failure whatever the tree's place
    spaces = [FiniteMetricSpace.from_points(
        np.random.default_rng(seed).random((300, 2))) for seed in (15, 16)]
    good = build_partition_trees(spaces, 2)
    bad = _square_tree()
    lab, cen = bad.labels[1], bad.centers[1]
    i = int(np.flatnonzero(np.bincount(lab)[lab] > 1)[0])
    pts = bad.space.points
    lab[i] = int(np.argmax(np.linalg.norm(pts[cen] - pts[i], axis=1)))
    for trees in ((bad, *good), (good[0], bad, good[1]), (*good, bad)):
        with pytest.raises(MultiscaleError,
                           match="cell diameter violated at level 2"):
            trees[0].verify(*trees[1:])
    good[0].verify(good[1])
    with pytest.raises(MultiscaleError, match="share kind and dimension"):
        build_partition_trees([spaces[0], FiniteMetricSpace.from_matrix(
            spaces[1].submatrix(np.arange(300)))], 2)


def test_forest_of_far_apart_spaces_builds():
    # each cloud's distances are finite, but the bounding box of their
    # union overflows; the forest's walks never read a distance across
    # spaces, so its union is built without the width check
    a = FiniteMetricSpace.from_points([[9e153, 0.0], [0.0, 1.0], [3.0, 1.0]])
    b = FiniteMetricSpace.from_points([[-9e153, 0.0], [0.0, 1.0], [2.0, 2.0]])
    with pytest.raises(MetricError, match="too wide"):
        FiniteMetricSpace.from_points(np.vstack([a.points, b.points]))
    for tree, space in zip(build_partition_trees([a, b], 2), (a, b)):
        alone = build_partition_tree(space, 2)
        for name in ("labels", "centers", "parents"):
            assert all(np.array_equal(x, y) for x, y in
                       zip(getattr(tree, name), getattr(alone, name)))


@pytest.mark.parametrize("lists", [("labels", "centers", "parents"),
                                   ("labels",)])
def test_verify_refuses_a_tree_short_of_k_star(lists):
    # verify zipped the levels of its trees and lists, so it checked only
    # the levels they all held, and a tree short of its last level passed
    tree = _square_tree(k_star=3)
    for name in lists:
        getattr(tree, name).pop()
    with pytest.raises(MultiscaleError,
                       match="^a tree does not hold k_star levels$"):
        tree.verify()


def test_verify_refuses_trees_of_different_depths():
    # b's level 3 puts every point in cell 0: b alone is refused, and a
    # depth-1 tree ahead of it let the batch pass
    a, b = _square_tree(k_star=1), _square_tree(k_star=3)
    b.labels[2][:] = 0
    with pytest.raises(MultiscaleError, match="level 3 does not partition"):
        b.verify()
    with pytest.raises(MultiscaleError, match="^the trees differ in k_star$"):
        a.verify(b)


@pytest.mark.xfail(strict=True, raises=MultiscaleError,
                   reason="per-parent greedy covers can place more level-2 "
                          "cells (64) than one global greedy cover at the "
                          "next scale (63), so the cap rejects a valid tree")
def test_known_cap_defect_uniform_square():
    spec = ExperimentSpec(sampler_from_string("uniform-cube:2"), 1.0,
                          "dyadic", (32,), 1, seed=1, k_star=0)
    _dyadic_block(spec, [(32, range(26, 27))])


@st.composite
def _trees_and_measures(draw):
    space, k_star = draw(_clouds())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    measures = []
    for _ in range(2):
        idx = rng.permutation(space.n)[: int(rng.integers(1, space.n + 1))]
        measures.append(DiscreteMeasure(space, idx,
                                        rng.dirichlet(np.full(idx.size, 0.5))))
    return space, k_star, measures, draw(st.sampled_from([1.0, 1.5, 2.0]))


@settings(max_examples=80, deadline=None)
@given(_trees_and_measures())
def test_dyadic_bound_dominates_exact_on_random_trees(case):
    """The bound needs nested partitions with cell diameters 4^-k diam,
    not the cover cap, so trees are taken as built: the cap defect pinned
    by test_known_cap_defect_uniform_square stays out of this property."""
    space, k_star, (mu, nu), p = case
    tree = _build_unchecked(space, k_star)
    exact = wpp_mcf(mu, nu, p)[0].value
    assert dyadic_wpp_bound(tree, mu, nu, p) >= exact - 1e-9
