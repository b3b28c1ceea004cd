import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from empwass import metric_core
from empwass.metric_core import (FiniteMetricSpace, MetricError, diameter,
                                 load_matrix_csv, load_points_csv,
                                 save_points_csv, validate_metric)


def test_from_points_euclidean():
    pts = np.array([[0.0, 0.0], [3.0, 4.0], [0.0, 1.0]])
    s = FiniteMetricSpace.from_points(pts)
    assert s.n == 3 and s.dim == 2
    assert s.distances([0, 1], [1, 1]).tolist() == [5.0, 0.0]
    block = s.distance_block([0, 1], [2])
    assert block.shape == (2, 1)
    assert block[0, 0] == pytest.approx(1.0)


def test_from_matrix_and_submatrix():
    M = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]])
    s = FiniteMetricSpace.from_matrix(M)
    sub = s.submatrix([0, 2])
    assert sub.shape == (2, 2)
    assert sub[0, 1] == 2.0


def test_diameter_subset():
    pts = np.array([[0.0], [1.0], [10.0]])
    s = FiniteMetricSpace.from_points(pts)
    assert diameter(s) == 10.0
    assert diameter(s, [0, 1]) == 1.0
    assert diameter(s, [2]) == 0.0


def _unit_rows(rng, n, d):
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


@st.composite
def _diameter_inputs(draw):
    """Point sets in d = 1..6 that stress the prune: exact ties, repeated
    points, a point mass, points on {0, 1}^d, flat and nearly flat sets,
    sets whose every point is extreme, a large offset, and scales where
    coordinates are subnormal (x 1e-310), where their squares are (x
    2^-537, so the rounding of each entry is coarse), and where squares
    approach overflow (x 1e150; a cloud whose distances overflow is
    refused when its space is built)."""
    d = draw(st.integers(1, 6))
    n = draw(st.integers(1, 300))
    shape = draw(st.sampled_from(["uniform", "grid", "duplicates", "line",
                                  "plane", "jitter", "sphere", "offset",
                                  "point-mass", "binary", "subnormal",
                                  "subnormal-squares", "huge"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if shape == "uniform":
        pts = rng.random((n, d))
    elif shape == "grid":
        pts = rng.integers(0, 4, (n, d)).astype(float)
    elif shape == "duplicates":
        pts = rng.random((max(1, n // 4), d))[rng.integers(0, max(1, n // 4), n)]
    elif shape == "line":
        pts = rng.random((n, 1)) * rng.standard_normal(d)
    elif shape == "plane":
        pts = rng.random((n, 2)) @ rng.standard_normal((2, d))
    elif shape == "jitter":
        pts = (rng.random((n, 1)) * rng.standard_normal(d)
               + 1e-13 * rng.standard_normal((n, d)))
    elif shape == "sphere":
        pts = _unit_rows(rng, n, d)
    elif shape == "offset":
        pts = 1e9 + rng.choice([1e-3, 1.0, 1e3]) * _unit_rows(rng, n, d)
    elif shape == "point-mass":
        pts = np.full((n, d), rng.standard_normal())
    elif shape == "binary":
        pts = rng.integers(0, 2, (n, d)).astype(float)
    elif shape == "subnormal":
        pts = 1e-310 * rng.random((n, d))
    elif shape == "subnormal-squares":
        pts = 2.0 ** -537 * rng.random((n, d))
    else:
        pts = 1e150 * rng.standard_normal((n, d))
    return pts, rng.permutation(n)[: int(rng.integers(1, n + 1))]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_diameter_inputs())
def test_diameter_matches_full_scan(diameter_oracle, case):
    pts, subset = case
    space = FiniteMetricSpace.from_points(pts)
    with np.errstate(over="ignore"):
        assert diameter(space) == diameter_oracle(space)
        assert diameter(space, subset) == diameter_oracle(space, subset)


@pytest.mark.parametrize("shape", ["collinear-2d", "cube-6d", "binary-1d"])
def test_diameter_reads_few_entries(monkeypatch, shape):
    """The prune reads two rows of n entries plus a small block; a full
    scan of these 10,000-point sets would read 10^8."""
    n = 10_000
    rng = np.random.default_rng(5)
    pts = {"collinear-2d": rng.random((n, 1)) * [[1.0, -2.0]] + [[3.0, 1.0]],
           "cube-6d": rng.random((n, 6)),
           "binary-1d": rng.integers(0, 2, (n, 1)).astype(float)}[shape]
    read = []
    block = FiniteMetricSpace.distance_block

    def counted(self, rows, cols):
        out = block(self, rows, cols)
        read.append(out.size)
        return out

    monkeypatch.setattr(FiniteMetricSpace, "distance_block", counted)
    diameter(FiniteMetricSpace.from_points(pts))
    assert sum(read) <= 3 * n


def test_validate_metric_passes_on_euclidean():
    rng = np.random.default_rng(0)
    s = FiniteMetricSpace.from_points(rng.random((40, 3)))
    rep = validate_metric(s, trials=2000, seed=1)
    assert rep.passed


def test_validate_metric_catches_triangle_violation():
    M = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
    s = FiniteMetricSpace.from_matrix(M)
    rep = validate_metric(s, trials=500, seed=0)
    assert not rep.passed
    assert rep.violation is not None


def test_validate_metric_catches_asymmetry():
    M = np.array([[0.0, 1.0, 2.0], [2.0, 0.0, 2.0], [2.0, 2.0, 0.0]])
    rep = validate_metric(FiniteMetricSpace.from_matrix(M), trials=500, seed=0)
    assert not rep.passed


@pytest.mark.parametrize("n", [2048, 2049])
def test_validate_metric_checks_identity_in_both_regimes(n):
    # n <= 2048 reads the dense matrix, n > 2048 samples pairs; both must
    # report the first nonzero self-distance
    i = np.arange(n, dtype=float)
    s = FiniteMetricSpace.from_matrix(np.abs(i[:, None] - i[None, :]) + 1.0)
    rep = validate_metric(s)
    assert not rep.passed
    assert rep.violation == ("identity", (0, 0), 1.0)


def _line_matrix(n):
    i = np.arange(n, dtype=float)
    return np.abs(i[:, None] - i[None, :])


def _inf_in_triples_only(n=2049, far=1000):
    """A line metric whose points below `far` are at distance inf from
    every other point, and a seed whose one sampled pair avoids them
    while its one sampled triple meets one."""
    M = _line_matrix(n)
    M[:far] = M[:, :far] = np.inf
    np.fill_diagonal(M, 0.0)
    def first(seed, width):
        return np.random.default_rng(seed).integers(0, n, (1, width))[0]

    seed = next(s for s in range(1000) if first(s, 2).min() >= far
                and first(s, 3).min() < far and np.ptp(first(s, 3)) > 0)
    return FiniteMetricSpace.from_matrix(M), seed


def test_validate_metric_refuses_non_finite_distances():
    """One rule in every regime: a distance that is not finite raises
    instead of entering the report. A point cloud whose distances
    overflow to inf is refused before, when its space is built."""
    dense = _line_matrix(3)
    dense[0, 1] = dense[1, 0] = np.inf
    diagonal = _line_matrix(2049)
    diagonal[5, 5] = np.inf
    with pytest.raises(MetricError, match="overflow"):
        FiniteMetricSpace.from_points([[1e200, 0.0], [-1e200, 0.0],
                                       [0.0, 1.0]])
    triples, seed = _inf_in_triples_only()
    for space, trials, s in ((FiniteMetricSpace.from_matrix(dense), 100, 0),
                             (FiniteMetricSpace.from_matrix(diagonal), 100, 0),
                             (triples, 1, seed)):
        with pytest.raises(MetricError, match="non-finite distance"):
            validate_metric(space, trials=trials, seed=s)


def _planted_space(n, how, seed=0):
    """The line metric |i - j| on n points with a planted defect in about
    one pair in 200, or a cloud of n random points in the plane."""
    rng = np.random.default_rng(seed)
    if how == "cloud":
        return FiniteMetricSpace.from_points(rng.random((n, 2)))
    i = np.arange(n, dtype=float)
    M = np.abs(i[:, None] - i[None, :])
    mask = np.triu(rng.random((n, n)) < 0.005, 1)
    if how == "asymmetry":
        M[mask] += 1e-6
    else:
        both = mask | mask.T
        M[both] = {"negative": -1.0, "triangle": 4.0 * n,
                   "infinite": np.inf}[how]
    return FiniteMetricSpace.from_matrix(M)


@pytest.mark.parametrize("block", [7, None])
@pytest.mark.parametrize("n, how", [
    (2100, "cloud"), (2100, "asymmetry"), (2100, "negative"),
    (2100, "triangle"), (2100, "infinite"), (500, "cloud"),
    (500, "triangle")])
def test_sampled_checks_match_scalar_loop(monkeypatch, validate_metric_loop,
                                          n, how, block):
    """Index-array draws give the first violation and the counts of the
    loop that drew one pair or triple at a time; blocks of 7 draws cross
    many block edges."""
    if block is not None:
        monkeypatch.setattr(metric_core, "_DRAW_BLOCK", block)
    space = _planted_space(n, how)
    if how == "infinite":
        for check in (validate_metric, validate_metric_loop):
            with pytest.raises(MetricError, match="non-finite"):
                check(space, 3000, 2)
        return
    rep = validate_metric(space, trials=3000, seed=2)
    want = validate_metric_loop(space, 3000, 2)
    assert (rep.violation, rep.pairs_checked, rep.triples_checked) == want
    assert rep.passed == (want[0] is None) == (how == "cloud")


@pytest.mark.parametrize("n", [3, 2049, 2 ** 32 + 1, 2 ** 33])
def test_block_draws_are_the_single_draw_stream(n):
    # the sampled checks draw (m, 2) or (m, 3) integers at once
    block, single = np.random.default_rng(4), np.random.default_rng(4)
    for width in (2, 3, 3, 2):
        got = block.integers(0, n, size=(50, width))
        want = [single.integers(0, n, size=width) for _ in range(50)]
        assert np.array_equal(got, want)


def test_points_csv_roundtrip(tmp_path):
    pts = np.random.default_rng(3).random((17, 2))
    path = tmp_path / "pts.csv"
    save_points_csv(path, pts)
    s = load_points_csv(path)
    assert np.allclose(s.points, pts)


def test_points_csv_malformed_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0.1,0.2\n0.3\n0.5,0.6\n")
    with pytest.raises(MetricError, match="line 2"):
        load_points_csv(path)


@pytest.mark.parametrize("text", ["0,1\n1,0,5\n", "\n0,1\n1,zero\n"])
def test_matrix_csv_malformed_reports_line(tmp_path, text):
    # a ragged or non-numeric row names the file and its line, as for points
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(MetricError, match=r"bad\.csv: line (2|3): "):
        load_matrix_csv(path)


def test_matrix_csv_rejects_nonsquare(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("0.0,1.0\n1.0,0.0\n2.0,3.0\n")
    with pytest.raises(MetricError):
        load_matrix_csv(path)


def test_cloud_whose_distances_overflow_is_refused():
    # the bounding-box diagonal bounds every pairwise distance
    with pytest.raises(MetricError, match="overflow"):
        FiniteMetricSpace.from_points([[1e200], [-1e200]])
    with pytest.raises(MetricError, match="overflow"):
        FiniteMetricSpace.from_points([[1e154, 0.0], [0.0, 1e154]])
    wide = FiniteMetricSpace.from_points([[1e150, 0.0], [-1e150, 0.0]])
    assert diameter(wide) == 2e150
