"""Each kernel against an independent oracle or its own definition."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from empwass import _kernels as K


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(42)


def _rational(rng, k, total):
    """k positive integer counts summing to total."""
    return 1 + rng.multinomial(total - k, np.full(k, 1.0 / k))


def _grid_points(rng, n, d):
    # small integer grid: exact ties in distance and duplicate points
    return rng.integers(0, 4, size=(n, d)).astype(float)


def _sequential_greedy(within):
    """Brute-force greedy by definition: point i is chosen iff no earlier
    chosen point is within the radius (within[i, j] says it is)."""
    chosen = []
    for i in range(within.shape[0]):
        if not any(within[i, c] for c in chosen):
            chosen.append(i)
    return chosen


def _brute_argmin(d):
    """Row-wise argmin with ties to the earliest column, by a plain loop."""
    out = []
    for row in d:
        best = 0
        for c in range(1, len(row)):
            if row[c] < row[best]:
                best = c
        out.append(best)
    return out


def test_staircase_matches_assignment_oracle(rng, assignment_oracle):
    for _ in range(20):
        na, nb = rng.integers(1, 8, size=2)
        total = 12
        ka, kb = _rational(rng, na, total), _rational(rng, nb, total)
        # integer positions give tied costs and duplicate atoms
        xa = np.sort(rng.integers(0, 5, size=na).astype(float))
        xb = np.sort(rng.integers(0, 5, size=nb).astype(float))
        ca, cb = np.cumsum(ka) / total, np.cumsum(kb) / total
        ca[-1] = cb[-1] = 1.0
        for p in (1.0, 2.0, 3.5):
            C = np.abs(np.subtract.outer(xa, xb)) ** p
            want = assignment_oracle(C, ka, kb)
            got = K.wpp_staircase(xa, ca, xb, cb, p)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_transport_matches_assignment_oracle(rng, assignment_oracle):
    for trial in range(40):
        m, n = rng.integers(2, 12, size=2)
        total = 24
        ka, kb = _rational(rng, m, total), _rational(rng, n, total)
        a, b = ka / total, kb / total
        d = int(rng.integers(1, 4))
        if trial % 2:
            pa, pb = _grid_points(rng, m, d), _grid_points(rng, n, d)
        else:
            pa, pb = rng.random((m, d)), rng.random((n, d))
        for p in (1.0, 2.0):
            C = np.linalg.norm(pa[:, None] - pb[None], axis=2) ** p
            tol = 1e-12 * max(1.0, float(C.max()))
            X, status = K.transport_simplex(a, b, C, tol, 4000 * (m + n + 8))
            assert status == 0
            assert X.min() >= 0.0
            np.testing.assert_allclose(X.sum(axis=1), a, atol=1e-14)
            np.testing.assert_allclose(X.sum(axis=0), b, atol=1e-14)
            # a basic solution has at most m + n - 1 positive cells
            assert np.count_nonzero(X) <= m + n - 1
            want = assignment_oracle(C, ka, kb)
            assert np.sum(X * C) == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_transport_iteration_cap_reports_failure(rng):
    m = 20
    a = np.full(m, 1.0 / m)
    C = rng.random((m, m))
    _X, status = K.transport_simplex(a, a, C, 1e-12, 1)
    assert status == 1


def test_transport_rejects_uncertified_optimum(rng, monkeypatch):
    # HiGHS reports "optimal" for the reversed costs; that plan and its
    # duals cannot pass the reduced-cost certificate for C itself.
    # transport_simplex imports linprog from scipy.optimize at each call,
    # so the patch goes there.
    import scipy.optimize
    solve = scipy.optimize.linprog
    monkeypatch.setattr(scipy.optimize, "linprog",
                        lambda c, **kw: solve(c.max() - c, **kw))
    m = 6
    a = np.full(m, 1.0 / m)
    C = rng.random((m, m))
    _X, status = K.transport_simplex(a, a, C, 1e-12, 4000 * (2 * m + 8))
    assert status == 1


def test_transport_meets_marginals_with_tiny_weight():
    # rows 2 and 3 have the same costs and row 3 a weight of 8.5e-8: at
    # HiGHS's default primal tolerance (1e-7) its mass went to row 2, so
    # the plan missed a row sum by 8.5e-8 at the optimal cost
    a = np.array([0.251759719268362, 0.466593111792081, 0.24402420171510655,
                  8.45048412230074e-08, 0.03762288271960932])
    b = np.array([0.17195252943743927, 0.0016191027521908737,
                  0.82642836781037])
    C = np.array([[0.0, 2.5, 0.0], [2.5, 0.0, 2.5], [0.0, 2.5, 0.0],
                  [0.0, 2.5, 0.0], [0.5, 2.0, 0.5]])
    X, status = K.transport_simplex(a, b, C, 1e-12, 4000 * 16)
    assert status == 0
    assert X.min() >= -1e-9
    assert np.abs(X.sum(axis=1) - a).max() <= 1e-9
    assert np.abs(X.sum(axis=0) - b).max() <= 1e-9


def test_greedy_cover_matches_definition(rng):
    for trial in range(20):
        n = int(rng.integers(5, 120))
        d = int(rng.integers(1, 4))
        if trial % 2:
            pts = _grid_points(rng, n, d)
            # squared radius is an integer, so ties at exactly delta occur
            r2 = int(rng.integers(1, 6))
            delta = float(np.sqrt(r2))
        else:
            pts = rng.random((n, d))
            delta = float(rng.uniform(0.05, 0.6))
            r2 = delta * delta
        d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
        within = d2 <= r2
        want = _sequential_greedy(within)
        centers = list(K.greedy_cover_pts(pts, delta))
        assert centers == want
        assert within[:, centers].any(axis=1).all()
        if trial % 2:
            # integer distance matrix: exact ties against an integer delta
            D = np.abs(pts[:, None, :] - pts[None, :, :]).sum(-1)
            r = float(rng.integers(1, 4))
            mat_within = D <= r
        else:
            D, r = np.sqrt(d2), delta
            mat_within = D <= r
        centers = list(K.greedy_cover_mat(D, r))
        assert centers == _sequential_greedy(mat_within)
        assert mat_within[:, centers].any(axis=1).all()


@st.composite
def _cover_inputs(draw):
    """Point sets in d = 1..7 and a radius: uniform points, integer points
    with a radius whose square is an integer (ties exactly at delta), a
    sorted line (each center covers a run of consecutive indices), a
    row-major grid, and shapes aimed at the cover's cell grid: a lattice
    offset by 1e8 with delta a few ulps of the offset, a cloud scaled by
    1e-150, one axis stretched to 2e9, clusters with delta far below
    extent / 2^20 (the cap on cells per axis) and delta above the extent.
    Sizes reach past one block of the cover walk."""
    d = draw(st.integers(1, 7))
    n = draw(st.integers(1, 2500))
    shape = draw(st.sampled_from(["uniform", "integer", "sorted-line",
                                  "grid", "offset", "tiny", "stretched",
                                  "clusters", "wide"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if shape == "uniform":
        pts = rng.random((n, d))
        delta = float(rng.choice([0.01, 0.05, 0.2, 0.6]))
    elif shape == "integer":
        pts = rng.integers(0, 6, (n, d)).astype(float)
        delta = float(np.sqrt(rng.integers(1, 6)))
    elif shape == "sorted-line":
        pts = np.sort(rng.random(n))[:, None] * np.ones(d)
        delta = float(rng.choice([1e-3, 1e-2, 0.1]))
    elif shape == "grid":
        side = int(np.ceil(n ** (1.0 / d)))
        axes = np.meshgrid(*[np.arange(side, dtype=float)] * d, indexing="ij")
        pts = np.stack(axes, axis=-1).reshape(-1, d)[:n]
        delta = float(rng.choice([1.0, np.sqrt(2.0), 2.0]))
    elif shape == "offset":
        # 2^-26 is one ulp at 1e8, so every coordinate is exact; a long
        # lattice puts pairs exactly delta apart across many cell borders
        span = int(rng.choice([8, 4096]))
        pts = 1e8 + rng.integers(0, span, (n, d)) * 2.0 ** -26
        delta = float(rng.integers(1, 4)) * 2.0 ** -26
    elif shape == "tiny":
        pts = rng.random((n, d)) * 1e-150
        delta = float(rng.choice([0.01, 0.05, 0.2])) * 1e-150
    elif shape == "stretched":
        pts = rng.random((n, d))
        pts[:, rng.integers(d)] += rng.integers(0, 3, n) * 1e9
        delta = float(rng.choice([0.05, 0.2, 0.6]))
    elif shape == "clusters":
        base = rng.random((max(1, n // 4), d))
        pts = base[rng.integers(0, base.shape[0], n)] \
            + rng.integers(0, 3, (n, d)) * 1e-8
        delta = float(rng.choice([1e-8, 1.5e-8, 3e-8]))
    else:
        pts = rng.random((n, d))
        delta = float(rng.choice([1.5, 10.0, 1e300]) * np.sqrt(d))
    return pts, delta


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_cover_inputs(), st.data())
def test_greedy_cover_matches_oracle(greedy_cover_oracle, case, data):
    pts, delta = case
    want = greedy_cover_oracle(pts, delta)
    assert np.array_equal(K.greedy_cover_pts(pts, delta), want)
    stop = data.draw(st.integers(1, want.size + 1))
    assert np.array_equal(K.greedy_cover_pts(pts, delta, stop=stop),
                          greedy_cover_oracle(pts, delta, stop=stop))
    # grouped walk: each group's centers are the greedy cover of the group
    # alone, and each point's label is its nearest center of its group
    ngroups = data.draw(st.integers(1, 4))
    groups = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))) \
        .integers(0, ngroups, pts.shape[0])
    centers, labels = K.greedy_cover_pts(pts, delta, groups=groups,
                                             labels=True)
    members = [np.flatnonzero(groups == g) for g in range(ngroups)]
    assert np.array_equal(centers, np.sort(np.concatenate(
        [m[greedy_cover_oracle(pts[m], delta)] for m in members])))
    if ngroups == 1:
        assert np.array_equal(centers, want)
    for s in range(0, pts.shape[0], 256):
        diff = pts[s:s + 256, None, :] - pts[centers][None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        same = groups[s:s + 256, None] == groups[centers][None, :]
        # np.argmin takes the first, so the lowest, of tied centers
        assert np.array_equal(labels[s:s + 256],
                              np.argmin(np.where(same, d2, np.inf), axis=1))


def test_greedy_packing_matches_definition(rng):
    for trial in range(20):
        n = int(rng.integers(5, 120))
        d = int(rng.integers(1, 4))
        if trial % 2:
            pts = _grid_points(rng, n, d)
            s2 = int(rng.integers(1, 6))
            sep = float(np.sqrt(s2))
        else:
            pts = rng.random((n, d))
            sep = float(rng.uniform(0.05, 0.6))
            s2 = sep * sep
        d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
        D = np.abs(pts[:, None, :] - pts[None, :, :]).sum(-1)
        r = float(rng.integers(1, 4)) if trial % 2 else sep
        for chosen, close in ((K.greedy_packing_pts(pts, sep), d2 <= s2),
                              (K.greedy_cover_mat(D, r), D <= r)):
            chosen = list(chosen)
            sub = close[np.ix_(chosen, chosen)]
            # pairwise separated: only the diagonal is within sep
            assert not (sub & ~np.eye(len(chosen), dtype=bool)).any()
            # maximal: every other point is within sep of a chosen one
            assert close[:, chosen].any(axis=1).all()
            assert chosen == _sequential_greedy(close)


def test_assign_nearest_matches_brute_force(rng):
    for trial in range(20):
        n = int(rng.integers(5, 120))
        d = int(rng.integers(1, 4))
        pts = _grid_points(rng, n, d) if trial % 2 else rng.random((n, d))
        centers = pts[rng.choice(n, size=min(6, n), replace=False)]
        d2 = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(-1)
        assert list(K.assign_nearest_pts(pts, centers)) == _brute_argmin(d2)
        # the grouped cover walks label each point with its nearest center
        # of its own group, ties to the lowest center
        groups = rng.integers(0, 3, n)
        same = groups[:, None] == groups[None, :]
        d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
        if trial % 2:
            # integer squared radius and integer L1 distances: exact ties
            r2 = int(rng.integers(1, 6))
            delta = float(np.sqrt(r2))
            D = np.abs(pts[:, None, :] - pts[None, :, :]).sum(-1)
            r = float(rng.integers(1, 4))
        else:
            delta = r = float(rng.uniform(0.05, 0.6))
            r2, D = delta * delta, np.sqrt(d2)
        for (got, lab), dist, close in (
                (K.greedy_cover_pts(pts, delta, groups=groups, labels=True),
                 d2, d2 <= r2),
                (K.greedy_cover_mat(D, r, groups=groups, labels=True),
                 D, D <= r)):
            assert list(got) == _sequential_greedy(close & same)
            masked = np.where(same[:, got], dist[:, got], np.inf)
            assert list(lab) == _brute_argmin(masked)


def test_radius_comparison_uses_relative_epsilon():
    # 0.9 - 0.6 = 0.30000000000000004 in floats; must still count as covered
    pts = np.array([[0.0], [0.3], [0.6], [0.9]])
    assert len(K.greedy_cover_pts(pts, 0.3)) == 2
    assert len(K.greedy_cover_mat(np.abs(pts - pts.T), 0.3)) == 2


def _matrix_greedy(D, r, stop=None):
    """The one-at-a-time matrix cover: the lowest uncovered index is the
    next center and covers every j with D[c, j] <= r * (1 + 1e-12)."""
    covered = np.zeros(D.shape[0], bool)
    centers = []
    while len(centers) != stop and not covered.all():
        c = int(np.argmin(covered))
        centers.append(c)
        covered |= D[c] <= r * (1.0 + 1e-12)
        covered[c] = True
    return np.asarray(centers, np.int64)


def test_labels_are_minus_one_where_no_center_of_the_group_covers():
    # a stop of one center leaves group 1 ({5, 5.1}) without a center, so
    # its points get no cell, not the cell of group 0's center
    x = np.array([0.0, 0.1, 5.0, 5.1])
    groups = np.array([0, 0, 1, 1])
    for centers, lab in (
            K.greedy_cover_mat(np.abs(x[:, None] - x[None, :]), 0.5, stop=1,
                               groups=groups, labels=True),
            K.greedy_cover_pts(x[:, None], 0.5, stop=1, groups=groups,
                               labels=True)):
        assert list(centers) == [0] and list(lab) == [0, 0, -1, -1]
    # a per-group stop of 0 leaves its group uncovered the same way
    for centers, lab in (
            K.greedy_cover_mat(np.abs(x[:, None] - x[None, :]), 0.5,
                               stop=np.array([1, 0]), groups=groups,
                               labels=True),
            K.greedy_cover_pts(x[:, None], 0.5, stop=np.array([1, 0]),
                               groups=groups, labels=True)):
        assert list(centers) == [0] and list(lab) == [0, 0, -1, -1]


def test_matrix_center_covers_itself_above_a_diagonal_of_delta():
    # not a metric: the diagonal entries of 0 and 3 exceed their group's
    # radius, yet each becomes a center, covers itself and labels itself;
    # the cross-group entries of 0.1 cover nothing, and group 1's stop of
    # one center leaves 5 without a cell
    D = np.array([[2.0, 0.5, 3.0, 0.1, 0.1, 0.1],
                  [0.5, 0.0, 0.9, 0.1, 0.1, 0.1],
                  [3.0, 0.9, 0.0, 0.1, 0.1, 0.1],
                  [0.1, 0.1, 0.1, 2.5, 0.2, 5.0],
                  [0.1, 0.1, 0.1, 0.2, 0.0, 5.0],
                  [0.1, 0.1, 0.1, 5.0, 5.0, 0.0]])
    groups = np.array([0, 0, 0, 1, 1, 1])
    centers, lab = K.greedy_cover_mat(D, np.array([1.0, 2.0]),
                                      stop=np.array([3, 1]), groups=groups,
                                      labels=True)
    assert list(centers) == [0, 2, 3]
    assert list(lab) == [0, 0, 1, 2, 2, -1]


def _grouped_oracle(cover, dist, within, groups, radii, stops):
    """Centers and labels of a walk with per-group radius and stop, from
    each group's cover alone: ``cover(members, radius, stop)`` gives the
    group's centers (member positions), ``dist`` and ``within`` the
    label distances and the cover test between points and centers."""
    per_group = []
    for g in range(radii.size):
        m = np.flatnonzero(groups == g)
        per_group.append(m[cover(m, radii[g], stops[g])] if m.size
                         else np.zeros(0, np.int64))
    centers = np.sort(np.concatenate(per_group))
    labels = np.full(groups.size, -1, np.int64)
    for s in range(0, groups.size if centers.size else 0, 256):
        rows = np.arange(s, min(s + 256, groups.size))
        same = groups[rows, None] == groups[centers][None, :]
        d = np.where(same, dist(rows, centers), np.inf)
        hit = (same & within(rows, centers, radii[groups[rows]])).any(axis=1)
        # np.argmin takes the first, so the lowest, of tied centers
        labels[rows[hit]] = np.argmin(d[hit], axis=1)
    return centers, labels


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_cover_inputs(), st.data())
@np.errstate(over="ignore")   # the "wide" radii square past the float range
def test_per_group_radius_and_stop_match_oracle(greedy_cover_oracle, case,
                                                data):
    """A walk with a radius and a stop per group equals the greedy cover
    of each group alone, with -1 labels where a stop left a point
    uncovered; without groups it is the oracle on the whole set."""
    pts, delta = case
    n = pts.shape[0]
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    ngroups = data.draw(st.integers(1, 4))
    if data.draw(st.booleans()):
        groups = rng.integers(0, ngroups, n)
    else:   # contiguous groups: each a run of a sorted line is a chain
        groups = np.sort(rng.integers(0, ngroups, n))
    radii = delta * rng.choice([0.25, 0.5, 1.0, 2.0], ngroups)
    stops = rng.integers(0, 12, ngroups)
    if data.draw(st.booleans()):
        stops[:] = n   # no group reaches its stop

    def pts_dist(rows, cols):
        diff = pts[rows][:, None, :] - pts[cols][None, :, :]
        return np.einsum("ijk,ijk->ij", diff, diff)

    def pts_within(rows, cols, r):
        return pts_dist(rows, cols) <= (r * r * (1.0 + 1e-12))[:, None]

    centers, labels = K.greedy_cover_pts(pts, radii, stop=stops,
                                         groups=groups, labels=True)
    want_c, want_l = _grouped_oracle(
        lambda m, r, s: greedy_cover_oracle(pts[m], r, stop=s),
        pts_dist, pts_within, groups, radii, stops)
    assert np.array_equal(centers, want_c)
    assert np.array_equal(labels, want_l)
    assert np.array_equal(
        K.greedy_cover_pts(pts, radii, stop=stops, groups=groups), want_c)
    # ungrouped, with labels: one group under the scalar radius and stop
    stop = int(stops[0]) or None
    centers, labels = K.greedy_cover_pts(pts, delta, stop=stop, labels=True)
    want_c, want_l = _grouped_oracle(
        lambda m, r, s: greedy_cover_oracle(pts[m], r, stop=s),
        pts_dist, pts_within, np.zeros(n, np.int64), np.array([delta]),
        [stop])
    assert np.array_equal(centers, want_c)
    assert np.array_equal(labels, want_l)
    if n <= 300:
        D = np.sqrt(pts_dist(np.arange(n), np.arange(n)))
        # grouped with per-group radius and stop, then ungrouped with the
        # scalar radius and stop, as for the points above
        for got, grp, rad, stp in (
                (K.greedy_cover_mat(D, radii, stop=stops, groups=groups,
                                    labels=True), groups, radii, stops),
                (K.greedy_cover_mat(D, delta, stop=stop, labels=True),
                 np.zeros(n, np.int64), np.array([delta]), [stop])):
            want_c, want_l = _grouped_oracle(
                lambda m, r, s: _matrix_greedy(D[np.ix_(m, m)], r, stop=s),
                lambda rows, cols: D[np.ix_(rows, cols)],
                lambda rows, cols, r: (D[np.ix_(cols, rows)].T
                                       <= (r * (1.0 + 1e-12))[:, None]),
                grp, rad, stp)
            assert np.array_equal(got[0], want_c)
            assert np.array_equal(got[1], want_l)


@st.composite
def _degenerate_densities(draw):
    """Point sets whose cell occupancy is far from even, so the first
    block of a walk, sized from the mean occupancy of the neighbour grid,
    is far from the blocks after it: a few locations repeated many times
    (coincident points), one dense cluster among sparse points, and three
    groups whose spreads differ by factors of 1,000 (``groups`` is then
    set, else None)."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 3000))
    shape = draw(st.sampled_from(["coincident", "cluster", "mixed-groups"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    groups = None
    if shape == "coincident":
        base = rng.random((int(rng.integers(1, 5)), d))
        pts = base[rng.integers(0, base.shape[0], n)]
        delta = float(rng.choice([1e-3, 0.1, 0.5]))
    elif shape == "cluster":
        pts = rng.random((n, d))
        dense = rng.random(n) < rng.choice([0.5, 0.9, 0.99])
        pts[dense] = pts[0] + 1e-4 * rng.random((int(dense.sum()), d))
        delta = float(rng.choice([1e-4, 1e-3, 0.05]))
    else:
        groups = rng.integers(0, 3, n)
        pts = rng.random((n, d)) * 1e-3 ** groups[:, None]
        delta = float(rng.choice([1e-4, 1e-2]))
    return pts, delta, groups


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_degenerate_densities())
def test_first_block_sizing_matches_oracle_on_degenerate_densities(
        greedy_cover_oracle, case):
    """Centers and labels equal each group's one-at-a-time cover whatever
    the pair budget: a first block of one tentative, today's, and one that
    takes in every point at once."""
    pts, delta, groups = case
    n = pts.shape[0]
    grp = np.zeros(n, np.int64) if groups is None else groups
    ngroups = int(grp.max()) + 1

    def pts_dist(rows, cols):
        diff = pts[rows][:, None, :] - pts[cols][None, :, :]
        return np.einsum("ijk,ijk->ij", diff, diff)

    want_c, want_l = _grouped_oracle(
        lambda m, r, s: greedy_cover_oracle(pts[m], r),
        pts_dist,
        lambda rows, cols, r: pts_dist(rows, cols)
        <= (r * r * (1.0 + 1e-12))[:, None],
        grp, np.full(ngroups, delta), [None] * ngroups)
    budget = K._BLOCK_PAIRS
    try:
        for K._BLOCK_PAIRS in (budget, 1, 1 << 24):
            centers, labels = K.greedy_cover_pts(pts, delta, groups=groups,
                                                 labels=True)
            assert np.array_equal(centers, want_c), K._BLOCK_PAIRS
            assert np.array_equal(labels, want_l), K._BLOCK_PAIRS
            if n <= 300:
                D = np.sqrt(pts_dist(np.arange(n), np.arange(n)))
                got = K.greedy_cover_mat(D, delta, groups=groups)
                assert np.array_equal(got, np.sort(np.concatenate(
                    [np.flatnonzero(grp == g)[_matrix_greedy(
                        D[np.ix_(grp == g, grp == g)], delta)]
                     for g in np.unique(grp)])))
    finally:
        K._BLOCK_PAIRS = budget
