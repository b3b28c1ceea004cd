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
    """Point sets in d = 1..4 and a radius: uniform points, integer points
    with a radius whose square is an integer (ties exactly at delta), a
    sorted line (each center covers a run of consecutive indices) and a
    row-major grid. Sizes reach past one block of the cover walk."""
    d = draw(st.integers(1, 4))
    n = draw(st.integers(1, 2500))
    shape = draw(st.sampled_from(["uniform", "integer", "sorted-line",
                                  "grid"]))
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
    else:
        side = int(np.ceil(n ** (1.0 / d)))
        axes = np.meshgrid(*[np.arange(side, dtype=float)] * d, indexing="ij")
        pts = np.stack(axes, axis=-1).reshape(-1, d)[:n]
        delta = float(rng.choice([1.0, np.sqrt(2.0), 2.0]))
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
    centers, labels = K.greedy_cover_pts(pts, delta, groups=groups)
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
                (K.greedy_cover_pts(pts, delta, groups=groups), d2, d2 <= r2),
                (K.greedy_cover_mat(D, r, groups=groups), D, D <= r)):
            assert list(got) == _sequential_greedy(close & same)
            masked = np.where(same[:, got], dist[:, got], np.inf)
            assert list(lab) == _brute_argmin(masked)


def test_radius_comparison_uses_relative_epsilon():
    # 0.9 - 0.6 = 0.30000000000000004 in floats; must still count as covered
    pts = np.array([[0.0], [0.3], [0.6], [0.9]])
    assert len(K.greedy_cover_pts(pts, 0.3)) == 2
    assert len(K.greedy_cover_mat(np.abs(pts - pts.T), 0.3)) == 2
