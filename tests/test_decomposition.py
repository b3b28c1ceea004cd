from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from empwass.decomposition import (mixture_bound, ring_decompose, ring_index,
                                   verify_mixture_convexity,
                                   verify_reconstruction)
from empwass.measures import DiscreteMeasure, MeasureError, mix, restrict
from empwass.metric_core import FiniteMetricSpace, MetricError
from empwass.ot_exact import wpp_mcf


def _pair_1d(xa, wa, xb, wb, x0=0.0):
    pts = np.concatenate([[x0], xa, xb])[:, None]
    space = FiniteMetricSpace.from_points(pts)
    mu = DiscreteMeasure(space, 1 + np.arange(len(xa)), wa)
    nu = DiscreteMeasure(space, 1 + len(xa) + np.arange(len(xb)), wb)
    return space, mu, nu


def test_ring_index_breakpoints():
    assert ring_index(0.0) == 1
    assert ring_index(2.0) == 1
    assert ring_index(2.0000001) == 2
    assert ring_index(4.0) == 2
    assert ring_index(4.1) == 3
    assert ring_index(8.0) == 3
    assert ring_index(100.0) == 7  # 2^6 < 100 <= 2^7


def test_ring_decompose_masses_and_lambda():
    # a: mass .5 at d=1 (ring 1), .5 at d=3 (ring 2)
    # b: mass .25 at d=1.5 (ring 1), .75 at d=5 (ring 3)
    space, mu, nu = _pair_1d([1.0, 3.0], [0.5, 0.5],
                             [1.5, 5.0], [0.25, 0.75])
    dec = ring_decompose(mu, nu, x0=0)
    by_i = {r.i: r for r in dec.rings}
    assert by_i[1].mass_a == pytest.approx(0.5)
    assert by_i[1].mass_b == pytest.approx(0.25)
    assert by_i[2].mass_a == pytest.approx(0.5)
    assert by_i[2].mass_b == pytest.approx(0.0)
    assert by_i[3].mass_b == pytest.approx(0.75)
    # lambda = sum of positive parts either way = .25 + .5 = .75
    assert dec.lam == pytest.approx(0.75)
    assert dec.excess_defined
    verify_reconstruction(dec)


def test_ring_decompose_equal_measures_no_excess():
    space, mu, _ = _pair_1d([1.0, 3.0], [0.5, 0.5], [9.0], [1.0])
    dec = ring_decompose(mu, mu, x0=0)
    assert dec.lam == 0.0
    assert not dec.excess_defined
    verify_reconstruction(dec)


def test_ring_decompose_refuses_overflowing_distance():
    # 1e308 - (-1e308) overflows: the cloud is refused when its space is
    # built
    with pytest.raises(MetricError, match="overflow"):
        _pair_1d([1e308], [1.0], [0.0], [1.0], x0=-1e308)
    # an explicit matrix can hold an infinite distance, which has no ring
    space = FiniteMetricSpace.from_matrix(
        [[0.0, np.inf, 1.0], [np.inf, 0.0, 1.0], [1.0, 1.0, 0.0]])
    mu = DiscreteMeasure(space, [1], [1.0])
    nu = DiscreteMeasure(space, [2], [1.0])
    with pytest.raises(MeasureError, match="overflow"):
        ring_decompose(mu, nu, x0=0)


def test_mixture_bound_dominates_exact():
    rng = np.random.default_rng(21)
    for p in (1.0, 2.0):
        for _ in range(10):
            m, n = rng.integers(2, 8, size=2)
            xa = rng.uniform(0.5, 20.0, size=m)
            xb = rng.uniform(0.5, 20.0, size=n)
            wa, wb = rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(n))
            space, mu, nu = _pair_1d(xa, wa, xb, wb)
            dec = ring_decompose(mu, nu, x0=0)
            bound = mixture_bound(dec, p)
            exact = wpp_mcf(mu, nu, p)[0].value
            assert bound.total >= exact - 1e-10
            # total decomposes into the reported terms
            assert bound.total == pytest.approx(
                bound.main + bound.remainder_a + bound.remainder_b, rel=1e-12)


def test_mixture_bound_two_point_hand_example():
    # single atoms in different rings: everything is excess mass, so the
    # bound is the through-the-center cost d(x0,a)^p + d(x0,b)^p for p = 1
    space, mu, nu = _pair_1d([1.0], [1.0], [3.0], [1.0])
    dec = ring_decompose(mu, nu, x0=0)
    assert dec.lam == pytest.approx(1.0)
    b = mixture_bound(dec, 1.0)
    assert b.main == 0.0
    assert b.total == pytest.approx(1.0 + 3.0)


def test_mixture_convexity_inequality():
    rng = np.random.default_rng(22)
    pts = rng.normal(size=(12, 2))
    space = FiniteMetricSpace.from_points(pts)
    mus, nus = [], []
    for k in range(3):
        mus.append(DiscreteMeasure(space, np.arange(6),
                                   rng.dirichlet(np.ones(6))))
        nus.append(DiscreteMeasure(space, 6 + np.arange(6),
                                   rng.dirichlet(np.ones(6))))
    lams = rng.dirichlet(np.ones(3))
    for p in (1.0, 2.0):
        out = verify_mixture_convexity(mus, nus, lams, p)
        assert out["lhs"] <= out["rhs"] + 1e-10
        assert out["gap"] >= -1e-10


def _random_measure(rng, space, atoms):
    idx = rng.choice(atoms, size=int(rng.integers(1, atoms.size + 1)),
                     replace=False)
    return DiscreteMeasure(space, idx, rng.dirichlet(np.full(idx.size, 0.5)))


@st.composite
def _ring_pairs(draw):
    """Two measures around x0 = 0 whose atoms spread over several dyadic
    rings; in 1-D some sit exactly on ring boundaries 2, 4, 8, 16."""
    d = draw(st.integers(1, 2))
    n = draw(st.integers(2, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        radius = 2.0 ** rng.uniform(-2.0, 6.0, n)
    else:
        radius = rng.choice([0.5, 2.0, 3.0, 4.0, 8.0, 16.0], n)
    if d == 1:
        way = rng.choice([-1.0, 1.0], (n, 1))
    else:
        way = rng.standard_normal((n, 2))
        way /= np.linalg.norm(way, axis=1, keepdims=True)
    space = FiniteMetricSpace.from_points(
        np.vstack([np.zeros((1, d)), radius[:, None] * way]))
    atoms = np.arange(space.n)
    return (_random_measure(rng, space, atoms),
            _random_measure(rng, space, atoms),
            draw(st.sampled_from([1.0, 2.0])))


@settings(max_examples=80, deadline=None)
@given(_ring_pairs())
def test_ring_bound_dominates_exact_and_reconstructs(case):
    mu, nu, p = case
    dec = ring_decompose(mu, nu, x0=0)
    verify_reconstruction(dec)
    exact = wpp_mcf(mu, nu, p)[0].value
    assert mixture_bound(dec, p).total >= exact - 1e-9 * max(1.0, exact)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4),
       st.sampled_from([1.0, 2.0]))
def test_mixture_convexity_on_random_mixtures(seed, k, p):
    rng = np.random.default_rng(seed)
    space = FiniteMetricSpace.from_points(rng.random((12, 2)))
    atoms = np.arange(space.n)
    lams = rng.dirichlet(np.ones(k))
    lams[rng.random(k) < 0.3] = 0.0
    if lams.sum() == 0.0:
        lams[0] = 1.0
    lams /= lams.sum()
    out = verify_mixture_convexity(
        [_random_measure(rng, space, atoms) for _ in range(k)],
        [_random_measure(rng, space, atoms) for _ in range(k)], lams, p)
    assert out["gap"] >= -1e-9


def _same_measure(a, b):
    return (np.array_equal(a.idx, b.idx)
            and a.weights.tobytes() == b.weights.tobytes())


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5))
def test_index_arrays_match_dict_loops(measure_loop_oracles, seed, k):
    """mix, restrict and the ring ids agree bit for bit with the
    per-atom dict and set loops they replaced."""
    oracle = measure_loop_oracles
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    space = FiniteMetricSpace.from_points(rng.random((n, 1)))
    atoms = np.arange(n)
    mus = [_random_measure(rng, space, atoms) for _ in range(k)]
    lams = rng.dirichlet(np.full(k, 0.5))
    lams[rng.random(k) < 0.3] = 0.0
    if lams.sum() == 0.0:
        lams[0] = 1.0
    lams /= lams.sum()
    components = list(zip(lams, mus))
    assert _same_measure(mix(components), oracle.mix(components))
    subset = rng.choice(n + 3, size=int(rng.integers(0, n + 4)), replace=False)
    for mu in mus:
        got, want = restrict(mu, subset), oracle.restrict(mu, subset)
        assert got[1] == want[1]
        assert (got[0] is None and want[0] is None) or \
            _same_measure(got[0], want[0])
    edges = 2.0 ** np.arange(1, 12)
    dists = np.concatenate([[0.0], edges, np.nextafter(edges, 0.0),
                            np.nextafter(edges, np.inf),
                            edges * (1.0 + 1e-12), edges * (1.0 - 1e-12),
                            2.0 ** rng.uniform(-3.0, 12.0, 50)])
    assert np.array_equal(ring_index(dists), oracle.ring_ids(dists))
    assert [ring_index(t) for t in dists] == list(oracle.ring_ids(dists))


def _nudge(m, rng, eps):
    """m with one atom's weight moved by eps (kept nonnegative)."""
    w = m.weights.copy()
    w[rng.choice(np.flatnonzero(w + eps >= 0.0))] += eps
    return DiscreteMeasure(m.space, m.idx, w)


def _reconstruction_error(check, dec):
    try:
        check(dec)
    except MeasureError as exc:
        return str(exc)
    return None


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_ring_pairs(), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([0.0, 2e-12, -2e-12]))
def test_verify_reconstruction_matches_dict_loop(measure_loop_oracles, case,
                                                 seed, eps):
    """verify_reconstruction accepts and rejects as the per-atom dict loop
    it replaced, with the same message, on valid decompositions and on
    ones with one weight of one measure moved by +-2e-12."""
    mu, nu, _ = case
    dec = ring_decompose(mu, nu, x0=0)
    rng = np.random.default_rng(seed)
    targets = [f for f in ("mu_a", "mu_b", "excess_a", "excess_b")
               if getattr(dec, f) is not None]
    targets += [(j, f) for j, r in enumerate(dec.rings)
                for f in ("cond_a", "cond_b") if getattr(r, f) is not None]
    target = targets[rng.integers(len(targets))]
    if eps and isinstance(target, str):
        dec = replace(dec, **{target: _nudge(getattr(dec, target), rng, eps)})
    elif eps:
        j, f = target
        rings = list(dec.rings)
        rings[j] = replace(rings[j], **{f: _nudge(getattr(rings[j], f),
                                                  rng, eps)})
        dec = replace(dec, rings=tuple(rings))
    got = _reconstruction_error(verify_reconstruction, dec)
    assert got == _reconstruction_error(
        measure_loop_oracles.verify_reconstruction, dec)
    if not eps:
        assert got is None
    elif target in ("mu_a", "mu_b"):
        assert got is not None
