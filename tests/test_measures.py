import math

import numpy as np
import pytest

from empwass.measures import (DiscreteMeasure, MeasureError, mix, restrict,
                              sampler_from_string)
from empwass.metric_core import FiniteMetricSpace
from empwass.tail_calculus import TailError, TailProfile


@pytest.fixture
def space():
    return FiniteMetricSpace.from_points(np.linspace(0, 1, 6)[:, None])


def test_weights_must_sum_to_one(space):
    with pytest.raises(MeasureError):
        DiscreteMeasure(space, [0, 1], [0.5, 0.6])
    with pytest.raises(MeasureError):
        DiscreteMeasure(space, [0, 1], [1.1, -0.1])


def test_mix_and_restrict(space):
    mu = DiscreteMeasure(space, [0, 1, 2], [0.2, 0.3, 0.5])
    nu = DiscreteMeasure(space, [2, 3], [0.4, 0.6])
    m = mix([(0.5, mu), (0.5, nu)])
    assert m.weights[m.idx == 2].sum() == pytest.approx(0.45)
    r, mass = restrict(mu, [1, 2])
    assert mass == pytest.approx(0.8)
    assert r.weights[r.idx == 1].sum() == pytest.approx(0.3 / 0.8)
    r0, mass0 = restrict(mu, [4])
    assert r0 is None and mass0 == 0.0


def test_sampler_parsing():
    s = sampler_from_string("uniform-cube:3")
    assert s.family == "uniform-cube" and s.d == 3
    s = sampler_from_string("pareto-radial:2.5:2")
    assert s.family == "pareto-radial"
    with pytest.raises(MeasureError):
        sampler_from_string("uniform-cantor:0.6")
    with pytest.raises(MeasureError):
        sampler_from_string("no-such-family:1")


def test_sampler_draw_shapes_and_determinism():
    for text in ("point-mass:2", "uniform-cube:2", "uniform-sphere:3",
                 "uniform-cantor:0.3333333333333333",
                 "pareto-radial:3:2", "exp-radial:2:0.5:2"):
        s = sampler_from_string(text)
        a = s.draw(50, np.random.default_rng(7))
        b = s.draw(50, np.random.default_rng(7))
        assert a.shape[0] == 50
        assert np.array_equal(a, b)


def test_point_mass_and_sphere_geometry():
    s = sampler_from_string("point-mass:3")
    pts = s.draw(10, np.random.default_rng(0))
    assert np.all(pts == 0.0)
    s = sampler_from_string("uniform-sphere:3")
    pts = s.draw(200, np.random.default_rng(0))
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0)


def test_cantor_points_avoid_middle_interval():
    s = sampler_from_string("uniform-cantor:0.3333333333333333")
    pts = s.draw(2000, np.random.default_rng(1)).ravel()
    # first construction step removes the open middle third
    gap = (pts > 1 / 3 + 1e-9) & (pts < 2 / 3 - 1e-9)
    assert not gap.any()


def test_pareto_tail_function():
    s = sampler_from_string("pareto-radial:3:2")
    assert s.tail(0.5) == 1.0
    assert s.tail(2.0) == pytest.approx(2.0 ** -3)
    pts = s.draw(5000, np.random.default_rng(2))
    r = np.linalg.norm(pts, axis=1)
    assert np.all(r >= 1.0 - 1e-12)
    # empirical exceedance at t=2 close to the analytic 1/8
    assert abs(np.mean(r > 2.0) - 0.125) < 0.02


def test_exp_radial_tail_function():
    s = sampler_from_string("exp-radial:2:0.5:2")
    assert s.tail(1.0) == pytest.approx(math.exp(-0.5))
    assert TailProfile.from_sampler(s).H(1.0) == s.tail(1.0)


def test_no_closed_form_tail_is_refused():
    # the uniform square has no closed-form tail about the origin
    s = sampler_from_string("uniform-cube:2")
    assert s.tail(1.0) is None
    with pytest.raises(TailError, match="no closed-form tail"):
        TailProfile.from_sampler(s)


def test_quantile_closed_forms():
    s = sampler_from_string("uniform-cube:1")
    assert s.quantile(0.25) == pytest.approx(0.25)
    assert s.quantile_antideriv(0.5) == pytest.approx(0.125)
    p = sampler_from_string("pareto-radial:2:1")
    # symmetric two-sided construction: right tail mass 2(1-u)
    assert p.quantile(0.75) == pytest.approx((2 * (1 - 0.75)) ** (-1 / 2))
