import hashlib
import json
import math
import pickle
import re

import numpy as np
import pytest
from scipy import integrate

from empwass import measures
from empwass.mc_harness import ExperimentSpec
from empwass.measures import (DiscreteMeasure, MeasureError,
                              SyntheticSampler, mix, restrict,
                              sampler_from_string)
from empwass.metric_core import FiniteMetricSpace


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


@pytest.mark.parametrize("spec, reason", [
    # a field the family does not take was dropped: this ran as the 1-D
    # dust, not the 6-D product dust the spec names
    ("uniform-cantor:0.25:6", "not uniform-cantor[:ratio]"),
    ("uniform-cube:2:7", "not uniform-cube[:d]"),
    ("point-mass:1:zzz", "not point-mass[:d]"),
    ("pareto-radial", "not pareto-radial:a[:d]"),
    ("exp-radial:1", "not exp-radial:kappa:lam[:d]"),
    ("uniform-sphere:2.5", "invalid literal"),
    # infinite parameters ran the whole experiment, then failed to write
    ("pareto-radial:inf:1", "finite a > 0"),
    ("exp-radial:1e400:1", "finite kappa > 0, lam > 0"),
    ("exp-radial:1:inf", "finite kappa > 0, lam > 0"),
])
def test_sampler_spec_refuses_what_it_would_not_run(spec, reason):
    with pytest.raises(MeasureError, match=re.escape(reason)):
        sampler_from_string(spec)


def test_sampler_spec_defaults():
    assert sampler_from_string("uniform-sphere") == SyntheticSampler(
        "uniform-sphere", d=2)
    assert sampler_from_string("uniform-cantor") == SyntheticSampler(
        "uniform-cantor", ratio=1.0 / 3.0)
    assert sampler_from_string("exp-radial:2:0.5") == SyntheticSampler(
        "exp-radial", kappa=2.0, lam=0.5)


def test_sampler_fields_are_the_spec_fields():
    # the spec table fills the defaults of both constructors
    assert SyntheticSampler("uniform-sphere") == sampler_from_string(
        "uniform-sphere")
    assert SyntheticSampler("uniform-sphere").d == 2
    s = SyntheticSampler("uniform-cantor")
    assert (s.d, s.ratio, s.a) == (1, 1.0 / 3.0, None)
    # a field the family does not read is refused, not ignored
    for family, kw, reason in [
            ("uniform-cantor", {"d": 6}, "uniform-cantor takes no d"),
            ("uniform-cube", {"a": 5.0}, "uniform-cube takes no a"),
            ("point-mass", {"ratio": 0.25}, "point-mass takes no ratio"),
            ("pareto-radial", {"a": 3.0, "lam": 1.0},
             "pareto-radial takes no lam"),
            ("pareto-radial", {}, "pareto-radial needs a"),
            ("exp-radial", {"kappa": 1.0}, "exp-radial needs lam")]:
        with pytest.raises(MeasureError, match=f"^{re.escape(reason)}$"):
            SyntheticSampler(family, **kw)


def test_sampler_fields_take_the_spec_types():
    # a set field is cast to its spec type, so equal samplers write equal
    # metadata; a d that is no integer is refused before any draw
    assert SyntheticSampler("pareto-radial", a=3).metadata() == \
        sampler_from_string("pareto-radial:3").metadata()
    assert json.dumps(SyntheticSampler("pareto-radial", a=3).metadata()) == \
        json.dumps(sampler_from_string("pareto-radial:3").metadata())
    cube = SyntheticSampler("uniform-cube", d=2.0)
    assert cube == sampler_from_string("uniform-cube:2")
    assert type(cube.d) is int
    assert cube.draw(3, np.random.default_rng(0)).shape == (3, 2)
    assert type(SyntheticSampler("exp-radial", kappa=np.int64(1),
                                 lam=1).lam) is float
    for family, kw, reason in [
            ("uniform-cube", {"d": 2.5}, "uniform-cube d must be an integer"),
            ("uniform-sphere", {"d": math.inf},
             "uniform-sphere d must be an integer"),
            ("pareto-radial", {"a": "3"}, "pareto-radial a must be a number")]:
        with pytest.raises(MeasureError, match=f"^{re.escape(reason)}, got"):
            SyntheticSampler(family, **kw)


def test_atom_indices_distinct_then_in_range(space):
    # distinctness is checked before range, each with its own message
    with pytest.raises(MeasureError, match="^atom indices must be distinct$"):
        DiscreteMeasure(space, [3, 0, 3], [0.2, 0.3, 0.5])
    with pytest.raises(MeasureError, match="^atom indices must be distinct$"):
        DiscreteMeasure(space, [-1, 99, -1], [0.2, 0.3, 0.5])
    for idx in ([0, -1], [1, space.n]):
        with pytest.raises(MeasureError, match="^atom index out of range$"):
            DiscreteMeasure(space, idx, [0.5, 0.5])


# spec -> one sha256 over draw, tail, cdf, quantile, quantile_antideriv
# (b"None" where absent) and the metadata JSON, as computed before the
# spec table owned the sampler defaults
_SAMPLER_BYTES = [
    ("point-mass:1",
     "51c33bce2706fd5d64bbddc09e4e034edb6ab957e1668120447e2a8c9b9d6471"),
    ("point-mass:2",
     "8766640a6cf79a4fe55f1a33d5ed74b5db396fa03dc867cdd3ae3b39bf1e13b0"),
    ("uniform-cube:1",
     "8e1a7cb1798e339abbeda1bc85cc8bad67ad6bd5bf253e2cfc79ddeb55a67906"),
    ("uniform-cube:3",
     "8a70cc1934f7a2857100f847cf365886b0371757d350370e5406282f444586db"),
    ("uniform-cantor",
     "8e3389c081c8998e8d46b1562a74b1e3f83f900866f31613b9515d01fce04d42"),
    ("uniform-cantor:0.25",
     "5d401c9d8f357ab1172f67ce7f7b51d592dc722db0311fc52889f046597da517"),
    ("uniform-sphere",
     "c2ea01448e4d2c631f112751dd0cb424bcef99db0e05d53cd23c6f986dd47fea"),
    ("uniform-sphere:1",
     "b78cb1a1a50f68f02569eb1773a0321a3bdcd4e0cc122b162dba51acea933977"),
    ("uniform-sphere:3",
     "28de48e84dad5a87aeb3273f80233da36b79d93e602a475353eec82f0f7107b1"),
    ("pareto-radial:3:1",
     "ac05ad6ef7be9471afc90298197c976faff7a15de7a514356a90fff90fd8f6ca"),
    ("pareto-radial:2.5:2",
     "a3b02c7fd285ebb7240e62724e6f4492dd9fa65e9bab92c65514f56a26b36160"),
    ("pareto-radial:0.5:1",
     "4efee9115869be5179d8cb34f4ab9a909ae2afb732d302ee49f8ad4f774a0a94"),
    ("exp-radial:2:0.5",
     "0c1e50d25f6d9694cfaf6eef80923d2d53dccda3b06836234d56cd27fee05203"),
    ("exp-radial:1:0.5:2",
     "c5f4b1aefe1b85573771b5717f24c33d295469f914a00cc83cdea5a766f4202c"),
]


@pytest.mark.parametrize("spec, want", _SAMPLER_BYTES,
                         ids=[r[0] for r in _SAMPLER_BYTES])
def test_sampler_bytes_pinned(spec, want):
    s = sampler_from_string(spec)
    grid = np.linspace(-3.0, 5.0, 1001)
    us = np.linspace(0.0, 1.0, 1001)
    h = hashlib.sha256()
    with np.errstate(all="ignore"):   # the grids reach 0 and the poles
        values = (s.draw(257, np.random.default_rng(3)), s.tail(grid),
                  s.cdf(grid), s.quantile(us), s.quantile_antideriv(us))
    for v in values:
        h.update(b"None" if v is None else np.asarray(v, dtype=float).tobytes())
    h.update(json.dumps(s.metadata(), sort_keys=True).encode())
    assert h.hexdigest() == want


def test_sampler_draw_shapes_and_determinism():
    for text in ("point-mass:2", "uniform-cube:2", "uniform-sphere:3",
                 "uniform-cantor:0.3333333333333333",
                 "pareto-radial:3:2", "exp-radial:2:0.5:2"):
        s = sampler_from_string(text)
        a = s.draw(50, np.random.default_rng(7))
        b = s.draw(50, np.random.default_rng(7))
        assert a.shape[0] == 50
        assert np.array_equal(a, b)


# one 1-D spec or more of every family
_LINE_SPECS = ["point-mass:1", "uniform-cube:1", "uniform-cantor",
               "uniform-cantor:0.25", "uniform-sphere:1", "pareto-radial:3:1",
               "pareto-radial:0.5:1", "exp-radial:2:0.5", "exp-radial:1:3"]


def test_every_family_has_line_specs():
    assert {s.split(":")[0] for s in _LINE_SPECS} == set(measures._FAMILIES)


@pytest.mark.parametrize("spec", _LINE_SPECS + ["uniform-cube:3",
                                                "uniform-sphere:3",
                                                "pareto-radial:2.5:2"])
def test_samplers_and_specs_survive_pickling(spec):
    # the process pool pickles each spec: a sampler holds its fields only,
    # and its family's code stays in the table
    sampler = sampler_from_string(spec)
    exp = ExperimentSpec(sampler, 1.0, "mcf-two-sample", (8, 16), 3, 0)
    assert pickle.loads(pickle.dumps(sampler)) == sampler
    back = pickle.loads(pickle.dumps(exp))
    assert back == exp
    assert (back.sampler.draw(64, np.random.default_rng(5)).tobytes()
            == sampler.draw(64, np.random.default_rng(5)).tobytes())


@pytest.mark.parametrize("spec", _LINE_SPECS)
def test_line_slots_agree(spec):
    # the draw's Kolmogorov-Smirnov gap to cdf, taken on both sides of
    # every atom, is below the 0.1 % critical value 1.95 / sqrt(n); and
    # cdf(quantile(u)) >= u wherever the family has a quantile
    s = sampler_from_string(spec)
    n = 4096
    xs, counts = np.unique(s.draw(n, np.random.default_rng(11))[:, 0],
                           return_counts=True)
    right = np.cumsum(counts) / n
    gap = max(np.abs(right - s.cdf(xs)).max(),
              np.abs(right - counts / n
                     - s.cdf(np.nextafter(xs, -np.inf))).max())
    assert gap * math.sqrt(n) < 1.95
    if s.has("quantile"):
        us = np.linspace(0.0, 1.0, 1001)
        with np.errstate(over="ignore"):   # the poles of heavy tails
            assert np.all(s.cdf(s.quantile(us)) >= us - 1e-12)
    else:
        assert s.quantile([0.5]) is None


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


def test_no_closed_form_tail_is_refused():
    # the uniform square has no closed-form tail about the origin
    s = sampler_from_string("uniform-cube:2")
    assert s.tail(1.0) is None
    with pytest.raises(MeasureError, match="no closed-form tail"):
        s.tail_integral(0.5, 1.0)
    with pytest.raises(MeasureError, match="no closed-form tail"):
        s.weak_moment(1.0)


def test_quantile_closed_forms():
    s = sampler_from_string("uniform-cube:1")
    assert s.quantile(0.25) == pytest.approx(0.25)
    assert s.quantile_antideriv(0.5) == pytest.approx(0.125)
    p = sampler_from_string("pareto-radial:2:1")
    # symmetric two-sided construction: right tail mass 2(1-u)
    assert p.quantile(0.75) == pytest.approx((2 * (1 - 0.75)) ** (-1 / 2))


def test_pareto_closed_forms_against_quadrature():
    s = sampler_from_string("pareto-radial:3:1")
    # strong p-th moment: a/(a-p) for p < a, infinite otherwise
    assert s.strong_moment(1.0) == pytest.approx(1.5)
    assert s.strong_moment(3.0) == math.inf
    # weak moment: sup t^q min(1, t^-a) = 1 for q <= a, infinite above
    assert s.weak_moment(2.0) == pytest.approx(1.0)
    assert s.weak_moment(3.5) == math.inf
    # I-integral vs numeric quadrature of H^s d(t^p)
    sexp, p = 0.7, 1.0
    want, _ = integrate.quad(
        lambda t: min(1.0, t ** -3.0) ** sexp * t ** (p - 1), 0, np.inf,
        limit=200)
    got, _ = s.tail_integral(sexp, p)
    assert got == pytest.approx(want, rel=1e-6)
    # divergent case: a*s <= p
    div, _ = s.tail_integral(0.3, 1.0)
    assert not math.isfinite(div)


def test_exp_radial_weak_moment_and_integral():
    s = sampler_from_string("exp-radial:2:1:1")
    # sup t^q exp(-t^2) attained at t* = sqrt(q/2)
    q = 2.0
    tstar = math.sqrt(q / 2.0)
    assert s.weak_moment(q) == pytest.approx(tstar ** q * math.exp(-tstar ** 2))
    want, _ = integrate.quad(lambda t: math.exp(-t * t) ** 0.5 * t, 0, 50)
    got, _ = s.tail_integral(0.5, 2.0)
    assert got == pytest.approx(want, rel=1e-6)


def test_tail_integral_rejects_bad_arguments():
    s = sampler_from_string("uniform-cube:1")
    with pytest.raises(MeasureError, match="exponent"):
        s.tail_integral(0.0, 1.0)
    with pytest.raises(MeasureError, match="exponent"):
        s.tail_integral(1.5, 1.0)
    # the strong moment is p times a tail integral, so it refuses p < 1 too
    with pytest.raises(MeasureError, match="p must be >= 1"):
        s.strong_moment(0.5)


def test_bounded_families_against_closed_forms():
    # uniform on [0, 1]: H(t) = 1 - t, so the strong moment is 1/(p+1),
    # I = B(p, s+1) and sup t^q (1 - t) = q^q / (q+1)^(q+1) at q/(q+1)
    cube = sampler_from_string("uniform-cube:1")
    for p in (1.0, 1.5, 2.0, 3.0):
        assert cube.strong_moment(p) == pytest.approx(1.0 / (p + 1.0),
                                                      rel=1e-12)
        for s in (0.5, 1.0):
            beta = (math.gamma(p) * math.gamma(s + 1.0)
                    / math.gamma(p + s + 1.0))
            got, _ = cube.tail_integral(s, p)
            assert got == pytest.approx(beta, rel=1e-9)
    for q in (1.0, 2.5, 4.0):
        assert cube.weak_moment(q) == pytest.approx(
            q ** q / (q + 1.0) ** (q + 1.0), rel=1e-9)
    # the two points +-1: H = 1 on [0, 1), 0 beyond
    sphere = sampler_from_string("uniform-sphere:1")
    for p in (1.0, 2.0):
        assert sphere.strong_moment(p) == pytest.approx(1.0, rel=1e-9)
        assert sphere.tail_integral(0.5, p)[0] == pytest.approx(1.0 / p,
                                                                rel=1e-9)
    assert sphere.weak_moment(2.0) == 1.0
    point = sampler_from_string("point-mass:1")
    assert point.strong_moment(2.0) == 0.0
    assert point.tail_integral(0.5, 1.0)[0] == 0.0
    assert point.weak_moment(1.0) == 0.0
    # Cantor measure of ratio r: mean 1/2, variance (1 - r) / (4 (1 + r)),
    # so E X^2 = 0.15 + 0.25 at r = 1/4
    cantor = sampler_from_string("uniform-cantor:0.25")
    assert cantor.strong_moment(2.0) == pytest.approx(0.4, rel=1e-9)
    # the middle-thirds dust: t H(t) is largest at t = 2/3, where H = 1/2;
    # the grid search returns its best value, not its last round's
    dust = sampler_from_string("uniform-cantor")
    assert dust.weak_moment(1.0) == pytest.approx(1.0 / 3.0, rel=1e-12)


# (sampler, p, s, q) -> float.hex of strong_moment(p), the value and
# error of tail_integral(s, p) and weak_moment(q), as computed when a
# separate tail profile class also held empirical step tails
_PINNED = [
    ("point-mass:2", 1.0, 0.5, 1.0,
     ("0x0.0p+0", "0x0.0p+0",
      "0x0.0p+0", "0x0.0p+0")),
    ("uniform-cube:1", 1.0, 0.5, 1.0,
     ("0x1.0000000000000p-1", "0x1.5555555555557p-1",
      "0x1.aaaaaaaaaaaadp-51", "0x1.0000000000000p-2")),
    ("uniform-cube:1", 2.0, 1.0, 2.5,
     ("0x1.5555555555556p-2", "0x1.5555555555556p-3",
      "0x1.0aaaaaaaaaaabp-49", "0x1.f8a0e8686e009p-4")),
    ("uniform-cantor:0.25", 2.0, 1.0, 2.5,
     ("0x1.9999999999999p-2", "0x1.9999999999999p-3",
      "0x1.fffffffffffffp-53", "0x1.f2d4a45635522p-3")),
    ("uniform-sphere:1", 1.0, 0.5, 1.0,
     ("0x1.0000000000000p+0", "0x1.0000000000000p+0",
      "0x1.9000000000000p-47", "0x1.0000000000000p+0")),
    ("uniform-sphere:3", 2.0, 1.0, 2.5,
     ("0x1.0000000000000p+0", "0x1.0000000000000p-1",
      "0x1.9000000000000p-48", "0x1.0000000000000p+0")),
    ("pareto-radial:3:1", 1.0, 0.5, 2.5,
     ("0x1.8000000000000p+0", "0x1.8000000000000p+1",
      "0x0.0p+0", "0x1.0000000000000p+0")),
    ("pareto-radial:3:1", 2.0, 0.5, 1.0,
     ("0x1.8000000000000p+1", "inf",
      "0x0.0p+0", "0x1.0000000000000p+0")),
    ("exp-radial:2:1:1", 1.0, 0.5, 1.0,
     ("0x1.c5bf891b4ef6cp-1", "0x1.40d931ff62706p+0",
      "0x1.bad1a0ab00000p-31", "0x1.b72cd3f331397p-2")),
    ("exp-radial:2:1:1", 2.0, 1.0, 2.5,
     ("0x1.fffffffffffffp-1", "0x1.fffffffffffffp-2",
      "0x1.42004e1000000p-28", "0x1.83c403bbc592dp-2")),
    ("exp-radial:1:0.5:2", 2.0, 0.5, 2.5,
     ("0x1.0000000000000p+3", "0x1.0000000000000p+4",
      "0x1.3bd34e8800000p-30", "0x1.25ad1cafb7774p+2")),
]


@pytest.mark.parametrize("spec, p, s, q, want", _PINNED,
                         ids=[f"{r[0]}-p{r[1]}" for r in _PINNED])
def test_closed_form_tails_bit_identical(spec, p, s, q, want):
    sampler = sampler_from_string(spec)
    value, error = sampler.tail_integral(s, p)
    assert (sampler.strong_moment(p).hex(), value.hex(), error.hex(),
            float(sampler.weak_moment(q)).hex()) == want
