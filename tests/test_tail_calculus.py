import math

import numpy as np
import pytest
from scipy import integrate

from empwass.measures import sampler_from_string
from empwass.tail_calculus import (TailError, TailProfile, exp_moment,
                                   i_integral, weak_moment)


def test_pareto_closed_forms_against_quadrature():
    s = sampler_from_string("pareto-radial:3:1")
    prof = TailProfile.from_sampler(s)
    # strong p-th moment: a/(a-p) for p < a, infinite otherwise
    assert prof.strong_moment(1.0) == pytest.approx(1.5)
    assert prof.strong_moment(3.0) == math.inf
    # weak moment: sup t^q min(1, t^-a) = 1 for q <= a, infinite above
    assert weak_moment(prof, 2.0) == pytest.approx(1.0)
    assert weak_moment(prof, 3.5) == math.inf
    # I-integral vs numeric quadrature of H^s d(t^p)
    sexp, p = 0.7, 1.0
    want, _ = integrate.quad(
        lambda t: min(1.0, t ** -3.0) ** sexp * t ** (p - 1), 0, np.inf,
        limit=200)
    got = i_integral(prof, sexp, p)
    assert got.finite
    assert got.value == pytest.approx(want, rel=1e-6)
    # divergent case: a*s <= p
    div = i_integral(prof, 0.3, 1.0)
    assert not div.finite


def test_exp_radial_weak_moment_and_integral():
    s = sampler_from_string("exp-radial:2:1:1")
    prof = TailProfile.from_sampler(s)
    # sup t^q exp(-t^2) attained at t* = sqrt(q/2)
    q = 2.0
    tstar = math.sqrt(q / 2.0)
    assert weak_moment(prof, q) == pytest.approx(tstar ** q * math.exp(-tstar ** 2))
    want, _ = integrate.quad(lambda t: math.exp(-t * t) ** 0.5 * t, 0, 50)
    got = i_integral(prof, 0.5, 2.0)
    assert got.finite
    assert got.value == pytest.approx(want, rel=1e-6)


def test_exp_moment_divergence_from_metadata():
    pareto = sampler_from_string("pareto-radial:3:1")
    est = exp_moment(pareto, kappa=1.0, lam_exp=0.1, n_mc=100, seed=0)
    assert not est.finite
    # exp-radial with dominating exponent stays finite
    gauss = sampler_from_string("exp-radial:2:1:1")
    est2 = exp_moment(gauss, kappa=1.0, lam_exp=1.0, n_mc=20000, seed=0)
    assert est2.finite
    # oracle: radius R has survival exp(-t^2), so density 2t exp(-t^2)
    want, _ = integrate.quad(lambda t: 2 * t * math.exp(t - t * t), 0, 20)
    assert est2.value == pytest.approx(want, rel=0.05)
    # same kappa, too-large rate diverges
    est3 = exp_moment(gauss, kappa=2.0, lam_exp=1.5, n_mc=100, seed=0)
    assert not est3.finite


def test_i_integral_rejects_bad_exponent():
    prof = TailProfile.from_sampler(sampler_from_string("uniform-cube:1"))
    with pytest.raises(TailError):
        i_integral(prof, 0.0, 1.0)
    with pytest.raises(TailError):
        i_integral(prof, 1.5, 1.0)


def test_bounded_families_against_closed_forms():
    # uniform on [0, 1]: H(t) = 1 - t, so the strong moment is 1/(p+1),
    # I = B(p, s+1) and sup t^q (1 - t) = q^q / (q+1)^(q+1) at q/(q+1)
    cube = TailProfile.from_sampler(sampler_from_string("uniform-cube:1"))
    for p in (1.0, 1.5, 2.0, 3.0):
        assert cube.strong_moment(p) == pytest.approx(1.0 / (p + 1.0),
                                                      rel=1e-12)
        for s in (0.5, 1.0):
            beta = (math.gamma(p) * math.gamma(s + 1.0)
                    / math.gamma(p + s + 1.0))
            got = i_integral(cube, s, p)
            assert got.finite
            assert got.value == pytest.approx(beta, rel=1e-9)
    for q in (1.0, 2.5, 4.0):
        assert weak_moment(cube, q) == pytest.approx(
            q ** q / (q + 1.0) ** (q + 1.0), rel=1e-9)
    # the two points +-1: H = 1 on [0, 1), 0 beyond
    sphere = TailProfile.from_sampler(sampler_from_string("uniform-sphere:1"))
    for p in (1.0, 2.0):
        assert sphere.strong_moment(p) == pytest.approx(1.0, rel=1e-9)
        assert i_integral(sphere, 0.5, p).value == pytest.approx(1.0 / p,
                                                                 rel=1e-9)
    assert weak_moment(sphere, 2.0) == 1.0
    point = TailProfile.from_sampler(sampler_from_string("point-mass:1"))
    assert point.strong_moment(2.0) == 0.0
    assert i_integral(point, 0.5, 1.0).value == 0.0
    assert weak_moment(point, 1.0) == 0.0
    # Cantor measure of ratio r: mean 1/2, variance (1 - r) / (4 (1 + r)),
    # so E X^2 = 0.15 + 0.25 at r = 1/4
    cantor = TailProfile.from_sampler(
        sampler_from_string("uniform-cantor:0.25"))
    assert cantor.strong_moment(2.0) == pytest.approx(0.4, rel=1e-9)


# (sampler, p, s, q) -> float.hex of strong_moment(p), the value and
# error of i_integral(s, p) and weak_moment(q), as computed when
# TailProfile also held empirical step tails
_PINNED = [
    ("point-mass:2", 1.0, 0.5, 1.0,
     ("0x0.0p+0", "0x0.0p+0",
      "0x0.0p+0", "0x0.0p+0")),
    ("uniform-cube:1", 1.0, 0.5, 1.0,
     ("0x1.0000000000000p-1", "0x1.5555555555557p-1",
      "0x1.aaaaaaaaaaaadp-51", "0x1.0000000000000p-2")),
    ("uniform-cube:1", 2.0, 1.0, 2.5,
     ("0x1.5555555555556p-2", "0x1.5555555555556p-3",
      "0x1.0aaaaaaaaaaabp-49", "0x1.f8a0e8686defap-4")),
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
    prof = TailProfile.from_sampler(sampler_from_string(spec))
    got = i_integral(prof, s, p)
    assert (prof.strong_moment(p).hex(), got.value.hex(), got.error.hex(),
            float(weak_moment(prof, q)).hex()) == want
