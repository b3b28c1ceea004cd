import math

import numpy as np
import pytest
from scipy import integrate

from empwass.measures import sampler_from_string
from empwass.tail_calculus import (TailError, TailProfile, exp_moment,
                                   i_integral, weak_moment)


def _profile_from_values(dists, weights=None):
    return TailProfile.from_distances(np.asarray(dists, float), weights)


def test_empirical_tail_function_step_values():
    prof = _profile_from_values([1.0, 2.0, 4.0], [0.5, 0.3, 0.2])
    assert prof.H(0.5) == pytest.approx(1.0)
    assert prof.H(1.0) == pytest.approx(0.5)  # closed at the jump
    assert prof.H(3.0) == pytest.approx(0.2)
    assert prof.H(4.0) == pytest.approx(0.0)
    assert prof.H(10.0) == 0.0


def test_empirical_strong_moment():
    prof = _profile_from_values([1.0, 2.0], [0.5, 0.5])
    assert prof.strong_moment(2.0) == pytest.approx(0.5 * 1 + 0.5 * 4)


def test_empirical_weak_moment_left_limits():
    # sup_t t^q H(t^-): with atoms {1: .5, 2: .5}, H(t^-) = 1 on (0,1],
    # .5 on (1,2] -> sup for q=1 is max(1*1, 2*0.5) = 1
    prof = _profile_from_values([1.0, 2.0], [0.5, 0.5])
    assert weak_moment(prof, 1.0) == pytest.approx(1.0)
    # q = 2: max(1*1, 4*.5) = 2
    assert weak_moment(prof, 2.0) == pytest.approx(2.0)


def test_empirical_i_integral_exact_piecewise():
    # I = int_0^inf H(t)^s d(t^p), H piecewise constant -> exact sum
    prof = _profile_from_values([1.0, 3.0], [0.5, 0.5])
    s, p = 0.5, 2.0
    # I = int H(t)^s t^(p-1) dt; H=1 on [0,1), H=.5 on [1,3):
    # (1*(1-0) + sqrt(.5)*(9-1)) / p
    got = i_integral(prof, s, p)
    assert got.finite
    assert got.value == pytest.approx((1.0 + 8.0 / math.sqrt(2.0)) / 2.0)


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
    prof = _profile_from_values([1.0], [1.0])
    with pytest.raises(TailError):
        i_integral(prof, 0.0, 1.0)
    with pytest.raises(TailError):
        i_integral(prof, 1.5, 1.0)
