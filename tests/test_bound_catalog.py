import itertools
import math

import numpy as np
import pytest

from empwass.bound_catalog import (BoundError, as_rate_normalizer,
                                   bernstein_bound, classify_regime,
                                   default_cap, fuk_nagaev_bound,
                                   hoeffding_bound, main_term_bound,
                                   moderate_deviation_bound, moment_bound)


def test_classify_regime():
    assert classify_regime(1.0, 1.0) == "alpha_lt_2p"
    assert classify_regime(2.0, 1.0) == "alpha_eq_2p"
    assert classify_regime(3.0, 1.0) == "alpha_gt_2p"
    with pytest.raises(BoundError):
        classify_regime(-1.0, 1.0)
    with pytest.warns(UserWarning):
        classify_regime(2.0 + 1e-10, 1.0)


def test_moment_bound_three_regimes():
    # hand-evaluated formulas at r=2, n=100, C=1
    assert moment_bound(2.0, 100, 1.0, 1.0) == pytest.approx(math.sqrt(0.02))
    assert moment_bound(2.0, 100, 1.0, 2.0) == pytest.approx(
        math.sqrt(0.02) * math.log(math.e + 50.0))
    assert moment_bound(2.0, 100, 1.0, 4.0) == pytest.approx(0.02 ** 0.25)
    with pytest.raises(BoundError):
        moment_bound(1.5, 100, 1.0, 1.0)


def test_moment_bound_monotone_in_n():
    for alpha in (1.0, 2.0, 4.0):
        vals = [moment_bound(3.0, n, 1.0, alpha) for n in (10, 100, 1000)]
        assert vals == sorted(vals, reverse=True)


def test_hoeffding_bound_values_and_cutoff():
    # low-dimension regime: e^2 exp(-n x^2 / (C Delta^p)^2)
    got = hoeffding_bound(0.1, 50, 1.0, 1.0, Delta=1.0, C=1.0)
    assert got == pytest.approx(math.e ** 2 * math.exp(-50 * 0.01))
    # beyond the support diameter the probability is exactly zero
    assert hoeffding_bound(1.5, 50, 1.0, 1.0, Delta=1.0) == 0.0
    # high-dimension regime exponent alpha/p
    got = hoeffding_bound(0.1, 50, 1.0, 4.0, Delta=1.0)
    assert got == pytest.approx(math.e ** 2 * math.exp(-50 * 0.1 ** 4))
    # equality regime has the log correction in the denominator
    got = hoeffding_bound(0.1, 50, 1.0, 2.0, Delta=1.0)
    den = math.log(math.e + 1.0 / 0.1)
    assert got == pytest.approx(math.e ** 2 * math.exp(-50 * (0.1 / den) ** 2))


def test_hoeffding_refuses_infinite_delta():
    # an infinite Delta ** p would make the envelope NaN
    with pytest.raises(BoundError, match="Delta must be finite"):
        hoeffding_bound(0.5, 10, 1.0, 1.0, Delta=math.inf)
    with pytest.raises(BoundError, match="Delta must be nonnegative"):
        hoeffding_bound(0.5, 10, 1.0, 1.0, Delta=math.nan)
    # nor may the tail integral C * Delta^p overflow
    with pytest.raises(BoundError, match="overflows"):
        hoeffding_bound(0.5, 10, 1.0, 1.0, Delta=1e300, C=1e9)


def test_hoeffding_monotone_in_x_and_n():
    xs = np.linspace(0.01, 0.99, 40)
    for alpha in (1.0, 2.0, 4.0):
        vals = [hoeffding_bound(float(x), 30, 1.0, alpha, 1.0) for x in xs]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
        nv = [hoeffding_bound(0.2, n, 1.0, alpha, 1.0) for n in (10, 100, 1000)]
        assert nv == sorted(nv, reverse=True)


def test_main_term_bound_and_cap():
    res = main_term_bound(0.5, 100, 1.0, 1.0, i_val=2.0, cap=1.0)
    assert res.applicable
    assert res.value == pytest.approx(math.e ** 2 * math.exp(-100 * 0.0625))
    beyond = main_term_bound(1.5, 100, 1.0, 1.0, i_val=2.0, cap=1.0)
    assert beyond.value == 0.0
    na = main_term_bound(0.5, 100, 1.0, 1.0, i_val=math.inf, cap=1.0)
    assert not na.applicable


def test_default_cap():
    assert default_cap(1.0, 3.0) == pytest.approx(12.0)
    assert default_cap(2.0, 1.0) == pytest.approx(8.0)


def test_fuk_nagaev_integral_bullet():
    # alpha < 2p with finite I_{2p,p}: exponential + i2pp^2/(x^2 n)
    res = fuk_nagaev_bound(0.5, 100, 1.0, 1.5, i2pp=2.0, cap=math.inf)
    assert res.applicable
    assert set(res.terms) == {"poly_i2pp"}
    assert res.value == pytest.approx(4.0 / (0.25 * 100))
    # alpha > 2p with finite I_{alpha,p}: exponential appears too
    res = fuk_nagaev_bound(0.5, 100, 1.0, 3.0, i2pp=2.0, iap=1.5,
                           cap=math.inf)
    assert set(res.terms) == {"exponential", "poly_i2pp"}
    assert res.value == pytest.approx(sum(res.terms.values()))
    # alpha > 2p, I_{2p,p} infinite: pure polynomial with exponent a/(a-p)
    res = fuk_nagaev_bound(0.5, 100, 1.0, 3.0, iap=1.5)
    ex = 3.0 / 2.0
    assert set(res.terms) == {"poly_iap"}
    assert res.value == pytest.approx(1.5 ** ex / (0.5 ** ex * 100 ** 0.5))


def test_fuk_nagaev_weak_moment_bullets():
    # 1 < r < 2, alpha < 2p: polynomial only
    res = fuk_nagaev_bound(0.5, 100, 1.0, 1.0, r=1.5, weak_rp=2.0)
    assert set(res.terms) == {"poly_weak"}
    assert res.value == pytest.approx(2.0 / (0.5 ** 1.5 * 100 ** 0.5))
    # r > 2 needs q > r and finite i2pp
    res = fuk_nagaev_bound(0.5, 100, 1.0, 1.0, r=3.0, q=4.0, weak_rp=2.0,
                           i2pp=1.0, cap=math.inf)
    assert set(res.terms) == {"exponential", "poly_i2pp_q", "poly_weak"}
    bad = fuk_nagaev_bound(0.5, 100, 1.0, 1.0, r=3.0, q=2.5, weak_rp=2.0,
                           i2pp=1.0)
    assert not bad.applicable
    # alpha > 2p splits (1, thresh) from (thresh, 2)
    thresh = 3.0 / 2.0  # alpha=3, p=1
    below = fuk_nagaev_bound(0.5, 100, 1.0, 3.0, r=1.2, weak_rp=2.0)
    assert below.applicable and set(below.terms) == {"poly_weak"}
    above = fuk_nagaev_bound(0.5, 100, 1.0, 3.0, r=1.8, weak_rp=2.0,
                             iap=1.0, cap=math.inf)
    assert above.applicable and "exponential" in above.terms
    # infinite weak moment is not applicable
    res = fuk_nagaev_bound(0.5, 100, 1.0, 1.0, r=1.5, weak_rp=math.inf)
    assert not res.applicable


def test_fuk_nagaev_monotone_in_x():
    xs = np.linspace(0.05, 3.0, 30)
    vals = [fuk_nagaev_bound(float(x), 50, 1.0, 3.0, i2pp=1.0, iap=1.0,
                             cap=math.inf).value for x in xs]
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


def test_moderate_deviation_rho_ranges():
    # integral bullet, alpha < 2p: rho in (1/2, 1], asymptotic
    ok = moderate_deviation_bound(1.0, 100, 0.75, 1.0, 1.0, i2pp=2.0)
    assert ok.applicable and ok.asymptotic
    assert ok.value == pytest.approx(4.0)
    bad = moderate_deviation_bound(1.0, 100, 0.4, 1.0, 1.0, i2pp=2.0)
    assert not bad.applicable
    # weak-moment bullet with 1 < r < thresh holds for all n (not asymptotic)
    alln = moderate_deviation_bound(1.0, 100, 0.9, 1.0, 3.0, r=1.2,
                                    weak_rp=2.0)
    assert alln.applicable and not alln.asymptotic
    # rho out of (0, 1]
    assert not moderate_deviation_bound(1.0, 100, 1.5, 1.0, 1.0,
                                        i2pp=2.0).applicable


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs).to_dict()
    except BoundError as exc:
        return ("raises", str(exc))


def test_bullet_bounds_match_oracles(bullet_bound_oracles):
    # every input of a grid that reaches each bullet, each way of matching
    # none, both rho range shapes and the x <= 0 and rho checks
    fn_oracle, md_oracle = bullet_bound_oracles
    inf = math.inf
    xs, ns, ps = (0.0, 0.05, 1.0, 7.0), (1, 50), (1.0, 2.0)
    alphas = (0.5, 2.0, 3.0, 4.0, 9.0)
    rs = (None, 0.5, 1.2, 1.5, 1.9, 2.0, 3.0)
    weaks, i2pps, iaps = (None, 0.8, inf), (0.9, inf), (1.3, inf)
    shapes, suffixed = set(), 0
    for x, n, p, alpha, r, weak_rp, i2pp, iap in itertools.product(
            xs, ns, ps, alphas, rs, weaks, i2pps, iaps):
        common = dict(r=r, weak_rp=weak_rp, i2pp=i2pp, iap=iap)
        for q, cap in itertools.product((None, 2.5, 4.0), (0.5, inf)):
            want = _outcome(fn_oracle, x, n, p, alpha, q=q, cap=cap,
                            **common)
            got = _outcome(fuk_nagaev_bound, x, n, p, alpha, q=q, cap=cap,
                           **common)
            assert repr(got) == repr(want), (x, n, p, alpha, q, cap, common)
            if isinstance(got, dict) and got["applicable"]:
                shapes.add(tuple(got["terms"]))
        for rho in (0.0, 0.3, 0.5, 0.6, 0.8, 1.0, 1.2):
            want = _outcome(md_oracle, x, n, rho, p, alpha, **common)
            if isinstance(want, dict) \
                    and want["reason"] == f"r = {r} matches no bullet":
                # the one change: the reason names the thresholds, as the
                # Fuk-Nagaev bound's does
                want["reason"] += f" (threshold {alpha / (alpha - p):.6g}, 2)"
                suffixed += 1
            got = _outcome(moderate_deviation_bound, x, n, rho, p, alpha,
                           **common)
            assert repr(got) == repr(want), (x, n, rho, p, alpha, common)
    assert suffixed > 0
    assert shapes == {("poly_iap",), ("poly_i2pp",),
                      ("exponential", "poly_i2pp"),
                      ("exponential", "poly_i2pp_q", "poly_weak"),
                      ("exponential", "poly_weak"), ("poly_weak",)}


def test_bernstein_bound_cases():
    # kappa > p: correction only active for x > 1
    low = bernstein_bound(0.5, 100, 2.0, 1.0, 1.0, i_val=1.0, cap=math.inf)
    assert low.terms["exp_correction"] == 0.0
    high = bernstein_bound(2.0, 100, 2.0, 1.0, 1.0, i_val=1.0, cap=math.inf)
    assert high.terms["exp_correction"] == pytest.approx(
        math.exp(-100 * 2.0 ** 2))
    # kappa = p excluded
    assert not bernstein_bound(0.5, 100, 1.0, 1.0, 1.0, i_val=1.0,
                               cap=math.inf).applicable
    # kappa < p requires eps in (0, kappa)
    assert not bernstein_bound(0.5, 100, 0.5, 1.0, 1.0, i_val=1.0,
                               cap=math.inf).applicable
    ok = bernstein_bound(0.5, 100, 0.5, 1.0, 1.0, i_val=1.0, cap=math.inf,
                         eps=0.25)
    assert ok.applicable
    assert ok.terms["exp_correction"] == pytest.approx(
        math.exp(-(100 * 0.5) ** 0.25))


def test_as_rate_normalizer():
    n = 100
    ll = math.log(math.log(n))
    assert as_rate_normalizer(n, 1.0, 1.0) == pytest.approx(math.sqrt(n / ll))
    assert as_rate_normalizer(n, 1.0, 2.0) == pytest.approx(
        math.sqrt(n / (math.log(n) * ll)))
    assert as_rate_normalizer(n, 1.0, 4.0) == pytest.approx(
        (n / ll) ** 0.25)
    with pytest.raises(BoundError):
        as_rate_normalizer(2, 1.0, 1.0)
