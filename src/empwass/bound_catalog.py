"""The concentration-bound catalog: moment bounds, Hoeffding-type tails,
main-term exponential bounds, Fuk-Nagaev mixed bounds, moderate/large
deviation constants, Bernstein-type bounds, and almost-sure normalizers.

Every free constant is an explicit parameter defaulting to 1; the Monte
Carlo harness fits minimal valid constants empirically.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, field
from typing import Dict, Optional

E2 = math.e ** 2


class BoundError(ValueError):
    pass


def classify_regime(alpha: float, p: float) -> str:
    """Dispatch on alpha vs 2p (|alpha - 2p| <= 1e-12 counts as equal)."""
    if alpha <= 0 or p <= 0:
        raise BoundError("alpha and p must be positive")
    gap = alpha - 2.0 * p
    if abs(gap) <= 1e-12:
        return "alpha_eq_2p"
    if 0 < abs(gap) < 1e-9:
        warnings.warn(
            f"alpha - 2p = {gap:.3e} is near zero; dispatching to "
            f"{'alpha_lt_2p' if gap < 0 else 'alpha_gt_2p'}", stacklevel=2)
    return "alpha_lt_2p" if gap < 0 else "alpha_gt_2p"


@dataclass(frozen=True)
class BoundResult:
    applicable: bool
    value: float = math.nan
    terms: Dict[str, float] = field(default_factory=dict)
    reason: Optional[str] = None
    asymptotic: bool = False

    def to_dict(self) -> dict:
        return asdict(self)


def _na(reason: str) -> BoundResult:
    return BoundResult(False, reason=reason)


def _done(terms: Dict[str, float], asymptotic: bool = False) -> BoundResult:
    return BoundResult(True, float(sum(terms.values())), terms,
                       asymptotic=asymptotic)


# ---------------------------------------------------------------------------
# Moment bounds on ||W_p^p||_r / diam^p
# ---------------------------------------------------------------------------

def moment_bound(r: float, n: int, p: float, alpha: float,
                 C: float = 1.0) -> float:
    """Bounded-support r-th moment bound, normalized by diam^p."""
    if r < 2:
        raise BoundError("r must be >= 2")
    if n < 1:
        raise BoundError("n must be >= 1")
    regime = classify_regime(alpha, p)
    if regime == "alpha_lt_2p":
        return C * math.sqrt(r / n)
    if regime == "alpha_eq_2p":
        return C * math.sqrt(r / n) * math.log(math.e + n / r)
    return C * (r / n) ** (p / alpha)


# ---------------------------------------------------------------------------
# Hoeffding-type tails (bounded support)
# ---------------------------------------------------------------------------

def hoeffding_bound(x: float, n: int, p: float, alpha: float, Delta: float,
                    C: float = 1.0) -> float:
    """P(W_p^p > x) bound for measures supported on a set of diameter Delta."""
    if x <= 0:
        raise BoundError("x must be positive")
    if not C > 0:
        raise BoundError("C must be positive")
    if not Delta >= 0:
        raise BoundError("Delta must be nonnegative")
    if Delta == math.inf:
        raise BoundError("Delta must be finite")
    delta_p = float(Delta) ** p   # float: never an exact integer power
    if C * delta_p == math.inf:
        raise BoundError("C * Delta**p overflows")
    # the main-term envelope: tail integral C * Delta^p, cap Delta^p
    return _main_exp(x, n, p, alpha, classify_regime(alpha, p),
                     C * delta_p, delta_p, 1.0)


# ---------------------------------------------------------------------------
# Main-term exponential bounds (unbounded support)
# ---------------------------------------------------------------------------

def _main_exp(x: float, n: int, p: float, alpha: float, regime: str,
              i_val: float, cap: float, C: float) -> float:
    """The shared exponential envelope with the cap indicator."""
    if x > cap:
        return 0.0
    if not math.isfinite(i_val) or i_val <= 0:
        return math.nan
    if regime == "alpha_lt_2p":
        expo = n * C * (x / i_val) ** 2
    elif regime == "alpha_gt_2p":
        expo = n * C * (x / i_val) ** (alpha / p)
    else:
        expo = n * C * (x / (i_val * math.log(math.e + C * i_val / x))) ** 2
    return E2 * math.exp(-expo)


def default_cap(p: float, strong_moment_p: float) -> float:
    """Default cap constant for the exponential-term indicator: twice the
    2^p-inflated p-th moment appearing in the dyadic-ring derivation."""
    return 2.0 * 2.0 ** p * strong_moment_p


def main_term_bound(x: float, n: int, p: float, alpha: float, i_val: float,
                    cap: float = math.inf, C: float = 1.0) -> BoundResult:
    """Exponential deviation bound for the shared-mass transport term.

    i_val is the regime's tail integral (I_{alpha,p} when alpha > 2p,
    I_{2p,p} otherwise); cap caps the validity range of the exponential.
    """
    if x <= 0:
        raise BoundError("x must be positive")
    regime = classify_regime(alpha, p)
    if not math.isfinite(i_val):
        return _na("required tail integral is infinite")
    v = _main_exp(x, n, p, alpha, regime, i_val, cap, C)
    return _done({"exponential": v})


# ---------------------------------------------------------------------------
# Heavy-tail bullets: Fuk-Nagaev bounds and moderate/large deviations
# ---------------------------------------------------------------------------

def _bullet(regime: str, alpha: float, p: float, r: Optional[float],
            weak_rp: Optional[float], i2pp: float, iap: float):
    """The bullet of the heavy-tail case analysis that applies, or a
    not-applicable BoundResult naming why none does.

    With r=None (integral-only): "iap" when alpha > 2p and only
    I_{alpha,p} is finite, else "i2pp". With a weak moment of order rp:
    "high" (r > 2), "mid" (alpha > 2p and alpha/(alpha-p) < r < 2) or
    "low" (1 < r below 2, or below alpha/(alpha-p) when alpha > 2p).
    """
    gt = regime == "alpha_gt_2p"
    if r is None:
        if gt and not math.isfinite(i2pp):
            if not math.isfinite(iap):
                return _na("both tail integrals are infinite")
            return "iap"
        if not math.isfinite(i2pp):
            return _na("I_{2p,p} is infinite and no weak moment was supplied")
        return "i2pp"
    if weak_rp is None or not math.isfinite(weak_rp):
        return _na(f"weak moment of order {r}p is not finite")
    if r > 2.0:
        return "high"
    if not gt:
        if 1.0 < r < 2.0:
            return "low"
        return _na(f"r = {r} matches no bullet in this regime")
    thresh = alpha / (alpha - p)
    if thresh < r < 2.0:
        return "mid"
    if 1.0 < r < thresh:
        return "low"
    return _na(f"r = {r} matches no bullet (threshold {thresh:.6g}, 2)")


def fuk_nagaev_bound(x: float, n: int, p: float, alpha: float,
                     r: Optional[float] = None, q: Optional[float] = None,
                     weak_rp: Optional[float] = None,
                     i2pp: float = math.inf, iap: float = math.inf,
                     cap: float = math.inf, C: float = 1.0,
                     Cpoly: float = 1.0) -> BoundResult:
    """Mixed exponential + polynomial tail bound for P(W_p^p > x).

    Dispatch follows the case analysis on (regime, r, finiteness of the
    tail integrals). Pass r=None to request the integral-only bullet.
    weak_rp is the rp-th weak moment already raised to the power rp.
    Terms are reported separately; the value is their sum.
    """
    x = float(x)   # float: never an exact integer power
    if x <= 0:
        raise BoundError("x must be positive")
    if n < 1:
        raise BoundError("n must be >= 1")
    regime = classify_regime(alpha, p)
    bullet = _bullet(regime, alpha, p, r, weak_rp, i2pp, iap)
    if isinstance(bullet, BoundResult):
        return bullet
    if bullet == "iap":
        ex = alpha / (alpha - p)
        return _done({"poly_iap":
                      Cpoly * iap ** ex / (x ** ex * n ** (p / (alpha - p)))})
    if bullet == "i2pp":
        poly = {"poly_i2pp": Cpoly * i2pp ** 2 / (x ** 2 * n)}
    else:
        poly = {"poly_weak": Cpoly * weak_rp / (x ** r * n ** (r - 1.0))}
    if bullet == "low" or (bullet == "i2pp" and regime == "alpha_lt_2p"):
        return _done(poly)
    if bullet == "high":
        if q is None or q <= r:
            return _na("the r > 2 bullet needs q > r")
        if not math.isfinite(i2pp):
            return _na("I_{2p,p} must be finite for the r > 2 bullet")
        poly = {"poly_i2pp_q":
                Cpoly * float(i2pp) ** q / (x ** q * n ** (q / 2.0)),
                **poly}
    exp_i = iap if regime == "alpha_gt_2p" else i2pp
    v = _main_exp(x, n, p, alpha, regime, exp_i, cap, C)
    if math.isnan(v):
        return _na("I_{alpha,p} is infinite" if bullet == "mid"
                   else "exponential-term integral is infinite")
    return _done({"exponential": v, **poly})


def moderate_deviation_bound(x: float, n: int, rho: float, p: float,
                             alpha: float, r: Optional[float] = None,
                             weak_rp: Optional[float] = None,
                             i2pp: float = math.inf, iap: float = math.inf,
                             Cpoly: float = 1.0) -> BoundResult:
    """Bound on n^{s*rho - 1} P(W_p^p > x / n^{1-rho}) for the bullet's
    exponent s; limsup-type bullets are flagged asymptotic."""
    x = float(x)   # float: never an exact integer power
    if x <= 0:
        raise BoundError("x must be positive")
    if not (0 < rho <= 1):
        return _na("rho must lie in (0, 1]")
    regime = classify_regime(alpha, p)
    bullet = _bullet(regime, alpha, p, r, weak_rp, i2pp, iap)
    if isinstance(bullet, BoundResult):
        return bullet
    # "iap" and "low" hold on a closed rho range and are exact limits;
    # the others hold on an open one and are limsup-type
    exact = bullet in ("iap", "low")
    lo = 1.0 / r if bullet == "low" else (
        (alpha - p) / alpha if regime == "alpha_gt_2p" else 0.5)
    if exact and rho < lo - 1e-15:
        return _na(f"rho must lie in [{lo:.6g}, 1]")
    if not exact and rho <= lo:
        return _na(f"rho must lie in ({lo:.6g}, 1]")
    if bullet == "iap":
        ex = alpha / (alpha - p)
        limit = Cpoly * iap ** ex / x ** ex
    elif bullet == "i2pp":
        limit = Cpoly * i2pp ** 2 / x ** 2
    else:
        limit = Cpoly * weak_rp / x ** r
    return _done({"limit": limit}, asymptotic=not exact)


# ---------------------------------------------------------------------------
# Bernstein-type bounds under sub/super-exponential moments
# ---------------------------------------------------------------------------

def bernstein_bound(x: float, n: int, kappa: float, p: float, alpha: float,
                    i_val: float, cap: float = math.inf, C: float = 1.0,
                    C1: float = 1.0, C2: float = 1.0,
                    eps: Optional[float] = None) -> BoundResult:
    """Tail bound when exp(lam * d(x0,X)^kappa) is integrable.

    kappa > p adds one exponential correction active for x > 1; kappa < p
    needs eps in (0, kappa) and splits the correction at x = 1. kappa = p
    is excluded.
    """
    if x <= 0:
        raise BoundError("x must be positive")
    if kappa <= 0:
        raise BoundError("kappa must be positive")
    if kappa == p:
        return _na("kappa = p is excluded")
    regime = classify_regime(alpha, p)
    if not math.isfinite(i_val):
        return _na("required tail integral is infinite")
    a = _main_exp(x, n, p, alpha, regime, i_val, cap, C)
    terms = {"main": a}
    if kappa > p:
        terms["exp_correction"] = (
            C1 * math.exp(-C2 * n * x ** (kappa / p)) if x > 1.0 else 0.0)
    else:
        if eps is None or not (0 < eps < kappa):
            return _na("kappa < p needs eps in (0, kappa)")
        if x <= 1.0:
            terms["exp_correction"] = (
                C1 * math.exp(-C2 * (n * x) ** ((kappa - eps) / p)))
        else:
            terms["exp_correction"] = (
                C1 * math.exp(-C2 * (n * x) ** (kappa / p)))
    return _done(terms)


# ---------------------------------------------------------------------------
# Almost-sure rate normalizers
# ---------------------------------------------------------------------------

def as_rate_normalizer(n: int, p: float, alpha: float) -> float:
    """The sequence a_n with limsup a_n * W_p^p bounded almost surely."""
    if n < 3:
        raise BoundError("n must be >= 3 for log log n")
    ll = math.log(math.log(n))
    regime = classify_regime(alpha, p)
    if regime == "alpha_lt_2p":
        return math.sqrt(n / ll)
    if regime == "alpha_eq_2p":
        return math.sqrt(n / (math.log(n) * ll))
    return (n / ll) ** (p / alpha)
