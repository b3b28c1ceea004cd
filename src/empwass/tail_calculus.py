"""Tail functions H(t) of the analytic sampler families, their weak
moments, the tail integrals driving the unbounded-support bounds, and
sub/super-exponential moment estimates."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Tuple

import numpy as np

from .measures import SyntheticSampler

INF = math.inf


class TailError(ValueError):
    pass


@dataclass(frozen=True)
class TailProfile:
    """Tail function t -> mass outside the closed ball B(x0, t), in the
    closed form of a sampler family."""

    sampler: SyntheticSampler

    @classmethod
    def from_sampler(cls, s: SyntheticSampler) -> "TailProfile":
        if s.tail(np.asarray([0.0])) is None:
            raise TailError(f"no closed-form tail for {s.family} d={s.d}")
        return cls(s)

    def H(self, t):
        return self.sampler.tail(t)

    def strong_moment(self, p: float) -> float:
        """E d(x0, X)^p where finite."""
        s = self.sampler
        if s.family == "point-mass":
            return 0.0
        if s.family == "pareto-radial":
            return INF if p >= s.a else s.a / (s.a - p)
        # bounded or stretched-exponential: integrate p t^{p-1} H(t)
        val, _ = self.i_detail(1.0, p)
        return p * val

    def max_dist(self) -> float:
        return float(self.sampler.metadata().get("delta_diam", INF))

    def i_detail(self, exponent: float, p: float) -> Tuple[float, float]:
        """(value, truncation/quadrature error) of the tail integral."""
        s = self.sampler
        if s.family == "point-mass":
            return 0.0, 0.0
        if s.family == "pareto-radial":
            if s.a * exponent <= p:
                return INF, 0.0
            # exact: 1/p + 1/(a*exponent - p)
            return float(1.0 / p + 1.0 / (s.a * exponent - p)), 0.0

        def f(t):
            return float(self.H(t)) ** exponent * t ** (p - 1.0)

        top = self.max_dist()
        if math.isinf(top):  # exp-radial: cut where H^exponent is negligible
            top = (745.0 / (s.lam * exponent)) ** (1.0 / s.kappa)
        from scipy import integrate
        val, err = integrate.quad(f, 0.0, top, limit=400)
        return float(val), float(err)


def weak_moment(profile: TailProfile, q: float) -> float:
    """sup_t t^q H(t), the q-th weak moment raised to the q-th power.

    Closed forms where the family has one, else a refined grid search.
    Divergence returns +inf.
    """
    if not q >= 1:
        raise TailError("q must be >= 1")
    s = profile.sampler
    if s.family == "point-mass":
        return 0.0
    if s.family == "uniform-sphere":
        return 1.0
    if s.family == "pareto-radial":
        return INF if q > s.a else 1.0  # sup attained at t = 1
    if s.family == "exp-radial":
        tstar = (q / (s.lam * s.kappa)) ** (1.0 / s.kappa)
        return tstar ** q * math.exp(-s.lam * tstar ** s.kappa)
    # bounded 1D families: refined grid search with a convergence check
    top = profile.max_dist()
    val = 0.0
    grid = np.linspace(0.0, top, 1 << 12)
    for _ in range(6):
        cand = grid ** q * np.asarray(profile.H(grid), dtype=float)
        k = int(np.argmax(cand))
        new = float(cand[k])
        lo = grid[max(k - 1, 0)]
        hi = grid[min(k + 1, grid.size - 1)]
        if new <= val * (1.0 + 1e-9) and val > 0.0:
            return new
        val = max(val, new)
        grid = np.linspace(lo, hi, 1 << 12)
    return val


@dataclass(frozen=True)
class IntegralValue:
    value: float
    error: float
    finite: bool

    def to_dict(self) -> dict:
        return asdict(self)


def i_integral(profile: TailProfile, exponent: float, p: float) -> IntegralValue:
    """Tail integral int_0^inf H(t)^exponent t^{p-1} dt.

    Closed forms for point masses and Pareto tails, else quadrature with
    a reported truncation error. Divergence (decided from the family's
    polynomial decay, never numerically) is flagged.
    """
    if not (0.0 < exponent <= 1.0):
        raise TailError("exponent must lie in (0, 1]")
    if not p >= 1:
        raise TailError("p must be >= 1")
    val, err = profile.i_detail(exponent, p)
    return IntegralValue(val, err, math.isfinite(val))


@dataclass(frozen=True)
class ExpMomentEstimate:
    value: float
    ci_low: float
    ci_high: float
    finite: bool
    n_mc: int
    method: str

    def to_dict(self) -> dict:
        return asdict(self)


def exp_moment(s: SyntheticSampler, kappa: float, lam_exp: float,
               n_mc: int = 100000, seed: int = 0) -> ExpMomentEstimate:
    """E exp(lam_exp * d(x0, X)^kappa) for a sampler.

    Divergence is declared from the family's tail metadata; Monte Carlo is
    only used for finite cases (CLT interval at 3 sigma).
    """
    if kappa <= 0 or lam_exp <= 0:
        raise TailError("kappa and lam_exp must be positive")
    if s.family == "pareto-radial":
        return ExpMomentEstimate(INF, INF, INF, False, 0, "metadata")
    if s.family == "exp-radial":
        if kappa > s.kappa or (kappa == s.kappa and lam_exp >= s.lam):
            return ExpMomentEstimate(INF, INF, INF, False, 0, "metadata")
    if s.family == "point-mass":
        return ExpMomentEstimate(1.0, 1.0, 1.0, True, 0, "exact")

    rng = np.random.default_rng(seed)
    pts = s.draw(n_mc, rng)
    d = np.linalg.norm(pts, axis=1)
    vals = np.exp(lam_exp * d ** kappa)
    mean = float(vals.mean())
    half = 3.0 * float(vals.std(ddof=1)) / math.sqrt(n_mc)
    return ExpMomentEstimate(mean, mean - half, mean + half, True,
                             n_mc, "monte-carlo")
