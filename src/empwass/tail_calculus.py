"""Tail functions H(t), weak moments, the tail integrals driving the
unbounded-support bounds, and sub/super-exponential moment estimates."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .measures import DiscreteMeasure, MeasureError, SyntheticSampler

INF = math.inf


class TailError(ValueError):
    pass


@dataclass(frozen=True)
class TailProfile:
    """Tail function t -> mass outside the closed ball B(x0, t).

    Either empirical (exact step function from distances + weights) or
    analytic (closed-form H from a sampler family).
    """

    kind: str                                   # "empirical" | "analytic"
    dists: Optional[np.ndarray] = None           # sorted ascending
    weights: Optional[np.ndarray] = None         # aligned with dists
    sampler: Optional[SyntheticSampler] = None

    @classmethod
    def from_sample(cls, m: DiscreteMeasure, x0: int) -> "TailProfile":
        d = m.space.distance_block(np.asarray([x0]), m.idx)[0]
        order = np.argsort(d, kind="stable")
        return cls("empirical", d[order], m.weights[order].copy())

    @classmethod
    def from_distances(cls, dists, weights=None) -> "TailProfile":
        d = np.asarray(dists, dtype=float)
        if np.any(d < 0):
            raise TailError("negative distances")
        w = (np.full(d.size, 1.0 / d.size) if weights is None
             else np.asarray(weights, dtype=float))
        if abs(w.sum() - 1.0) > 1e-10:
            raise TailError("weights must sum to 1")
        order = np.argsort(d, kind="stable")
        return cls("empirical", d[order], w[order])

    @classmethod
    def from_sampler(cls, s: SyntheticSampler) -> "TailProfile":
        if not s.has_analytic_tail():
            raise TailError(f"no closed-form tail for {s.family} d={s.d}")
        return cls("analytic", sampler=s)

    def H(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "empirical":
            # right-continuous: mass strictly beyond t
            idx = np.searchsorted(self.dists, t, side="right")
            tailw = np.concatenate(
                (np.cumsum(self.weights[::-1])[::-1], [0.0]))
            return tailw[idx]
        return self.sampler.tail(t)

    def strong_moment(self, p: float) -> float:
        """E d(x0, X)^p where finite."""
        if self.kind == "empirical":
            return float(np.sum(self.weights * self.dists ** p))
        s = self.sampler
        if s.family == "point-mass":
            return 0.0
        if s.family == "pareto-radial":
            if p >= s.a:
                return INF
            return s.scale ** p * s.a / (s.a - p)
        # bounded or stretched-exponential: integrate p t^{p-1} H(t)
        val, _ = self.i_detail(1.0, p)
        return p * val

    def max_dist(self) -> float:
        if self.kind == "empirical":
            return float(self.dists[-1]) if self.dists.size else 0.0
        s = self.sampler
        md = s.metadata()
        if "delta_diam" in md:
            return float(md["delta_diam"])
        return INF

    def scaled(self, c: float) -> "TailProfile":
        """Profile after multiplying the metric by c (empirical only)."""
        if self.kind != "empirical":
            raise TailError("scaling is implemented for empirical profiles")
        return TailProfile("empirical", self.dists * c, self.weights.copy())

    # -- internals ----------------------------------------------------------

    def _step(self) -> Tuple[np.ndarray, np.ndarray]:
        """Unique jump points t_k and tail mass H(t_k) just beyond them."""
        t, inv = np.unique(self.dists, return_inverse=True)
        w = np.zeros(t.size)
        np.add.at(w, inv, self.weights)
        tail = np.concatenate((np.cumsum(w[::-1])[::-1], [0.0]))[1:]
        return t, tail

    def i_detail(self, exponent: float, p: float) -> Tuple[float, float]:
        """(value, truncation/quadrature error) of the tail integral."""
        if self.kind == "empirical":
            t, tail = self._step()
            if t.size == 0:
                return 0.0, 0.0
            # H = 1 on [0, t_0), H = tail_k on [t_k, t_{k+1})
            edges = np.concatenate(([0.0], t))
            H_on = np.concatenate(([1.0], tail))[:-1]
            pieces = H_on ** exponent * np.diff(edges ** p) / p
            return float(np.sum(pieces)), 0.0

        s = self.sampler
        if s.family == "point-mass":
            return 0.0, 0.0
        if s.family == "pareto-radial":
            if s.a * exponent <= p:
                return INF, 0.0
            # exact: scale^p * [1/p + 1/(a*exponent - p)]
            val = s.scale ** p * (1.0 / p + 1.0 / (s.a * exponent - p))
            return float(val), 0.0

        def f(t):
            return float(self.H(t)) ** exponent * t ** (p - 1.0)

        top = self.max_dist()
        if math.isinf(top):  # exp-radial: cut where H^exponent is negligible
            top = (745.0 / (s.lam * exponent)) ** (1.0 / s.kappa) * s.scale
        from scipy import integrate
        val, err = integrate.quad(f, 0.0, top, limit=400)
        return float(val), float(err)


def weak_moment(profile: TailProfile, q: float) -> float:
    """sup_t t^q H(t), the q-th weak moment raised to the q-th power.

    Empirical profiles take the sup exactly over left limits at the jump
    points; analytic families use closed forms where available, else a
    refined grid search. Divergence returns +inf.
    """
    if q < 1:
        raise TailError("q must be >= 1")
    if profile.kind == "empirical":
        t, tail = profile._step()
        if t.size == 0:
            return 0.0
        # H(t^-) at jump t_k is the tail just before it: mass of d >= t_k
        left = np.concatenate(([1.0], tail))[:-1]
        cand = t ** q * left
        sup = float(np.max(cand)) if cand.size else 0.0
        return max(sup, 0.0)

    s = profile.sampler
    if s.family == "point-mass":
        return 0.0
    if s.family == "uniform-sphere":
        return s.scale ** q
    if s.family == "pareto-radial":
        if q > s.a:
            return INF
        return s.scale ** q  # sup attained at t = scale
    if s.family == "exp-radial":
        tstar = (q / (s.lam * s.kappa)) ** (1.0 / s.kappa)
        return s.scale ** q * tstar ** q * math.exp(-s.lam * tstar ** s.kappa)
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
        return {"value": self.value, "error": self.error,
                "finite": self.finite}


def i_integral(profile: TailProfile, exponent: float, p: float) -> IntegralValue:
    """Tail integral int_0^inf H(t)^exponent t^{p-1} dt.

    Exact piecewise sums for empirical step tails; quadrature with a
    reported truncation error for analytic tails. Divergence (decided
    from the family's polynomial decay, never numerically) is flagged.
    """
    if not (0.0 < exponent <= 1.0):
        raise TailError("exponent must lie in (0, 1]")
    if p < 1:
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
        return {"value": self.value, "ci_low": self.ci_low,
                "ci_high": self.ci_high, "finite": self.finite,
                "n_mc": self.n_mc, "method": self.method}


def exp_moment(source, kappa: float, lam_exp: float, n_mc: int = 100000,
               seed: int = 0) -> ExpMomentEstimate:
    """E exp(lam_exp * d(x0, X)^kappa) for a sampler or empirical profile.

    Divergence is declared from the family's tail metadata; Monte Carlo is
    only used for finite cases (CLT interval at 3 sigma).
    """
    if kappa <= 0 or lam_exp <= 0:
        raise TailError("kappa and lam_exp must be positive")

    if isinstance(source, TailProfile) and source.kind == "empirical":
        vals = np.exp(lam_exp * source.dists ** kappa)
        v = float(np.sum(source.weights * vals))
        return ExpMomentEstimate(v, v, v, True, 0, "exact-empirical")

    s = source.sampler if isinstance(source, TailProfile) else source
    if not isinstance(s, SyntheticSampler):
        raise TailError("source must be a sampler or empirical profile")

    if s.family == "pareto-radial":
        return ExpMomentEstimate(INF, INF, INF, False, 0, "metadata")
    if s.family == "exp-radial":
        k_eff = kappa  # distances scale by s.scale
        if k_eff > s.kappa or (k_eff == s.kappa
                               and lam_exp * s.scale ** s.kappa >= s.lam):
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


def tail_csv_rows(profile: TailProfile, n: int = 200):
    """(t, H(t)) rows on a log-spaced grid for plotting."""
    top = profile.max_dist()
    if not math.isfinite(top) or top <= 0:
        top = 1.0
        while float(profile.H(top)) > 1e-9 and top < 1e12:
            top *= 2.0
    lo = max(top * 1e-6, 1e-12)
    grid = np.concatenate(([0.0], np.geomspace(lo, top, n - 1)))
    H = np.asarray(profile.H(grid), dtype=float)
    return list(zip(map(float, grid), map(float, H)))
