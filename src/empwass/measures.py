"""Discrete measures, and synthetic samplers with their closed-form
tails, strong and weak moments and tail integrals."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .metric_core import FiniteMetricSpace

_WEIGHT_TOL = 1e-12


class MeasureError(ValueError):
    pass


class DiscreteMeasure:
    """Weighted atoms on a finite metric space."""

    def __init__(self, space: FiniteMetricSpace, idx, weights):
        self.space = space
        self.idx = np.asarray(idx, dtype=np.int64)
        self.weights = np.asarray(weights, dtype=float)
        if self.idx.shape != self.weights.shape or self.idx.ndim != 1:
            raise MeasureError("atom indices and weights must be parallel 1D arrays")
        if self.idx.size == 0:
            raise MeasureError("measure needs at least one atom")
        ordered = np.sort(self.idx)
        if np.any(ordered[1:] == ordered[:-1]):
            raise MeasureError("atom indices must be distinct")
        if ordered[0] < 0 or ordered[-1] >= space.n:
            raise MeasureError("atom index out of range")
        if np.any(self.weights < -_WEIGHT_TOL):
            raise MeasureError("negative atom weight")
        s = float(self.weights.sum())
        if abs(s - 1.0) > 1e-10:
            raise MeasureError(f"weights sum to {s}, expected 1")
        self.idx.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def n_atoms(self) -> int:
        return self.idx.size


def uniform_pair(pa: np.ndarray, pb: np.ndarray):
    """(space, mu, nu): the Euclidean space on the rows of pa then pb, and
    the uniform measures on pa's rows and on pb's rows."""
    if pa.shape[1] != pb.shape[1]:
        raise MeasureError("point sets have different dimensions")
    space = FiniteMetricSpace.from_points(np.vstack([pa, pb]))
    na, nb = pa.shape[0], pb.shape[0]
    mu = DiscreteMeasure(space, np.arange(na), np.full(na, 1.0 / na))
    nu = DiscreteMeasure(space, np.arange(na, na + nb), np.full(nb, 1.0 / nb))
    return space, mu, nu


def mix(components) -> DiscreteMeasure:
    """Mixture sum(lam_i * mu_i) of measures on one common space."""
    if not components:
        raise MeasureError("empty mixture")
    lams = np.asarray([c[0] for c in components], dtype=float)
    if np.any(lams < 0):
        raise MeasureError("mixture weights must be nonnegative")
    if abs(lams.sum() - 1.0) > 1e-10:
        raise MeasureError(f"mixture weights sum to {lams.sum()}, expected 1")
    space = components[0][1].space
    for _, m in components:
        if m.space is not space:
            raise MeasureError("mixture components live on different spaces")
    used = [(lam, m) for lam, m in components if lam != 0.0]
    idx, at = np.unique(np.concatenate([m.idx for _, m in used]),
                        return_inverse=True)
    # add.at sums each atom's terms in component order
    w = np.zeros(idx.size)
    np.add.at(w, at, np.concatenate([lam * m.weights for lam, m in used]))
    return DiscreteMeasure(space, idx, w / w.sum())


def restrict(mu: DiscreteMeasure, subset):
    """Conditional measure on `subset` and the mass mu(subset).

    Returns (None, 0.0) when the subset carries no mass.
    """
    keep = np.isin(mu.idx, np.asarray(subset, dtype=np.int64))
    mass = float(mu.weights[keep].sum())
    if mass <= 0.0:
        return None, 0.0
    idx = mu.idx[keep]
    w = mu.weights[keep] / mass
    return DiscreteMeasure(mu.space, idx, w), mass


# ---------------------------------------------------------------------------
# Synthetic samplers
# ---------------------------------------------------------------------------

# the fields each family reads, in spec order, and their defaults:
# (name, type) when required and (name, type, default) when not
_SPEC_FIELDS = {
    "point-mass": (("d", int, 1),), "uniform-cube": (("d", int, 1),),
    "uniform-cantor": (("ratio", float, 1.0 / 3.0),),
    "uniform-sphere": (("d", int, 2),),
    "pareto-radial": (("a", float), ("d", int, 1)),
    "exp-radial": (("kappa", float), ("lam", float), ("d", int, 1)),
}

_CANTOR_DEPTH = 40


@dataclass(frozen=True)
class SyntheticSampler:
    """An i.i.d. sampler with analytic covering/tail metadata where valid.

    `_SPEC_FIELDS` fills the fields its family reads, which alone may be
    set (a family without `d` is 1-D). Metadata fields are present only
    when exact for the family: `alpha` (covering dimension of the
    support), `delta_diam` (diameter when bounded), `x0` (reference
    coordinate), plus closed-form tail helpers.
    """

    family: str
    d: Optional[int] = None
    a: Optional[float] = None        # pareto tail index
    kappa: Optional[float] = None    # exp-radial shape
    lam: Optional[float] = None      # exp-radial rate
    ratio: Optional[float] = None    # cantor contraction ratio

    def __post_init__(self):
        if self.family not in _SPEC_FIELDS:
            raise MeasureError(f"unknown sampler family {self.family!r}")
        takes = {f[0]: f[1:] for f in _SPEC_FIELDS[self.family]}
        for name in ("d", "a", "kappa", "lam", "ratio"):
            if getattr(self, name) is not None and name not in takes:
                raise MeasureError(f"{self.family} takes no {name}")
        for name, (kind, *default) in {"d": (int, 1), **takes}.items():
            value = getattr(self, name)
            if value is None:
                if not default:
                    raise MeasureError(f"{self.family} needs {name}")
                value = default[0]
            elif not isinstance(value, numbers.Real) or (
                    kind is int and not (math.isfinite(value)
                                         and value == int(value))):
                raise MeasureError(
                    f"{self.family} {name} must be "
                    f"{'an integer' if kind is int else 'a number'}, "
                    f"got {value!r}")
            # the spec's type, so equal samplers write equal metadata
            object.__setattr__(self, name, kind(value))
        if self.d < 1:
            raise MeasureError("dimension must be >= 1")
        if self.family == "pareto-radial" and not 0 < self.a < math.inf:
            raise MeasureError("pareto-radial needs a finite a > 0")
        if self.family == "exp-radial" and not (0 < self.kappa < math.inf
                                                and 0 < self.lam < math.inf):
            raise MeasureError("exp-radial needs finite kappa > 0, lam > 0")
        if self.family == "uniform-cantor" and not (0 < self.ratio < 0.5):
            raise MeasureError("cantor ratio must lie in (0, 1/2)")

    # -- sampling ----------------------------------------------------------

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if n < 1:
            raise MeasureError("sample size must be >= 1")
        f, d = self.family, self.d
        if f == "point-mass":
            pts = np.zeros((n, d))
        elif f == "uniform-cube":
            pts = rng.random((n, d))
        elif f == "uniform-cantor":
            bits = rng.integers(0, 2, size=(n, _CANTOR_DEPTH)).astype(float)
            r = self.ratio
            pows = r ** np.arange(_CANTOR_DEPTH)
            pts = ((1.0 - r) * bits @ pows).reshape(n, 1)
        elif f == "uniform-sphere":
            pts = self._sphere(n, rng)
        elif f == "pareto-radial":
            rad = rng.random(n) ** (-1.0 / self.a)
            pts = self._sphere(n, rng) * rad[:, None]
        elif f == "exp-radial":
            rad = (-np.log(rng.random(n)) / self.lam) ** (1.0 / self.kappa)
            pts = self._sphere(n, rng) * rad[:, None]
        else:  # pragma: no cover
            raise AssertionError(f)
        return pts

    def _sphere(self, n, rng):
        if self.d == 1:
            return (2.0 * rng.integers(0, 2, size=(n, 1)) - 1.0).astype(float)
        g = rng.standard_normal((n, self.d))
        return g / np.linalg.norm(g, axis=1, keepdims=True)

    # -- analytic metadata ---------------------------------------------------

    def metadata(self) -> dict:
        # "scale" (always 1.0) stays so that recorded outputs keep their bytes
        md: dict = {"family": self.family, "d": self.d, "scale": 1.0,
                    "x0": [0.0] * self.d}
        f = self.family
        if f == "point-mass":
            md.update(alpha=0.0, delta_diam=0.0)
        elif f == "uniform-cube":
            md.update(alpha=float(self.d), delta_diam=float(np.sqrt(self.d)))
        elif f == "uniform-cantor":
            md.update(alpha=float(np.log(2.0) / np.log(1.0 / self.ratio)),
                      delta_diam=1.0, ratio=self.ratio)
        elif f == "uniform-sphere":
            md.update(alpha=float(max(self.d - 1, 1)), delta_diam=2.0)
        elif f == "pareto-radial":
            md.update(a=self.a)
        elif f == "exp-radial":
            md.update(kappa=self.kappa, lam=self.lam)
        return md

    # tail function H(t) = mu(B(x0, t)^c) with x0 the origin
    def tail(self, t):
        t = np.asarray(t, dtype=float)
        f = self.family
        if f == "point-mass":
            return np.where(t >= 0, 0.0, 1.0)
        if f == "uniform-cube" and self.d == 1:
            return np.clip(1.0 - t, 0.0, 1.0)
        if f == "uniform-cantor":
            return np.where(t < 0, 1.0, 1.0 - self._cantor_cdf(np.maximum(t, 0.0)))
        if f == "uniform-sphere":
            return np.where(t < 1.0, 1.0, 0.0)
        if f == "pareto-radial":
            with np.errstate(divide="ignore"):
                return np.where(t <= 1.0, 1.0, np.maximum(t, 1.0) ** (-self.a))
        if f == "exp-radial":
            return np.where(t < 0, 1.0, np.exp(-self.lam * np.maximum(t, 0.0) ** self.kappa))
        return None  # no closed form (e.g. uniform-cube d >= 2)

    def _cantor_cdf(self, x):
        x = np.array(x, dtype=float)
        r = self.ratio
        val = np.zeros_like(x)
        half = 0.5
        xx = x.copy()
        done = np.zeros_like(x, dtype=bool)
        for _ in range(_CANTOR_DEPTH):
            left = xx < r
            mid = (~left) & (xx < 1.0 - r)
            right = xx >= 1.0 - r
            val = np.where(mid & ~done, val + half, val)
            done |= mid
            val = np.where(right & ~done, val + half, val)
            xx = np.where(left, xx / r, (xx - (1.0 - r)) / r)
            half *= 0.5
        return np.where(x <= 0, 0.0, np.where(x >= 1, 1.0, val))

    # 1D distribution helpers (present only where exact)
    def cdf(self, x):
        if self.d != 1:
            return None
        x = np.asarray(x, dtype=float)
        f = self.family
        if f == "point-mass":
            return (x >= 0).astype(float)
        if f == "uniform-cube":
            return np.clip(x, 0.0, 1.0)
        if f == "uniform-cantor":
            return self._cantor_cdf(x)
        if f == "pareto-radial":
            out = np.where(x <= -1.0, 0.5 * np.abs(x) ** (-self.a), 0.5)
            return np.where(x >= 1.0, 1.0 - 0.5 * x ** (-self.a), out)
        if f == "exp-radial":
            ax = np.abs(x)
            h = 0.5 * np.exp(-self.lam * ax ** self.kappa)
            return np.where(x >= 0, 1.0 - h, h)
        if f == "uniform-sphere":
            return np.where(x < -1.0, 0.0, np.where(x < 1.0, 0.5, 1.0))
        return None

    def quantile(self, u):
        if self.d != 1:
            return None
        u = np.asarray(u, dtype=float)
        f = self.family
        if f == "point-mass":
            return np.zeros_like(u)
        if f == "uniform-cube":
            return u.copy()
        if f == "pareto-radial":
            lowu = np.minimum(2.0 * u, 1.0)
            highu = np.minimum(2.0 * (1.0 - u), 1.0)
            with np.errstate(divide="ignore"):
                return np.where(u < 0.5,
                                -np.maximum(lowu, 1e-300) ** (-1.0 / self.a),
                                np.maximum(highu, 1e-300) ** (-1.0 / self.a))
        if f == "exp-radial":
            w = np.where(u < 0.5, 2.0 * u, 2.0 * (1.0 - u))
            w = np.maximum(w, 1e-300)
            rad = (-np.log(w) / self.lam) ** (1.0 / self.kappa)
            return np.where(u < 0.5, -rad, rad)
        if f == "uniform-sphere":
            return np.where(u < 0.5, -1.0, 1.0)
        return None

    def quantile_antideriv(self, u):
        """Q(u) = integral of the quantile from 0 to u (closed forms only)."""
        if self.d != 1:
            return None
        u = np.asarray(u, dtype=float)
        f = self.family
        if f == "point-mass":
            return np.zeros_like(u)
        if f == "uniform-cube":
            return 0.5 * u * u
        if f == "uniform-sphere":
            return np.where(u < 0.5, -u, u - 1.0)
        if f == "pareto-radial" and self.a > 1.0:
            a = self.a
            c = 1.0 - 1.0 / a
            lo = -(0.5 / c) * np.minimum(2.0 * u, 1.0) ** c
            hi = -(0.5 / c) + (0.5 / c) * (1.0 - np.minimum(2.0 * (1 - u), 1.0) ** c)
            return np.where(u < 0.5, lo, hi)
        return None

    # -- moments and tail integrals of H -------------------------------------

    def _require_tail(self):
        if self.tail(np.asarray([0.0])) is None:
            raise MeasureError(f"no closed-form tail for {self.family} d={self.d}")

    def strong_moment(self, p: float) -> float:
        """E d(x0, X)^p where finite, that is p * tail_integral(1, p)."""
        val, _ = self.tail_integral(1.0, p)
        if self.family == "pareto-radial":
            return math.inf if p >= self.a else self.a / (self.a - p)
        return p * val

    def tail_integral(self, exponent: float, p: float) -> tuple[float, float]:
        """(value, quadrature error) of int_0^inf H(t)^exponent t^{p-1} dt.

        Closed form for Pareto tails, else quadrature (0 for a point mass).
        Divergence, decided from the family's polynomial decay and never
        numerically, returns +inf.
        """
        if not (0.0 < exponent <= 1.0):
            raise MeasureError("exponent must lie in (0, 1]")
        if not p >= 1:
            raise MeasureError("p must be >= 1")
        self._require_tail()
        if self.family == "pareto-radial":
            if self.a * exponent <= p:
                return math.inf, 0.0
            # exact: 1/p + 1/(a*exponent - p)
            return float(1.0 / p + 1.0 / (self.a * exponent - p)), 0.0

        def f(t):
            return float(self.tail(t)) ** exponent * t ** (p - 1.0)

        top = float(self.metadata().get("delta_diam", math.inf))
        if math.isinf(top):  # exp-radial: cut where H^exponent is negligible
            top = (745.0 / (self.lam * exponent)) ** (1.0 / self.kappa)
        from scipy import integrate
        val, err = integrate.quad(f, 0.0, top, limit=400)
        return float(val), float(err)

    def weak_moment(self, q: float) -> float:
        """sup_t t^q H(t), the q-th weak moment raised to the q-th power.

        Closed forms where the family has one, else a refined grid search.
        Divergence returns +inf.
        """
        if not q >= 1:
            raise MeasureError("q must be >= 1")
        self._require_tail()
        f = self.family
        if f == "uniform-sphere":
            return 1.0
        if f == "pareto-radial":
            return math.inf if q > self.a else 1.0  # sup attained at t = 1
        if f == "exp-radial":
            tstar = (q / (self.lam * self.kappa)) ** (1.0 / self.kappa)
            return tstar ** q * math.exp(-self.lam * tstar ** self.kappa)
        # bounded families and point masses: refined grid search to convergence
        top = float(self.metadata().get("delta_diam", math.inf))
        val = 0.0
        grid = np.linspace(0.0, top, 1 << 12)
        for _ in range(6):
            cand = grid ** q * np.asarray(self.tail(grid), dtype=float)
            k = int(np.argmax(cand))
            new = float(cand[k])
            lo = grid[max(k - 1, 0)]
            hi = grid[min(k + 1, grid.size - 1)]
            if new <= val * (1.0 + 1e-9) and val > 0.0:
                return new
            val = max(val, new)
            grid = np.linspace(lo, hi, 1 << 12)
        return val


def sampler_from_string(text: str) -> SyntheticSampler:
    """Parse forms like 'uniform-cube:3', 'pareto-radial:3.0:1',
    'point-mass'; a field that the family does not take is refused."""
    fam, *args = text.split(":")
    if fam not in _SPEC_FIELDS:
        raise MeasureError(f"unknown sampler family {fam!r}")
    fields = _SPEC_FIELDS[fam]
    if not sum(len(f) == 2 for f in fields) <= len(args) <= len(fields):
        form = "".join(f":{f[0]}" if len(f) == 2 else f"[:{f[0]}]"
                       for f in fields)
        raise MeasureError(f"bad sampler spec {text!r}: not {fam}{form}")
    try:
        kw = {f[0]: f[1](a) for f, a in zip(fields, args)}
    except ValueError as exc:
        raise MeasureError(f"bad sampler spec {text!r}: {exc}") from None
    return SyntheticSampler(fam, **kw)
