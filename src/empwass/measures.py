"""Discrete/empirical measures and synthetic samplers with known tails."""

from __future__ import annotations

import json
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
        if np.unique(self.idx).size != self.idx.size:
            raise MeasureError("atom indices must be distinct")
        if self.idx.min() < 0 or self.idx.max() >= space.n:
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

    def mass_on(self, subset) -> float:
        w = self.weights[np.isin(self.idx, np.asarray(subset, np.int64))]
        # a running sum in atom order, not numpy's pairwise one
        return float(np.cumsum(np.append(0.0, w))[-1])

    def weight_vector(self) -> np.ndarray:
        """Weights spread over all points of the space."""
        w = np.zeros(self.space.n)
        w[self.idx] = self.weights
        return w

    def to_dict(self) -> dict:
        d = {"idx": self.idx.tolist(), "weights": self.weights.tolist()}
        if self.space.kind == "euclidean":
            d["points"] = self.space.points[self.idx].tolist()
        else:
            d["space"] = self.space.kind
        return d


class EmpiricalMeasure(DiscreteMeasure):
    """Uniform weights 1/n over n sampled points (repeats kept distinct)."""

    def __init__(self, space, idx, *, seed: Optional[int] = None,
                 family: Optional[str] = None, metadata: Optional[dict] = None):
        idx = np.asarray(idx, dtype=np.int64)
        n = idx.size
        super().__init__(space, idx, np.full(n, 1.0 / n))
        self.n = n
        self.seed = seed
        self.family = family
        self.metadata = dict(metadata or {})

    def to_dict(self) -> dict:
        d = super().to_dict()
        d.update({"n": self.n, "seed": self.seed, "family": self.family,
                  "metadata": self.metadata})
        return d


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

_FAMILIES = ("point-mass", "uniform-cube", "uniform-cantor", "uniform-sphere",
             "pareto-radial", "exp-radial")

_CANTOR_DEPTH = 40


@dataclass(frozen=True)
class SyntheticSampler:
    """An i.i.d. sampler with analytic covering/tail metadata where valid.

    Metadata fields are present only when exact for the family: `alpha`
    (covering dimension of the support), `delta_diam` (diameter when
    bounded), `x0` (reference coordinate), plus closed-form tail helpers.
    """

    family: str
    d: int = 1
    a: float = 0.0        # pareto tail index
    kappa: float = 0.0    # exp-radial shape
    lam: float = 0.0      # exp-radial rate
    ratio: float = 0.0    # cantor contraction ratio
    scale: float = 1.0    # global metric scale factor

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise MeasureError(f"unknown sampler family {self.family!r}")
        if self.d < 1:
            raise MeasureError("dimension must be >= 1")
        if self.family == "pareto-radial" and self.a <= 0:
            raise MeasureError("pareto-radial needs tail index a > 0")
        if self.family == "exp-radial" and (self.kappa <= 0 or self.lam <= 0):
            raise MeasureError("exp-radial needs kappa > 0 and lam > 0")
        if self.family == "uniform-cantor" and not (0 < self.ratio < 0.5):
            raise MeasureError("cantor ratio must lie in (0, 1/2)")
        if self.scale <= 0:
            raise MeasureError("scale must be positive")

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
            pts = ((1.0 - r) * bits @ pows)[:, None]
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
        return pts * self.scale

    def _sphere(self, n, rng):
        if self.d == 1:
            return (2.0 * rng.integers(0, 2, size=(n, 1)) - 1.0).astype(float)
        g = rng.standard_normal((n, self.d))
        return g / np.linalg.norm(g, axis=1, keepdims=True)

    # -- analytic metadata ---------------------------------------------------

    @property
    def bounded(self) -> bool:
        return self.family in ("point-mass", "uniform-cube", "uniform-cantor",
                               "uniform-sphere")

    def metadata(self) -> dict:
        s = self.scale
        md: dict = {"family": self.family, "d": self.d, "scale": s}
        f = self.family
        if f == "point-mass":
            md.update(alpha=0.0, delta_diam=0.0, x0=[0.0] * self.d)
        elif f == "uniform-cube":
            md.update(alpha=float(self.d), delta_diam=s * float(np.sqrt(self.d)),
                      x0=[0.0] * self.d)
        elif f == "uniform-cantor":
            md.update(alpha=float(np.log(2.0) / np.log(1.0 / self.ratio)),
                      delta_diam=s, x0=[0.0], ratio=self.ratio)
        elif f == "uniform-sphere":
            md.update(alpha=float(max(self.d - 1, 1)), delta_diam=2.0 * s,
                      x0=[0.0] * self.d)
        elif f == "pareto-radial":
            md.update(a=self.a, x0=[0.0] * self.d)
        elif f == "exp-radial":
            md.update(kappa=self.kappa, lam=self.lam, x0=[0.0] * self.d)
        return md

    # tail function H(t) = mu(B(x0, t)^c) with x0 the origin
    def tail(self, t):
        t = np.asarray(t, dtype=float) / self.scale
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

    def has_analytic_tail(self) -> bool:
        return not (self.family == "uniform-cube" and self.d > 1)

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
        x = np.asarray(x, dtype=float) / self.scale
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
        q = None
        if f == "point-mass":
            q = np.zeros_like(u)
        elif f == "uniform-cube":
            q = u.copy()
        elif f == "pareto-radial":
            lowu = np.minimum(2.0 * u, 1.0)
            highu = np.minimum(2.0 * (1.0 - u), 1.0)
            with np.errstate(divide="ignore"):
                q = np.where(u < 0.5,
                             -np.maximum(lowu, 1e-300) ** (-1.0 / self.a),
                             np.maximum(highu, 1e-300) ** (-1.0 / self.a))
        elif f == "exp-radial":
            w = np.where(u < 0.5, 2.0 * u, 2.0 * (1.0 - u))
            w = np.maximum(w, 1e-300)
            rad = (-np.log(w) / self.lam) ** (1.0 / self.kappa)
            q = np.where(u < 0.5, -rad, rad)
        elif f == "uniform-sphere":
            q = np.where(u < 0.5, -1.0, 1.0)
        if q is None:
            return None
        return q * self.scale

    def quantile_antideriv(self, u):
        """Q(u) = integral of the quantile from 0 to u (closed forms only)."""
        if self.d != 1:
            return None
        u = np.asarray(u, dtype=float)
        f = self.family
        if f == "point-mass":
            return np.zeros_like(u)
        if f == "uniform-cube":
            return self.scale * 0.5 * u * u
        if f == "uniform-sphere":
            return self.scale * np.where(u < 0.5, -u, u - 1.0)
        if f == "pareto-radial" and self.a > 1.0:
            a = self.a
            c = 1.0 - 1.0 / a
            lo = -(0.5 / c) * np.minimum(2.0 * u, 1.0) ** c
            hi = -(0.5 / c) + (0.5 / c) * (1.0 - np.minimum(2.0 * (1 - u), 1.0) ** c)
            return self.scale * np.where(u < 0.5, lo, hi)
        return None


def sampler_from_string(text: str) -> SyntheticSampler:
    """Parse forms like 'uniform-cube:3', 'pareto-radial:3.0:1', 'point-mass'."""
    parts = text.split(":")
    fam = parts[0]
    args = parts[1:]
    try:
        if fam == "point-mass":
            return SyntheticSampler("point-mass", d=int(args[0]) if args else 1)
        if fam == "uniform-cube":
            return SyntheticSampler("uniform-cube", d=int(args[0]) if args else 1)
        if fam == "uniform-sphere":
            return SyntheticSampler("uniform-sphere", d=int(args[0]) if args else 2)
        if fam == "uniform-cantor":
            return SyntheticSampler("uniform-cantor",
                                    ratio=float(args[0]) if args else 1.0 / 3.0)
        if fam == "pareto-radial":
            return SyntheticSampler("pareto-radial", a=float(args[0]),
                                    d=int(args[1]) if len(args) > 1 else 1)
        if fam == "exp-radial":
            return SyntheticSampler("exp-radial", kappa=float(args[0]),
                                    lam=float(args[1]),
                                    d=int(args[2]) if len(args) > 2 else 1)
    except (IndexError, ValueError) as exc:
        raise MeasureError(f"bad sampler spec {text!r}: {exc}") from None
    raise MeasureError(f"unknown sampler family {fam!r}")


def sample(sampler: SyntheticSampler, n: int, seed: int) -> EmpiricalMeasure:
    """n i.i.d. points; deterministic in (family params, n, seed)."""
    rng = np.random.default_rng(seed)
    pts = sampler.draw(n, rng)
    space = FiniteMetricSpace.from_points(pts)
    return EmpiricalMeasure(space, np.arange(n), seed=seed,
                            family=sampler.family, metadata=sampler.metadata())


# -- serialization ------------------------------------------------------------

def measure_to_json(m: DiscreteMeasure) -> str:
    return json.dumps(m.to_dict(), sort_keys=True)


def measure_from_json(text: str) -> DiscreteMeasure:
    d = json.loads(text)
    if "points" not in d:
        raise MeasureError(
            f"cannot rebuild a measure on a {d.get('space', 'non-Euclidean')} "
            "space from JSON: only Euclidean payloads carry their points")
    pts = np.asarray(d["points"])
    space = FiniteMetricSpace.from_points(pts)
    # the stored points are exactly the atoms, so indices re-base to 0..k-1
    idx = np.arange(len(pts))
    if "n" in d and d.get("n"):
        return EmpiricalMeasure(space, idx, seed=d.get("seed"),
                                family=d.get("family"),
                                metadata=d.get("metadata"))
    return DiscreteMeasure(space, idx, d["weights"])
