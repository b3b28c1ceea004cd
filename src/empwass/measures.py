"""Discrete measures, and synthetic samplers with their closed-form
tails, strong and weak moments and tail integrals."""

from __future__ import annotations

import math
import numbers
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

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

_CANTOR_DEPTH = 40
# a spec field: its type, its default (None: the spec must set it) and the
# open range (0, hi) of its value
_Field = namedtuple("_Field", "name kind default hi", defaults=(None, math.inf))
_D = _Field("d", int, 1)    # a family without this field is 1-D


@dataclass(frozen=True)
class _Family:
    """One sampler family. Each closed form takes the sampler first, and
    None means that the family has none."""
    fields: Tuple[_Field, ...]       # in spec order
    draw: Callable                   # (s, n, rng) -> (n, d) points
    extras: Callable = lambda s: {}  # metadata exact beyond the fields
    tail_index: Callable = lambda s: math.inf   # the a of H(t) ~ t^-a
    tail: Optional[Callable] = None       # H(t) = mu(|X| > t)
    cdf: Optional[Callable] = None        # on the line
    quantile: Optional[Callable] = None   # on the line
    antideriv: Optional[Callable] = None  # the quantile's integral from 0
    weak: Optional[Callable] = None       # sup_t t^q H(t)
    integral: Optional[Callable] = None   # tail_integral's (value, error)
    strong: Optional[Callable] = None     # E |X|^p
    # the radius past which H^e is negligible, for quadrature
    reach: Callable = lambda s, e: float(s.metadata().get("delta_diam",
                                                           math.inf))
    # form -> the condition on the fields under which it holds
    only_if: dict = field(default_factory=dict)


def _sphere(s, n, rng):
    if s.d == 1:
        return (2.0 * rng.integers(0, 2, size=(n, 1)) - 1.0).astype(float)
    g = rng.standard_normal((n, s.d))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def _radial(H, H_inv, **forms) -> _Family:
    """The radius R = H^-1(U) times a uniform direction (+-1 on the line),
    from the tail H(t) = P(R > t) and its inverse H^-1 on (0, 1]."""

    def draw(s, n, rng):
        rad = H_inv(s, rng.random(n))
        return _sphere(s, n, rng) * rad[:, None]

    def quantile(s, u):
        w = np.where(u < 0.5, 2.0 * u, 2.0 * (1.0 - u))
        rad = H_inv(s, np.maximum(w, 1e-300))
        return np.where(u < 0.5, -rad, rad)

    return _Family(draw=draw, quantile=quantile, tail=H, cdf=lambda s, x: (
        np.where(x >= 0, 1.0 - H(s, x) / 2, H(s, -x) / 2)), **forms)


def _cantor_draw(s, n, rng):
    bits = rng.integers(0, 2, size=(n, _CANTOR_DEPTH)).astype(float)
    pows = s.ratio ** np.arange(_CANTOR_DEPTH)
    return ((1.0 - s.ratio) * bits @ pows).reshape(n, 1)


def _cantor_cdf(r, x):
    # digit by digit: x in the right part adds the left part's mass half,
    # and x in the gap between the parts adds it too and stops there
    val = np.zeros_like(x)
    half = 0.5
    xx = x
    live = np.ones_like(x, dtype=bool)
    for _ in range(_CANTOR_DEPTH):
        val = val + half * (live & (xx >= r))
        live &= (xx < r) | (xx >= 1.0 - r)
        xx = np.where(xx < r, xx / r, (xx - (1.0 - r)) / r)
        half *= 0.5
    return np.where(x <= 0, 0.0, np.where(x >= 1, 1.0, val))


def _pareto_antideriv(s, u):
    c = 1.0 - 1.0 / s.a
    lo = -(0.5 / c) * np.minimum(2.0 * u, 1.0) ** c
    hi = -(0.5 / c) + (0.5 / c) * (1.0 - np.minimum(2.0 * (1 - u), 1.0) ** c)
    return np.where(u < 0.5, lo, hi)


def _exp_weak(s, q):
    tstar = (q / (s.lam * s.kappa)) ** (1.0 / s.kappa)
    return tstar ** q * math.exp(-s.lam * tstar ** s.kappa)


# family -> its entry; a new family is one more entry
_FAMILIES = {
    "point-mass": _Family(
        (_D,), lambda s, n, rng: np.zeros((n, s.d)),
        extras=lambda s: {"alpha": 0.0, "delta_diam": 0.0},
        tail=lambda s, t: np.where(t >= 0, 0.0, 1.0),
        cdf=lambda s, x: (x >= 0).astype(float),
        quantile=lambda s, u: np.zeros_like(u),
        antideriv=lambda s, u: np.zeros_like(u)),
    "uniform-cube": _Family(
        (_D,), lambda s, n, rng: rng.random((n, s.d)),
        extras=lambda s: {"alpha": float(s.d),
                          "delta_diam": float(np.sqrt(s.d))},
        tail=lambda s, t: np.clip(1.0 - t, 0.0, 1.0),
        cdf=lambda s, x: np.clip(x, 0.0, 1.0),
        quantile=lambda s, u: u.copy(),
        antideriv=lambda s, u: 0.5 * u * u,
        only_if={"tail": lambda s: s.d == 1}),    # none for d >= 2
    "uniform-cantor": _Family(
        (_Field("ratio", float, 1.0 / 3.0, hi=0.5),), _cantor_draw,
        extras=lambda s: {
            "alpha": float(np.log(2.0) / np.log(1.0 / s.ratio)),
            "delta_diam": 1.0},
        tail=lambda s, t: 1.0 - _cantor_cdf(s.ratio, t),
        cdf=lambda s, x: _cantor_cdf(s.ratio, x)),
    "uniform-sphere": _Family(
        (_Field("d", int, 2),), _sphere,
        extras=lambda s: {"alpha": float(max(s.d - 1, 1)),
                          "delta_diam": 2.0},
        tail=lambda s, t: np.where(t < 1.0, 1.0, 0.0),
        cdf=lambda s, x: np.where(x < -1.0, 0.0,
                                  np.where(x < 1.0, 0.5, 1.0)),
        quantile=lambda s, u: np.where(u < 0.5, -1.0, 1.0),
        antideriv=lambda s, u: np.where(u < 0.5, -u, u - 1.0),
        weak=lambda s, q: 1.0),
    "pareto-radial": _radial(
        lambda s, t: np.maximum(t, 1.0) ** -s.a,
        lambda s, w: w ** (-1.0 / s.a),
        fields=(_Field("a", float), _D), tail_index=lambda s: s.a,
        antideriv=_pareto_antideriv,
        weak=lambda s, q: 1.0,    # attained at t = 1
        integral=lambda s, e, p: (float(1.0 / p + 1.0 / (s.a * e - p)), 0.0),
        strong=lambda s, p: s.a / (s.a - p),
        only_if={"antideriv": lambda s: s.a > 1.0}),
    "exp-radial": _radial(
        lambda s, t: np.exp(-s.lam * np.maximum(t, 0.0) ** s.kappa),
        lambda s, w: (-np.log(w) / s.lam) ** (1.0 / s.kappa),
        fields=(_Field("kappa", float), _Field("lam", float), _D),
        weak=_exp_weak,
        # past it H^e = exp(-lam e t^kappa) < e^-745, below every double
        reach=lambda s, e: (745.0 / (s.lam * e)) ** (1.0 / s.kappa)),
}


@dataclass(frozen=True)
class SyntheticSampler:
    """An i.i.d. sampler with analytic covering/tail metadata where valid.

    Its family's `_FAMILIES` entry gives the fields it reads, which alone
    may be set (a family without `d` is 1-D), its draw and each closed
    form it has. Metadata fields are present only when exact for the
    family: `alpha` (covering dimension of the support), `delta_diam`
    (diameter when bounded), `x0` (reference coordinate).
    """

    family: str
    d: Optional[int] = None
    a: Optional[float] = None        # pareto tail index
    kappa: Optional[float] = None    # exp-radial shape
    lam: Optional[float] = None      # exp-radial rate
    ratio: Optional[float] = None    # cantor contraction ratio

    def __post_init__(self):
        entry = _FAMILIES.get(self.family)
        if entry is None:
            raise MeasureError(f"unknown sampler family {self.family!r}")
        takes = {f.name: f for f in entry.fields}
        for name in ("d", "a", "kappa", "lam", "ratio"):
            if getattr(self, name) is not None and name not in takes:
                raise MeasureError(f"{self.family} takes no {name}")
        for f in {"d": _D, **takes}.values():
            value = getattr(self, f.name)
            if value is None:
                if f.default is None:
                    raise MeasureError(f"{self.family} needs {f.name}")
                value = f.default
            elif not isinstance(value, numbers.Real) or (
                    f.kind is int and not (math.isfinite(value)
                                           and value == int(value))):
                raise MeasureError(
                    f"{self.family} {f.name} must be "
                    f"{'an integer' if f.kind is int else 'a number'}, "
                    f"got {value!r}")
            # the spec's type, so equal samplers write equal metadata
            object.__setattr__(self, f.name, f.kind(value))
        if not all(0 < getattr(self, f.name) < f.hi for f in entry.fields):
            raise MeasureError(f"{self.family} needs finite " + ", ".join(
                f"{f.name} > 0" if f.hi == math.inf
                else f"{f.name} in (0, {f.hi:g})" for f in entry.fields))

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if n < 1:
            raise MeasureError("sample size must be >= 1")
        return _FAMILIES[self.family].draw(self, n, rng)

    def metadata(self) -> dict:
        # "scale" (always 1.0) stays so that recorded outputs keep their bytes
        entry = _FAMILIES[self.family]
        return {"family": self.family, "d": self.d, "scale": 1.0,
                "x0": [0.0] * self.d, **entry.extras(self),
                **{f.name: getattr(self, f.name) for f in entry.fields
                   if f.name != "d"}}

    @property
    def tail_index(self) -> float:
        """The a of a tail H(t) ~ t^-a: moments of order >= a diverge."""
        return _FAMILIES[self.family].tail_index(self)

    def has(self, form: str) -> bool:
        """Whether the closed form `form` (a `_Family` slot) holds here."""
        entry = _FAMILIES[self.family]
        on_line = self.d == 1 or form not in ("cdf", "quantile", "antideriv")
        return (on_line and getattr(entry, form) is not None
                and entry.only_if.get(form, lambda s: True)(self))

    def _eval(self, form, *args):
        # the closed form `form` at args, None where it does not hold
        return (getattr(_FAMILIES[self.family], form)(self, *args)
                if self.has(form) else None)

    def tail(self, t):
        """H(t) = mu(B(x0, t)^c), x0 the origin."""
        return self._eval("tail", np.asarray(t, dtype=float))

    def cdf(self, x):
        return self._eval("cdf", np.asarray(x, dtype=float))

    def quantile(self, u):
        return self._eval("quantile", np.asarray(u, dtype=float))

    def quantile_antideriv(self, u):
        """Q(u) = integral of the quantile from 0 to u."""
        return self._eval("antideriv", np.asarray(u, dtype=float))

    # -- moments and tail integrals of H -------------------------------------

    def _require_tail(self):
        if not self.has("tail"):
            raise MeasureError(f"no closed-form tail for {self.family} d={self.d}")

    def strong_moment(self, p: float) -> float:
        """E d(x0, X)^p where finite, that is p * tail_integral(1, p)."""
        val, _ = self.tail_integral(1.0, p)
        closed = self._eval("strong", p) if val < math.inf else None
        return p * val if closed is None else closed

    def tail_integral(self, exponent: float, p: float) -> tuple[float, float]:
        """(value, quadrature error) of int_0^inf H(t)^exponent t^{p-1} dt.

        The family's closed form where it has one, else quadrature up to
        the diameter (0 for a point mass). Divergence, decided from the
        tail index and never numerically, returns +inf.
        """
        if not (0.0 < exponent <= 1.0):
            raise MeasureError("exponent must lie in (0, 1]")
        if not p >= 1:
            raise MeasureError("p must be >= 1")
        self._require_tail()
        if self.tail_index * exponent <= p:
            return math.inf, 0.0
        closed = self._eval("integral", exponent, p)
        if closed is not None:
            return closed
        from scipy import integrate
        val, err = integrate.quad(
            lambda t: float(self.tail(t)) ** exponent * t ** (p - 1.0), 0.0,
            _FAMILIES[self.family].reach(self, exponent), limit=400)
        return float(val), float(err)

    def weak_moment(self, q: float) -> float:
        """sup_t t^q H(t), the q-th weak moment raised to the q-th power.

        The family's closed form where it has one, else a refined grid
        search. Divergence, decided from the tail index, returns +inf.
        """
        if not q >= 1:
            raise MeasureError("q must be >= 1")
        self._require_tail()
        if q > self.tail_index:
            return math.inf
        closed = self._eval("weak", q)
        if closed is not None:
            return closed
        # bounded families and point masses: the best of a refined grid search
        top = float(self.metadata().get("delta_diam", math.inf))
        val = 0.0
        grid = np.linspace(0.0, top, 1 << 12)
        for _ in range(6):
            cand = grid ** q * self.tail(grid)
            k = int(np.argmax(cand))
            new = float(cand[k])
            if val > 0.0 and new <= val * (1.0 + 1e-9):
                return max(val, new)
            val = max(val, new)
            grid = np.linspace(grid[max(k - 1, 0)],
                               grid[min(k + 1, grid.size - 1)], 1 << 12)
        return val


def sampler_from_string(text: str) -> SyntheticSampler:
    """Parse forms like 'uniform-cube:3', 'pareto-radial:3.0:1',
    'point-mass'; a field that the family does not take is refused."""
    fam, *args = text.split(":")
    if fam not in _FAMILIES:
        raise MeasureError(f"unknown sampler family {fam!r}")
    fields = _FAMILIES[fam].fields
    if not sum(f.default is None for f in fields) <= len(args) <= len(fields):
        form = "".join(f":{f.name}" if f.default is None else f"[:{f.name}]"
                       for f in fields)
        raise MeasureError(f"bad sampler spec {text!r}: not {fam}{form}")
    try:
        kw = {f.name: f.kind(a) for f, a in zip(fields, args)}
    except ValueError as exc:
        raise MeasureError(f"bad sampler spec {text!r}: {exc}") from None
    return SyntheticSampler(fam, **kw)
