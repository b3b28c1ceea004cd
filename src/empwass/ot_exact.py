"""Exact W_p^p between discrete measures: 1D closed form, quantile
integrals against continuous references, and a min-cost-flow solver."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import _kernels
from .measures import DiscreteMeasure

# Combined-atom cap for wpp_mcf. HiGHS on square instances (2 cores):
# 40 atoms a side 12 ms, 80: 49 ms, 200: 0.30 s, 500: 2.9 s.
MAX_MCF_ATOMS = 5000


class OTError(ValueError):
    pass


@dataclass(frozen=True)
class WppValue:
    value: float
    p: float
    method: str
    error: float = 0.0

    def to_dict(self) -> dict:
        return {"value": self.value, "p": self.p, "method": self.method,
                "error": self.error}


@dataclass
class TransportPlan:
    src: np.ndarray   # indices into mu's atom list
    dst: np.ndarray   # indices into nu's atom list
    mass: np.ndarray
    cost: float

    def validate(self, mu: DiscreteMeasure, nu: DiscreteMeasure, p: float,
                 tol: float = 1e-9) -> None:
        if np.any(self.mass < -tol):
            raise OTError("negative plan mass")
        row = np.zeros(mu.n_atoms)
        np.add.at(row, self.src, self.mass)
        col = np.zeros(nu.n_atoms)
        np.add.at(col, self.dst, self.mass)
        if np.max(np.abs(row - mu.weights)) > tol:
            raise OTError("plan row sums do not match source weights")
        if np.max(np.abs(col - nu.weights)) > tol:
            raise OTError("plan column sums do not match target weights")
        d = np.array([mu.space.dist(int(mu.idx[i]), int(nu.idx[j]))
                      for i, j in zip(self.src, self.dst)])
        c = float(np.sum(self.mass * d ** p))
        if abs(c - self.cost) > tol * max(1.0, abs(self.cost)):
            raise OTError("plan cost does not match recomputation")

    def to_rows(self, mu: DiscreteMeasure, nu: DiscreteMeasure, p: float):
        """(i, j, mass, cost contribution) rows for CSV export."""
        rows = []
        for i, j, m in zip(self.src, self.dst, self.mass):
            d = mu.space.dist(int(mu.idx[i]), int(nu.idx[j]))
            rows.append((int(i), int(j), float(m), float(m * d ** p)))
        return rows


# ---------------------------------------------------------------------------
# 1D closed form
# ---------------------------------------------------------------------------

def _positions_1d(m: DiscreteMeasure) -> np.ndarray:
    sp = m.space
    if sp.kind != "euclidean" or sp.dim != 1:
        raise OTError("measure is not supported on the line")
    return sp.points[m.idx, 0]


def _staircase(m: DiscreteMeasure):
    x = _positions_1d(m)
    order = np.argsort(x, kind="stable")
    xs = x[order]
    cs = np.cumsum(m.weights[order])
    cs[-1] = 1.0
    return xs, cs


def wpp_1d(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float) -> WppValue:
    """Exact quantile-coupling W_p^p for measures on the line."""
    if p < 1:
        raise OTError("p must be >= 1")
    xa, ca = _staircase(mu)
    xb, cb = _staircase(nu)
    v = float(_kernels.wpp_staircase(xa, ca, xb, cb, float(p)))
    return WppValue(v, float(p), "closed-form-1d")


def wpp_1d_arrays(xa, wa, xb, wb, p: float) -> float:
    """Staircase W_p^p for raw (positions, weights) arrays on the line."""
    xa = np.asarray(xa, float)
    xb = np.asarray(xb, float)
    oa = np.argsort(xa, kind="stable")
    ob = np.argsort(xb, kind="stable")
    ca = np.cumsum(np.asarray(wa, float)[oa])
    cb = np.cumsum(np.asarray(wb, float)[ob])
    ca /= ca[-1]
    cb /= cb[-1]
    ca[-1] = cb[-1] = 1.0
    return float(_kernels.wpp_staircase(xa[oa], ca, xb[ob], cb, float(p)))


# ---------------------------------------------------------------------------
# Empirical measure vs analytic quantile function
# ---------------------------------------------------------------------------

_GL32 = np.polynomial.legendre.leggauss(32)
_GL16 = np.polynomial.legendre.leggauss(16)

_UEPS = 1e-13


def wpp_1d_vs_quantile(sample_positions, quantile_fn: Callable, p: float,
                       grid: int = 2048,
                       quantile_antideriv: Optional[Callable] = None) -> WppValue:
    """W_p^p between an empirical measure on the line and a continuous
    reference given by its quantile function.

    Integrates |F_n^{-1}(u) - q(u)|^p over each order-statistic
    subinterval, splitting at the (unique, by monotonicity) crossing.
    When p = 1 and the antiderivative of q is supplied the integral is
    closed-form; otherwise Gauss-Legendre panels are used and the
    reported error is the 16- vs 32-node refinement gap.
    """
    if p < 1:
        raise OTError("p must be >= 1")
    if grid < 1000:
        raise OTError("grid must be >= 1000")
    xs = np.sort(np.asarray(sample_positions, dtype=float))
    n = xs.size

    ugrid = np.linspace(_UEPS, 1.0 - _UEPS, grid)
    qs = np.asarray(quantile_fn(ugrid), dtype=float)
    if np.any(np.diff(qs) < -1e-9 * (1.0 + np.max(np.abs(qs[np.isfinite(qs)])))):
        raise OTError("quantile function samples are not monotone")

    def q(u):
        return np.asarray(quantile_fn(np.clip(u, _UEPS, 1.0 - _UEPS)),
                          dtype=float)

    lo = np.arange(n) / n
    hi = np.arange(1, n + 1) / n
    qlo = q(lo)
    qhi = q(hi)
    crossing = (qlo < xs) & (xs < qhi)
    # vectorized bisection for the sign-change point in each interval
    us = hi.copy()
    if np.any(crossing):
        a = lo[crossing].copy()
        b = hi[crossing].copy()
        xc = xs[crossing]
        for _ in range(60):
            m = 0.5 * (a + b)
            below = q(m) < xc
            a = np.where(below, m, a)
            b = np.where(below, b, m)
        us[crossing] = 0.5 * (a + b)

    if p == 1.0 and quantile_antideriv is not None:
        def Q(u):
            return np.asarray(quantile_antideriv(np.asarray(u, dtype=float)),
                              dtype=float)

        sgn = np.where(qhi <= xs, 1.0, -1.0)   # +1 if q below x throughout
        base = sgn * (xs * (hi - lo) - (Q(hi) - Q(lo)))
        cross = (xs * (us - lo) - (Q(us) - Q(lo))) \
            + ((Q(hi) - Q(us)) - xs * (hi - us))
        total = float(np.sum(np.where(crossing, cross, base)))
        return WppValue(total, 1.0, "quantile-integral", 0.0)

    def integrate(nodes):
        gx, gw = nodes

        def panel(a, b, xv):
            mid = 0.5 * (a + b)
            half = 0.5 * (b - a)
            u = mid[:, None] + half[:, None] * gx[None, :]
            f = np.abs(xv[:, None] - q(u.ravel()).reshape(u.shape)) ** p
            return float(np.sum(half * (f @ gw)))

        total = panel(lo, np.where(crossing, us, hi), xs)
        if np.any(crossing):
            total += panel(us[crossing], hi[crossing], xs[crossing])
        return total

    v32 = integrate(_GL32)
    v16 = integrate(_GL16)
    return WppValue(float(v32), float(p), "quantile-integral",
                    abs(v32 - v16))


# ---------------------------------------------------------------------------
# Exact min-cost flow for general discrete measures
# ---------------------------------------------------------------------------

def _drop_zero(m: DiscreteMeasure):
    keep = m.weights > 0.0
    return m.idx[keep], m.weights[keep]


def wpp_mcf(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float):
    """Exact optimum of the transportation LP with costs d^p.

    Uniform same-size instances are routed through an exact assignment
    solve; everything else goes to HiGHS's dual simplex, whose optimum
    must pass a dual certificate (reduced costs >= -tol). Returns
    (WppValue, TransportPlan).
    """
    if p < 1:
        raise OTError("p must be >= 1")
    if mu.space is not nu.space:
        raise OTError("measures live on different spaces")
    ia, wa = _drop_zero(mu)
    ib, wb = _drop_zero(nu)
    if ia.size + ib.size > MAX_MCF_ATOMS:
        raise OTError(f"instance exceeds {MAX_MCF_ATOMS} combined atoms")
    if abs(wa.sum() - wb.sum()) > 1e-10:
        raise OTError("weight sums differ: transportation problem infeasible")

    # positions of surviving atoms in the original atom lists
    pos_a = np.flatnonzero(mu.weights > 0.0)
    pos_b = np.flatnonzero(nu.weights > 0.0)

    C = mu.space.distance_block(ia, ib) ** p

    m, n = C.shape
    uniform = (
        m == n
        and np.all(np.abs(wa - 1.0 / m) <= 1e-15)
        and np.all(np.abs(wb - 1.0 / n) <= 1e-15)
    )
    if uniform:
        rows, cols = linear_sum_assignment(C)
        cost = float(C[rows, cols].sum() / m)
        plan = TransportPlan(pos_a[rows], pos_b[cols],
                             np.full(m, 1.0 / m), cost)
        return WppValue(cost, float(p), "min-cost-flow"), plan

    b = wb * (wa.sum() / wb.sum())
    tol = 1e-12 * max(1.0, float(C.max()))
    X, status = _kernels.transport_simplex(wa, b, C, tol, 4000 * (m + n + 8))
    if status != 0:
        raise OTError("HiGHS transport solve failed or its optimum failed "
                      "the dual certificate")
    ii, jj = np.nonzero(X > 1e-16)
    cost = float(np.sum(X * C))
    plan = TransportPlan(pos_a[ii], pos_b[jj], X[ii, jj], cost)
    return WppValue(cost, float(p), "min-cost-flow"), plan


def wpp_to_point(m: DiscreteMeasure, x0: int, p: float) -> float:
    """W_p^p(m, delta_{x0}) = sum of weight * d(x0, atom)^p."""
    d = m.space.distance_block(np.asarray([x0]), m.idx)[0]
    return float(np.sum(m.weights * d ** p))
