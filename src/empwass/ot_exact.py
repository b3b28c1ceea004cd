"""Exact W_p^p between discrete measures: 1D closed form, quantile
integrals against continuous references, and a min-cost-flow solver."""

from __future__ import annotations

import importlib.util
import math
import os
import sys
from dataclasses import asdict, dataclass
from importlib.machinery import PathFinder
from typing import Callable, Optional

import numpy as np

from . import _kernels
from .measures import DiscreteMeasure

# Combined-atom cap for wpp_mcf; half of it caps L on the assignment path
# below. HiGHS on square instances (2 cores): 40 atoms a side 12 ms,
# 80: 49 ms, 200: 0.30 s, 500: 2.9 s.
MAX_MCF_ATOMS = 5000

# Largest (L/m)(L/n), L = lcm(m, n), for which a uniform m x n instance
# is solved as the L x L assignment of its replicated cost matrix (L is
# also held to MAX_MCF_ATOMS // 2). Duplicated rows and columns slow the
# assignment down; HiGHS against the assignment, uniform points in the
# unit cube, p = 1, 2 cores: 32x24 (factor 12) 4.9 ms / 0.3 ms, 250x200
# (20) 0.29 s / 0.07 s, 500x400 (20) 2.6 s / 0.9 s, 80x2400 (30) 3.3 s /
# 1.9 s, 40x1280 (32) 0.58 s / 0.40 s, 25x1000 (40) 0.25 s / 0.20 s,
# 20x1000 (50) 0.27 s / 0.44 s, 16x1024 (64) 0.24 s / 0.41 s, 10x1000
# (100) 0.14 s / 0.55 s.
_MAX_REPLICATION = 32


class OTError(ValueError):
    pass


def linear_sum_assignment(C):
    """scipy's assignment solver, ``scipy.optimize.linear_sum_assignment``.

    On the first call its compiled module ``scipy.optimize._lsap`` is
    loaded by itself, without running ``scipy/optimize/__init__.py``: the
    package takes about 0.45 s and 40 MB, the module 0.2 ms. It is
    registered under its own name, so a later ``import scipy.optimize``
    (the HiGHS path) reuses it and the two names are one function. The
    name stays a module attribute: the benchmark's span tracer wraps it
    here."""
    name = "scipy.optimize._lsap"
    lsap = sys.modules.get(name)
    if lsap is None:
        import scipy
        spec = PathFinder.find_spec(
            name, [os.path.join(scipy.__path__[0], "optimize")])
        lsap = importlib.util.module_from_spec(spec)
        sys.modules[name] = lsap
        spec.loader.exec_module(lsap)
    return lsap.linear_sum_assignment(C)


@dataclass(frozen=True)
class WppValue:
    value: float
    p: float
    method: str
    error: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class TransportPlan:
    src: np.ndarray   # indices into mu's atom list
    dst: np.ndarray   # indices into nu's atom list
    mass: np.ndarray
    cost: float

    def validate(self, mu: DiscreteMeasure, nu: DiscreteMeasure,
                 p: float) -> None:
        tol = 1e-9   # absolute slack of the marginal and cost checks
        if np.any(self.mass < -tol):
            raise OTError("negative plan mass")
        row = np.zeros(mu.n_atoms)
        np.add.at(row, self.src, self.mass)
        col = np.zeros(nu.n_atoms)
        np.add.at(col, self.dst, self.mass)
        if np.max(np.abs(row - mu.weights)) > tol:
            raise OTError("plan row sums miss the source marginals")
        if np.max(np.abs(col - nu.weights)) > tol:
            raise OTError("plan column sums miss the target marginals")
        c = float(np.sum(self._costs(mu, nu, p)))
        if abs(c - self.cost) > tol * max(1.0, abs(self.cost)):
            raise OTError("plan cost does not match recomputation")

    def _costs(self, mu, nu, p: float) -> np.ndarray:
        """mass * d^p of each entry, d as in the solve's cost matrix."""
        d = mu.space.distances(mu.idx[self.src], nu.idx[self.dst])
        return self.mass * d ** p

    def to_rows(self, mu: DiscreteMeasure, nu: DiscreteMeasure, p: float):
        """(i, j, mass, cost contribution) rows for CSV export."""
        return list(zip(self.src.tolist(), self.dst.tolist(),
                        self.mass.tolist(),
                        self._costs(mu, nu, p).tolist()))


# ---------------------------------------------------------------------------
# 1D closed form
# ---------------------------------------------------------------------------

def wpp_1d(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float) -> WppValue:
    """Exact quantile-coupling W_p^p for measures on the line."""
    if not p >= 1:
        raise OTError("p must be >= 1")
    for m in (mu, nu):
        if m.space.dim != 1:
            raise OTError("measure is not supported on the line")
    v = wpp_1d_arrays(mu.space.points[mu.idx, 0], mu.weights,
                      nu.space.points[nu.idx, 0], nu.weights, p)
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
_UEPS = 1e-13


def check_quantile_monotone(quantile_fn: Callable) -> None:
    """Refuse a quantile function whose samples on a uniform 2048-point
    grid of (0, 1) decrease by more than a 1e-9 relative slack."""
    ugrid = np.linspace(_UEPS, 1.0 - _UEPS, 2048)
    qs = np.asarray(quantile_fn(ugrid), dtype=float)
    if np.any(np.diff(qs) < -1e-9 * (1.0 + np.max(np.abs(qs[np.isfinite(qs)])))):
        raise OTError("quantile function samples are not monotone")


def wpp_1d_vs_quantile(sample_positions, quantile_fn: Callable, p: float,
                       quantile_antideriv: Optional[Callable] = None) -> WppValue:
    """W_p^p between an empirical measure on the line and a continuous
    reference given by its quantile function: the one-row call of
    `wpp_rows_vs_quantile`, after checking that the quantile function is
    monotone (`check_quantile_monotone`)."""
    check_quantile_monotone(quantile_fn)
    xs = np.sort(np.asarray(sample_positions, dtype=float))
    values = wpp_rows_vs_quantile(xs[None, :], quantile_fn, p,
                                  quantile_antideriv)
    return WppValue(float(values[0]), float(p), "quantile-integral")


# Node values per Gauss-Legendre evaluation, so memory stays bounded
# whatever the number of rows.
_GL_VALUES = 1 << 18


def wpp_rows_vs_quantile(xs, quantile_fn: Callable, p: float,
                         quantile_antideriv: Optional[Callable] = None):
    """W_p^p of each row of `xs` (shape (R, n), every row sorted) against
    the reference with quantile function q; returns the values.

    Integrates |F_n^{-1}(u) - q(u)|^p over each order-statistic
    subinterval, splitting at the (unique, by monotonicity) crossing,
    found by a 60-step bisection run once over every crossing cell of the
    block. When p = 1 and the antiderivative of q returns values (not
    None) the integral is closed-form; otherwise each panel takes a
    32-node Gauss-Legendre rule, and q at the nodes of the cells that no
    row crosses is evaluated once per call. Every step is elementwise or
    per row, so each row's value is bit-identical to a one-row call. The
    caller checks that q is monotone (`check_quantile_monotone`).
    """
    if not p >= 1:
        raise OTError("p must be >= 1")
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2:
        raise OTError("samples must be an (R, n) array of sorted rows")
    if np.any(xs[:, 1:] < xs[:, :-1]):
        raise OTError("sample rows must be sorted")
    R, n = xs.shape

    def q(u):
        return np.asarray(quantile_fn(np.clip(u, _UEPS, 1.0 - _UEPS)),
                          dtype=float)

    lo = np.arange(n) / n
    hi = np.arange(1, n + 1) / n
    qlo = q(lo)
    qhi = q(hi)
    crossing = (qlo < xs) & (xs < qhi)
    # split point of each cell: hi where q <= x throughout, lo where
    # q >= x throughout, else the bisected crossing
    us = np.where(qhi <= xs, hi, lo)
    if np.any(crossing):
        rows, cols = np.nonzero(crossing)
        a = lo[cols]
        b = hi[cols]
        xc = xs[rows, cols]
        for _ in range(60):
            m = 0.5 * (a + b)
            below = q(m) < xc
            a = np.where(below, m, a)
            b = np.where(below, b, m)
        us[rows, cols] = 0.5 * (a + b)

    Qlo = (quantile_antideriv(lo)
           if p == 1.0 and quantile_antideriv is not None else None)
    if Qlo is not None:
        Qlo, Qhi, Qus = (np.asarray(v, dtype=float) for v in (
            Qlo, quantile_antideriv(hi), quantile_antideriv(us)))
        return ((xs * (us - lo) - (Qus - Qlo))
                + ((Qhi - Qus) - xs * (hi - us))).sum(axis=1)

    gx, gw = _GL32

    def nodes(a, b):
        # q at the Gauss-Legendre nodes of the panels [a, b]; half widths
        half = 0.5 * (b - a)
        u = (0.5 * (a + b))[:, None] + half[:, None] * gx[None, :]
        return q(u.ravel()).reshape(u.shape), half

    def sums(x, qv, half, counts):
        # per row of counts[i] panels: the sum of a one-row call
        f = np.abs(x[:, None] - qv) ** p
        return [float(np.sum(half[e - k:e] * (f[e - k:e] @ gw)))
                for k, e in zip(counts, np.cumsum(counts))]

    # a cell that no row crosses is the panel [lo, hi] in every row
    qw, hw = nodes(lo, hi)
    values = np.empty(R)
    step = max(1, _GL_VALUES // (32 * max(n, 1)))
    for r0 in range(0, R, step):
        x, c, u = (a[r0:r0 + step] for a in (xs, crossing, us))
        # per row: lo to the crossing (or hi), then the crossing to hi; a
        # row without crossing adds an empty sum, +0.0
        qv = np.tile(qw, (len(x), 1, 1))
        half = np.tile(hw, (len(x), 1))
        extra = 0.0
        if c.any():
            qv[c], half[c] = nodes(np.broadcast_to(lo, c.shape)[c], u[c])
            extra = sums(x[c], *nodes(u[c], np.broadcast_to(hi, c.shape)[c]),
                         c.sum(axis=1))
        values[r0:r0 + step] = np.add(sums(
            x.ravel(), qv.reshape(-1, 32), half.ravel(), [n] * len(x)), extra)
    return values


# ---------------------------------------------------------------------------
# Exact min-cost flow for general discrete measures
# ---------------------------------------------------------------------------

def wpp_mcf(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float):
    """Exact optimum of the transportation LP with costs d^p.

    Uniform m x n instances whose replication factors L/m and L/n
    (L = lcm(m, n)) multiply to at most ``_MAX_REPLICATION``, with
    L <= MAX_MCF_ATOMS // 2, are solved exactly as an assignment: each
    row of the cost matrix is repeated L/m times and each column L/n
    times, and by Birkhoff's theorem the L x L assignment optimum over L
    is the transport optimum. Its plan gives each (row, column) pair
    count/L, in row-major order. Everything else goes to HiGHS's dual
    simplex, whose optimum must pass a dual certificate (reduced costs
    >= -tol). Either plan must pass `TransportPlan.validate`. Returns
    (WppValue, TransportPlan).
    """
    if not p >= 1:
        raise OTError("p must be >= 1")
    if mu.space is not nu.space:
        raise OTError("measures live on different spaces")
    # positions of the atoms of positive weight in each atom list
    pos_a = np.flatnonzero(mu.weights > 0.0)
    pos_b = np.flatnonzero(nu.weights > 0.0)
    if pos_a.size + pos_b.size > MAX_MCF_ATOMS:
        raise OTError(f"instance exceeds {MAX_MCF_ATOMS} combined atoms")
    ia, wa = mu.idx[pos_a], mu.weights[pos_a]
    ib, wb = nu.idx[pos_b], nu.weights[pos_b]

    C = mu.space.distance_block(ia, ib) ** p

    m, n = C.shape
    L = math.lcm(m, n)
    ra, rb = L // m, L // n
    assignment = (
        ra * rb <= _MAX_REPLICATION
        and L <= MAX_MCF_ATOMS // 2
        and np.all(np.abs(wa - 1.0 / m) <= 1e-15)
        and np.all(np.abs(wb - 1.0 / n) <= 1e-15)
    )
    if assignment:
        E = np.repeat(np.repeat(C, ra, axis=0), rb, axis=1)
        rows, cols = linear_sum_assignment(E)
        cost = float(E[rows, cols].sum() / L)
        pairs, counts = np.unique(rows // ra * n + cols // rb,
                                  return_counts=True)
        plan = TransportPlan(pos_a[pairs // n], pos_b[pairs % n],
                             counts / L, cost)
    else:
        b = wb * (wa.sum() / wb.sum())
        tol = 1e-12 * max(1.0, float(C.max()))
        X, status = _kernels.transport_simplex(wa, b, C, tol,
                                               4000 * (m + n + 8))
        if status != 0:
            raise OTError("HiGHS transport solve failed or its optimum "
                          "failed the dual certificate")
        ii, jj = np.nonzero(X > 1e-16)
        cost = float(np.sum(X * C))
        plan = TransportPlan(pos_a[ii], pos_b[jj], X[ii, jj], cost)
    plan.validate(mu, nu, p)
    return WppValue(cost, float(p), "min-cost-flow"), plan


def wpp_to_point(m: DiscreteMeasure, x0: int, p: float) -> float:
    """W_p^p(m, delta_{x0}) = sum of weight * d(x0, atom)^p."""
    d = m.space.distance_block(np.asarray([x0]), m.idx)[0]
    return float(np.sum(m.weights * d ** p))
