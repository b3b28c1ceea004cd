import math
from types import SimpleNamespace
from typing import Optional

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from empwass.bound_catalog import (BoundError, BoundResult, _done, _main_exp,
                                   _na, classify_regime)
from empwass.measures import DiscreteMeasure, MeasureError
from empwass.metric_core import MetricError, diameter
from empwass.multiscale import MultiscaleError, greedy_cover
from empwass.ot_exact import OTError, WppValue


def save_points_csv(path, points):
    """One point per row; %.17g round-trips every float, so the golden
    hashes of outputs read from these files stay fixed."""
    np.savetxt(path, np.atleast_2d(points), delimiter=",", fmt="%.17g")


def _replicated_assignment_cost(C, ka, kb):
    """Optimal transport cost between weights ka/K and kb/K (integer counts,
    equal totals K): replicate atom i ka[i] times and atom j kb[j] times,
    then solve the K x K assignment problem. By Birkhoff's theorem its
    optimum divided by K is the transportation LP optimum; the solve
    shares no code with the LP solver."""
    K = int(np.sum(ka))
    assert K == int(np.sum(kb))
    big = C[np.repeat(np.arange(C.shape[0]), ka)][:, np.repeat(
        np.arange(C.shape[1]), kb)]
    rows, cols = linear_sum_assignment(big)
    return float(big[rows, cols].sum() / K)


@pytest.fixture
def assignment_oracle():
    return _replicated_assignment_cost


def _diameter_oracle(space, subset=None):
    """Max of distance_block over every pair of subset, in row chunks."""
    idx = np.arange(space.n) if subset is None else np.asarray(subset, np.int64)
    if idx.size == 0:
        raise MetricError("diameter of an empty set")
    if idx.size == 1:
        return 0.0
    best = 0.0
    step = 2048
    for s in range(0, idx.size, step):
        block = space.distance_block(idx[s : s + step], idx)
        m = float(block.max())
        if m > best:
            best = m
    return best


@pytest.fixture
def diameter_oracle():
    return _diameter_oracle


def _validate_metric_loop(space, trials, seed):
    """The sampled checks of validate_metric, one seeded draw and one
    scalar distance at a time: (violation, pairs, triples). Pairs are
    sampled when n > 2048 and triples when n > 200; a smaller space must
    pass the dense checks."""
    n = space.n
    assert n > 200

    def dist(i, j):
        return float(space.distances([i], [j])[0])

    if n <= 2048:
        D = space.submatrix(np.arange(n))
        assert np.all(np.diag(D) == 0) and np.all(D >= 0)
        assert np.all(np.abs(D - D.T) <= 1e-12)
        pairs = n * n
    else:
        pairs = n
        for i in range(n):
            if dist(i, i) != 0:
                return ("identity", (i, i), dist(i, i)), pairs, 0
        rng = np.random.default_rng(seed)
        for _ in range(trials):
            i, j = rng.integers(0, n, size=2)
            pairs += 1
            dij, dji = dist(i, j), dist(j, i)
            if not np.isfinite(dij):
                raise MetricError("non-finite distance encountered")
            if abs(dij - dji) > 1e-12:
                return ("symmetry", (int(i), int(j)), dij - dji), pairs, 0
            if dij < 0:
                return ("nonnegativity", (int(i), int(j)), dij), pairs, 0
    rng = np.random.default_rng(seed)
    for t in range(1, trials + 1):
        i, j, k = rng.integers(0, n, size=3)
        if dist(i, k) > dist(i, j) + dist(j, k) + 1e-9:
            return (("triangle", (int(i), int(j), int(k)),
                     dist(i, k) - dist(i, j) - dist(j, k)), pairs, t)
    return None, pairs, trials


@pytest.fixture
def validate_metric_loop():
    return _validate_metric_loop


def _greedy_cover_oracle(pts, delta, stop=None):
    """One center per step: the lowest-index uncovered point, then a
    squared-distance test against every point."""
    n = pts.shape[0]
    d2 = delta * delta * (1.0 + 1e-12)
    covered = np.zeros(n, bool)
    centers = []
    while len(centers) != stop and not covered.all():
        idx = int(np.argmin(covered))
        centers.append(idx)
        diff = pts - pts[idx]
        covered |= np.einsum("ij,ij->i", diff, diff) <= d2
    return np.asarray(centers, np.int64)


@pytest.fixture
def greedy_cover_oracle():
    return _greedy_cover_oracle


def _partition_tree_oracle(space, k_star):
    """The per-parent tree builder: for each parent cell in turn, the
    one-at-a-time greedy cover of its points at radius 4^-k diam / 2 and
    each point's nearest center of that cell by a full distance block
    (squared distances for point clouds), ties to the lowest center.
    Cells are numbered by parent, then by center order. Returns the
    per-level (labels, centers, parents) lists."""
    Delta = diameter(space)
    prev, nprev = np.zeros(space.n, np.int64), 1
    labels, centers, parents = [], [], []
    for k in range(1, k_star + 1):
        radius = 4.0 ** (-k) * Delta / 2.0
        lab = np.empty(space.n, np.int64)
        cen, par = [], []
        for pid in range(nprev):
            pts = np.flatnonzero(prev == pid)
            if space.kind == "euclidean":
                x = space.points[pts]
                chosen = pts[_greedy_cover_oracle(x, radius)]
                diff = x[:, None, :] - space.points[chosen][None, :, :]
                dist = np.einsum("ijk,ijk->ij", diff, diff)
            else:
                D = space.submatrix(pts)
                covered = np.zeros(pts.size, bool)
                local = []
                while not covered.all():
                    local.append(int(np.argmin(covered)))
                    covered |= D[local[-1]] <= radius * (1.0 + 1e-12)
                chosen = pts[local]
                dist = space.distance_block(pts, chosen)
            lab[pts] = len(cen) + np.argmin(dist, axis=1)
            cen.extend(chosen)
            par.extend([pid] * chosen.size)
        labels.append(lab)
        centers.append(np.asarray(cen, np.int64))
        parents.append(np.asarray(par, np.int64))
        prev, nprev = lab, len(cen)
    return labels, centers, parents


@pytest.fixture
def partition_tree_oracle():
    return _partition_tree_oracle


def _verify_tree_oracle(tree):
    """Partition-tree checks on the cells of ``to_dict()``, written out
    directly: the sorted union of each level's cells, the pairwise
    diameter of every cell, membership of each cell in its parent, each
    center among its cell's points, and a full greedy cover for the
    cardinality cap (the one-at-a-time loop for point clouds)."""
    every = np.arange(tree.space.n)
    levels = tree.to_dict()["levels"]
    for k, level in enumerate(levels, start=1):
        points = [np.asarray(c["points"], np.int64) for c in level]
        got = np.sort(np.concatenate(points))
        if got.size != every.size or np.any(got != every):
            raise MultiscaleError(f"level {k} does not partition the set")
        for c, pts in zip(level, points):
            if (_diameter_oracle(tree.space, pts)
                    > tree.level_radius(k) + 1e-12):
                raise MultiscaleError(f"cell diameter violated at level {k}")
            if k > 1:
                parent_pts = levels[k - 2][c["parent"]]["points"]
                if not np.all(np.isin(pts, parent_pts)):
                    raise MultiscaleError(f"refinement violated at level {k}")
        if any(c["center"] not in pts for c, pts in zip(level, points)):
            raise MultiscaleError(
                f"level {k} has a center outside its own cell")
        radius = 4.0 ** (-k - 1) * tree.diam
        if tree.diam == 0.0:
            cap = 1
        elif tree.space.kind == "euclidean":
            cap = _greedy_cover_oracle(tree.space.points, radius).size
        else:
            cap = greedy_cover(tree.space, radius).n_upper
        if len(level) > cap:
            raise MultiscaleError(
                f"level {k} has {len(level)} cells, cover cap is {cap}")


@pytest.fixture
def verify_tree_oracle():
    return _verify_tree_oracle


_UEPS = 1e-13
_GL32 = np.polynomial.legendre.leggauss(32)


def _wpp_vs_quantile_oracle(sample_positions, quantile_fn, p, grid=2048,
                            quantile_antideriv=None):
    """One replicate at a time: the monotonicity check, the crossing
    bisection over this sample's cells, then the closed form (p = 1 with
    an antiderivative) or 32-node Gauss-Legendre panels."""
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

        sgn = np.where(qhi <= xs, 1.0, -1.0)
        base = sgn * (xs * (hi - lo) - (Q(hi) - Q(lo)))
        cross = (xs * (us - lo) - (Q(us) - Q(lo))) \
            + ((Q(hi) - Q(us)) - xs * (hi - us))
        total = float(np.sum(np.where(crossing, cross, base)))
        return WppValue(total, 1.0, "quantile-integral")

    gx, gw = _GL32

    def panel(a, b, xv):
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        u = mid[:, None] + half[:, None] * gx[None, :]
        f = np.abs(xv[:, None] - q(u.ravel()).reshape(u.shape)) ** p
        return float(np.sum(half * (f @ gw)))

    total = panel(lo, np.where(crossing, us, hi), xs)
    if np.any(crossing):
        total += panel(us[crossing], hi[crossing], xs[crossing])
    return WppValue(total, float(p), "quantile-integral")


@pytest.fixture
def wpp_vs_quantile_oracle():
    return _wpp_vs_quantile_oracle


def _mix_loop(components):
    """mix() as a dict loop: each atom's terms summed in component order,
    components with weight 0 skipped, atoms sorted, then normalised."""
    space = components[0][1].space
    acc = {}
    for lam, m in components:
        if lam == 0.0:
            continue
        for i, w in zip(m.idx, m.weights):
            acc[int(i)] = acc.get(int(i), 0.0) + lam * w
    idx = np.array(sorted(acc), dtype=np.int64)
    w = np.array([acc[int(i)] for i in idx])
    return DiscreteMeasure(space, idx, w / w.sum())


def _restrict_loop(mu, subset):
    """restrict() with a Python set for membership."""
    sset = set(int(i) for i in np.asarray(subset, dtype=np.int64).ravel())
    keep = np.array([int(i) in sset for i in mu.idx])
    mass = float(mu.weights[keep].sum())
    if mass <= 0.0:
        return None, 0.0
    return DiscreteMeasure(mu.space, mu.idx[keep],
                           mu.weights[keep] / mass), mass


def _ring_ids_loop(dists):
    """Ring id of each distance, one scalar log2 at a time."""
    return np.array([1 if t <= 2.0 else int(np.ceil(np.log2(t) - 1e-12))
                     for t in map(float, dists)], dtype=np.int64)


def _verify_reconstruction_loop(dec):
    """verify_reconstruction with a dict accumulator and a set of extras."""
    tol = 1e-12
    for which in ("a", "b"):
        orig = dec.mu_a if which == "a" else dec.mu_b
        acc = {}
        for r in dec.rings:
            cond = r.cond_a if which == "a" else r.cond_b
            if r.lam_i > 0.0 and cond is not None:
                for i, w in zip(cond.idx, cond.weights):
                    acc[int(i)] = acc.get(int(i), 0.0) + r.lam_i * w
        exc = dec.excess_a if which == "a" else dec.excess_b
        if dec.lam > 0.0:
            for i, w in zip(exc.idx, exc.weights):
                acc[int(i)] = acc.get(int(i), 0.0) + dec.lam * w
        for i, w in zip(orig.idx, orig.weights):
            if abs(acc.get(int(i), 0.0) - w) > tol:
                raise MeasureError(
                    f"reconstruction fails at atom {int(i)}: "
                    f"{acc.get(int(i), 0.0)} vs {w}")
        extra = set(acc) - set(int(i) for i in orig.idx)
        if any(abs(acc[i]) > tol for i in extra):
            raise MeasureError("reconstruction has spurious atoms")


@pytest.fixture
def measure_loop_oracles():
    return SimpleNamespace(mix=_mix_loop, restrict=_restrict_loop,
                           ring_ids=_ring_ids_loop,
                           verify_reconstruction=_verify_reconstruction_loop)


# The heavy-tail bounds as written before one bullet selector served
# both: each walks the whole case analysis itself.

def _fuk_nagaev_oracle(x: float, n: int, p: float, alpha: float,
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
    if x <= 0:
        raise BoundError("x must be positive")
    regime = classify_regime(alpha, p)
    exp_i = iap if regime == "alpha_gt_2p" else i2pp

    if r is None:
        if regime == "alpha_gt_2p" and not math.isfinite(i2pp):
            # pure-polynomial bullet from I_{alpha,p}
            if not math.isfinite(iap):
                return _na("both tail integrals are infinite")
            ex = alpha / (alpha - p)
            return _done({"poly_iap":
                          Cpoly * iap ** ex / (x ** ex * n ** (p / (alpha - p)))})
        if not math.isfinite(i2pp):
            return _na("I_{2p,p} is infinite and no weak moment was supplied")
        poly = Cpoly * i2pp ** 2 / (x ** 2 * n)
        if regime == "alpha_lt_2p":
            return _done({"poly_i2pp": poly})
        v = _main_exp(x, n, p, alpha, regime, exp_i, cap, C)
        if math.isnan(v):
            return _na("exponential-term integral is infinite")
        return _done({"exponential": v, "poly_i2pp": poly})

    if weak_rp is None or not math.isfinite(weak_rp):
        return _na(f"weak moment of order {r}p is not finite")
    poly_weak = Cpoly * weak_rp / (x ** r * n ** (r - 1.0))

    if r > 2.0:
        if q is None or q <= r:
            return _na("the r > 2 bullet needs q > r")
        if not math.isfinite(i2pp):
            return _na("I_{2p,p} must be finite for the r > 2 bullet")
        v = _main_exp(x, n, p, alpha, regime, exp_i, cap, C)
        if math.isnan(v):
            return _na("exponential-term integral is infinite")
        return _done({"exponential": v,
                      "poly_i2pp_q": Cpoly * i2pp ** q / (x ** q * n ** (q / 2.0)),
                      "poly_weak": poly_weak})

    if regime == "alpha_gt_2p":
        thresh = alpha / (alpha - p)
        if thresh < r < 2.0:
            v = _main_exp(x, n, p, alpha, regime, exp_i, cap, C)
            if math.isnan(v):
                return _na("I_{alpha,p} is infinite")
            return _done({"exponential": v, "poly_weak": poly_weak})
        if 1.0 < r < thresh:
            return _done({"poly_weak": poly_weak})
        return _na(f"r = {r} matches no bullet (threshold {thresh:.6g}, 2)")

    if 1.0 < r < 2.0:
        return _done({"poly_weak": poly_weak})
    return _na(f"r = {r} matches no bullet in this regime")


def _moderate_deviation_oracle(x: float, n: int, rho: float, p: float,
                               alpha: float, r: Optional[float] = None,
                               weak_rp: Optional[float] = None,
                               i2pp: float = math.inf, iap: float = math.inf,
                               Cpoly: float = 1.0) -> BoundResult:
    """Bound on n^{s*rho - 1} P(W_p^p > x / n^{1-rho}) for the bullet's
    exponent s; limsup-type bullets are flagged asymptotic."""
    if x <= 0:
        raise BoundError("x must be positive")
    if not (0 < rho <= 1):
        return _na("rho must lie in (0, 1]")
    regime = classify_regime(alpha, p)
    gt = regime == "alpha_gt_2p"
    lo_open = (alpha - p) / alpha if gt else 0.5

    if r is None:
        if gt and not math.isfinite(i2pp):
            if not math.isfinite(iap):
                return _na("both tail integrals are infinite")
            if rho < lo_open - 1e-15:
                return _na(f"rho must lie in [{lo_open:.6g}, 1]")
            ex = alpha / (alpha - p)
            return _done({"limit": Cpoly * iap ** ex / x ** ex},
                         asymptotic=False)
        if not math.isfinite(i2pp):
            return _na("I_{2p,p} is infinite and no weak moment was supplied")
        if rho <= lo_open:
            return _na(f"rho must lie in ({lo_open:.6g}, 1]")
        return _done({"limit": Cpoly * i2pp ** 2 / x ** 2}, asymptotic=True)

    if weak_rp is None or not math.isfinite(weak_rp):
        return _na(f"weak moment of order {r}p is not finite")
    poly = Cpoly * weak_rp / x ** r

    if r > 2.0:
        if rho <= lo_open:
            return _na(f"rho must lie in ({lo_open:.6g}, 1]")
        return _done({"limit": poly}, asymptotic=True)

    if gt:
        thresh = alpha / (alpha - p)
        if thresh < r < 2.0:
            if rho <= lo_open:
                return _na(f"rho must lie in ({lo_open:.6g}, 1]")
            return _done({"limit": poly}, asymptotic=True)
        if 1.0 < r < thresh:
            if rho < 1.0 / r - 1e-15:
                return _na(f"rho must lie in [{1.0 / r:.6g}, 1]")
            return _done({"limit": poly}, asymptotic=False)
        return _na(f"r = {r} matches no bullet")

    if 1.0 < r < 2.0:
        if rho < 1.0 / r - 1e-15:
            return _na(f"rho must lie in [{1.0 / r:.6g}, 1]")
        return _done({"limit": poly}, asymptotic=False)
    return _na(f"r = {r} matches no bullet in this regime")


@pytest.fixture
def bullet_bound_oracles():
    return _fuk_nagaev_oracle, _moderate_deviation_oracle
