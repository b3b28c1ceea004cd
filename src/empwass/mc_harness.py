"""Seeded Monte Carlo experiments: convergence-rate fits, tail curves,
minimal-constant fitting against the bound catalog, single-trajectory
almost-sure checks, and verification of the partial-sum inequalities."""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, fields
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .bound_catalog import as_rate_normalizer, classify_regime
from .measures import SyntheticSampler, uniform_pair
from .multiscale import (auto_k_star, build_partition_tree, dyadic_wpp_bound,
                         line_fit)
from .ot_exact import (check_quantile_monotone, wpp_1d_arrays, wpp_mcf,
                       wpp_rows_vs_quantile)


class HarnessError(ValueError):
    pass


_DROP_SMALL = 2   # smallest n values left out of the rate fits


@dataclass(frozen=True)
class ExperimentSpec:
    sampler: SyntheticSampler
    p: float
    estimator: str                       # a key of _ESTIMATORS
    n_grid: Tuple[int, ...]
    replicates: int
    seed: int
    x_grid: Tuple[float, ...] = ()
    m_ref: Optional[int] = None          # two-sample reference size (None: n)
    k_star: Optional[int] = None         # tree depth (None: 3, see depth)
    workers: int = 1

    def __post_init__(self):
        ng = tuple(self.n_grid)
        if not ng or min(ng) < 1:
            raise HarnessError("n_grid must be non-empty with every n >= 1")
        if any(b <= a for a, b in zip(ng, ng[1:])):
            raise HarnessError("n_grid must be strictly increasing")
        if self.replicates < 1:
            raise HarnessError("replicates must be >= 1")
        if self.workers < 1:
            raise HarnessError("workers must be >= 1")
        if not self.p >= 1:
            raise HarnessError("p must be >= 1")
        entry = _ESTIMATORS.get(self.estimator)
        if entry is None:
            raise HarnessError(f"unknown estimator {self.estimator!r}")
        if entry.check:
            entry.check(self.sampler, self.p)
        for name in ("m_ref", "k_star"):
            if getattr(self, name) is not None and name not in entry.reads:
                raise HarnessError(f"the {self.estimator} estimator reads "
                                   f"no {name}; leave it unset")
        seen = {}
        for x in self.x_grid:
            if not math.isfinite(x):
                raise HarnessError(f"x_grid values must be finite, got {x!r}")
            key = f"tail_x{x:g}"
            if key in seen:
                raise HarnessError(f"x_grid values {seen[key]!r} and {x!r} "
                                   f"both name the column {key}")
            seen[key] = x

    @property
    def depth(self) -> int:
        """The partition depth: k_star, 3 when unset; 0 grows with n."""
        return 3 if self.k_star is None else self.k_star

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name != "workers"}   # no output depends on workers
        return {**out, "k_star": self.depth,
                "sampler": self.sampler.metadata(), "drop_small": _DROP_SMALL}


def replicate_seed(master: int, n: int, rep: int) -> np.random.Generator:
    """Splittable per-replicate stream: independent of execution order."""
    return np.random.default_rng(np.random.SeedSequence([master, n, rep]))


def _check_quantile_sampler(sampler: SyntheticSampler, p: float) -> None:
    """Refuse a sampler that is not 1-D with a closed-form, monotone
    quantile, or with W_p^p to it infinite (Pareto(a) needs p < a)."""
    if sampler.quantile(np.asarray([0.5])) is None:
        raise HarnessError("the quantile estimator and trajectories need a "
                           "1D sampler with a closed-form quantile")
    if sampler.family == "pareto-radial" and sampler.a <= p:
        raise HarnessError(
            f"pareto-radial with a = {sampler.a:g} has no finite moment of "
            f"order p = {p:g}: W_p^p to it is infinite (needs a > p)")
    check_quantile_monotone(sampler.quantile)


def _quantile_antideriv(sampler: SyntheticSampler, p: float):
    """The antiderivative of the quantile when p = 1 and it has a closed
    form (closed-form integral), else None (Gauss-Legendre panels)."""
    if p == 1.0 and sampler.quantile_antideriv(np.asarray([0.5])) is not None:
        return sampler.quantile_antideriv
    return None


def _one_replicate(spec: ExperimentSpec, n: int, rep: int) -> float:
    """Replicate `rep` of size n of a two-sample estimator."""
    rng = replicate_seed(spec.seed, n, rep)
    pts = spec.sampler.draw(n, rng)
    ref = spec.sampler.draw(spec.m_ref if spec.m_ref is not None else n, rng)
    return _ESTIMATORS[spec.estimator].value(spec, pts, ref)


def _exact_value(spec: ExperimentSpec, pts, ref) -> float:
    if spec.sampler.d == 1:   # the staircase on the line
        n, m = len(pts), len(ref)
        return wpp_1d_arrays(pts[:, 0], np.full(n, 1.0 / n),
                             ref[:, 0], np.full(m, 1.0 / m), spec.p)
    return wpp_mcf(*uniform_pair(pts, ref)[1:], spec.p)[0].value


def _dyadic_value(spec: ExperimentSpec, pts, ref) -> float:
    space, mu, nu = uniform_pair(pts, ref)
    k_star = spec.depth or auto_k_star(   # 0: depth grows with n
        len(pts), spec.sampler.metadata().get("alpha") or 2.0 * spec.p)
    tree = build_partition_tree(space, k_star)
    return dyadic_wpp_bound(tree, mu, nu, spec.p)


def _two_sample_block(spec: ExperimentSpec, n: int, reps) -> np.ndarray:
    # the global lookup lets a tracer that rebinds _one_replicate count it
    return np.asarray([_one_replicate(spec, n, rep) for rep in reps])


def _quantile_block(spec: ExperimentSpec, n: int, reps) -> np.ndarray:
    rows = [spec.sampler.draw(n, replicate_seed(spec.seed, n, rep))[:, 0]
            for rep in reps]
    return wpp_rows_vs_quantile(
        np.sort(np.stack(rows), axis=1), spec.sampler.quantile, spec.p,
        _quantile_antideriv(spec.sampler, spec.p))


@dataclass(frozen=True)
class _Estimator:
    """`block(spec, n, reps)` returns the values of replicates `reps`, a
    two-sample block each from `value(spec, sample, reference)`; `check`
    refuses a sampler; with `warm_up`, one replicate in the parent loads
    its kernels' scipy modules before a pool forks, for the workers.
    `reads` names the optional spec fields (m_ref, k_star) the entry
    uses; a spec that sets any other is refused."""
    block: Callable
    measures: str    # the quantity each value estimates
    reads: Tuple[str, ...] = ()
    value: Optional[Callable] = None
    check: Optional[Callable] = None
    warm_up: bool = True


# --estimator name -> entry; the first is the default. A quantile block
# imports no scipy module, so a warm-up would only add numpy.random and,
# through `secrets`, OpenSSL to the parent (+6 MB peak RSS).
_ESTIMATORS = {
    "mcf-two-sample": _Estimator(_two_sample_block, "W_p^p(mu_n, nu_m)",
                                 reads=("m_ref",), value=_exact_value),
    "1d-quantile": _Estimator(_quantile_block, "W_p^p(mu_n, mu)",
                              check=_check_quantile_sampler, warm_up=False),
    "dyadic": _Estimator(_two_sample_block,
                         "an upper bound on W_p^p(mu_n, nu_m)",
                         reads=("m_ref", "k_star"), value=_dyadic_value),
}


def _run_block(task) -> np.ndarray:
    return _ESTIMATORS[task[0].estimator].block(*task)   # (spec, n, reps)


_BLOCK_VALUES = 1 << 17   # sample values per block at most


def _run_replicates(spec: ExperimentSpec) -> List[np.ndarray]:
    """Per-n arrays of W_p^p samples, reproducible for any worker count.

    Each n's replicates are cut into contiguous blocks of ceil(R / (4
    workers)) replicates, at least 8, at most _BLOCK_VALUES / n; one
    process pool, of no more processes than blocks or usable cores,
    serves every block of the experiment and returns them in order.
    """
    R = spec.replicates
    size = max(8, -(-R // (4 * spec.workers)))
    tasks = []
    for n in spec.n_grid:
        step = max(1, min(size, _BLOCK_VALUES // n))
        tasks += [(spec, n, range(s, min(s + step, R)))
                  for s in range(0, R, step)]
    workers = min(spec.workers, len(tasks), len(os.sched_getaffinity(0)))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        entry = _ESTIMATORS[spec.estimator]
        if entry.warm_up:
            entry.block(spec, spec.n_grid[0], range(1))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(_run_block, tasks))
    else:
        blocks = [_run_block(t) for t in tasks]
    return [np.concatenate([b for t, b in zip(tasks, blocks) if t[1] == n])
            for n in spec.n_grid]


@dataclass
class ExperimentReport:
    spec: ExperimentSpec
    per_n: List[dict]
    slope: Optional[float] = None
    slope_ci: Optional[Tuple[float, float]] = None
    slope_r2: Optional[float] = None
    corrected_slope: Optional[float] = None
    corrected_r2: Optional[float] = None
    degenerate: bool = False

    def to_dict(self) -> dict:
        return {**{f.name: getattr(self, f.name) for f in fields(self)},
                "spec": self.spec.to_dict()}


def _stats_row(n: int, vals: np.ndarray, x_grid: Sequence[float]) -> dict:
    row = {
        "n": int(n),
        "mean": float(vals.mean()),
        "sd": float(vals.std(ddof=1)) if vals.size > 1 else 0.0,
        "q50": float(np.quantile(vals, 0.5)),
        "q90": float(np.quantile(vals, 0.9)),
        "q99": float(np.quantile(vals, 0.99)),
        "replicates": int(vals.size),
    }
    for x in x_grid:
        k = int(np.sum(vals > x))
        lo, hi = wilson_interval(k, vals.size)
        row[f"tail_x{x:g}"] = k / vals.size
        row[f"tail_x{x:g}_lo"] = lo
        row[f"tail_x{x:g}_hi"] = hi
    return row


def _ols(x: np.ndarray, y: np.ndarray):
    slope, _, _, ss_res, r2 = line_fit(x, y)
    dof = max(x.size - 2, 1)
    se = math.sqrt(ss_res / dof / float(np.sum((x - x.mean()) ** 2)))
    return float(slope), se, r2


def run_rate_experiment(spec: ExperimentSpec) -> ExperimentReport:
    """Estimate E[W_p^p] on the n-grid and fit the log-log decay slope.

    The two smallest n are dropped from the fit (pre-asymptotic bias).
    When the sampler's covering dimension equals 2p and every n in the
    fit is at least 2 (log log 1 is -inf), a second fit with the
    sqrt(log n) correction removed is reported alongside.
    """
    if spec.replicates < 30:
        raise HarnessError("rate fits need at least 30 replicates")
    if len(spec.n_grid) < 2:
        raise HarnessError("rate fits need at least 2 values of n")
    values = _run_replicates(spec)
    per_n = [_stats_row(n, v, spec.x_grid)
             for n, v in zip(spec.n_grid, values)]
    report = ExperimentReport(spec, per_n)

    means = np.array([r["mean"] for r in per_n])
    ns = np.array(spec.n_grid, dtype=float)
    drop = min(_DROP_SMALL, max(len(spec.n_grid) - 2, 0))
    keep = slice(drop, None)
    if np.any(means[keep] <= 0.0):
        report.degenerate = True
        return report
    x = np.log(ns[keep])
    y = np.log(means[keep])
    slope, se, r2 = _ols(x, y)
    report.slope = slope
    report.slope_ci = (slope - 1.96 * se, slope + 1.96 * se)
    report.slope_r2 = r2

    alpha = spec.sampler.metadata().get("alpha")
    if alpha is not None and alpha > 0 and ns[keep].min() >= 2 \
            and classify_regime(alpha, spec.p) == "alpha_eq_2p":
        yc = y - 0.5 * np.log(np.log(ns[keep]))
        cslope, _, cr2 = _ols(x, yc)
        report.corrected_slope = cslope
        report.corrected_r2 = cr2
    return report


def run_tail_experiment(spec: ExperimentSpec) -> ExperimentReport:
    """Empirical P(W_p^p > x) with Wilson intervals on the (n, x) grid."""
    if spec.replicates < 1000:
        raise HarnessError("tail experiments need at least 1000 replicates")
    if not spec.x_grid:
        raise HarnessError("tail experiments need an x-grid")
    values = _run_replicates(spec)
    per_n = [_stats_row(n, v, spec.x_grid)
             for n, v in zip(spec.n_grid, values)]
    return ExperimentReport(spec, per_n)


def wilson_interval(k: int, n: int):
    """95 % Wilson score interval for a binomial proportion."""
    if n == 0:
        return 0.0, 1.0
    ph = k / n
    z = 1.959963984540054   # two-sided 95 % normal quantile
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (ph + z2 / (2 * n)) / denom
    half = z * math.sqrt(ph * (1 - ph) / n + z2 / (4 * n * n)) / denom
    lo = 0.0 if k == 0 else max(0.0, center - half)
    hi = 1.0 if k == n else min(1.0, center + half)
    return lo, hi


@dataclass(frozen=True)
class ConstantFit:
    ok: bool
    C: Optional[float] = None
    binding_point: Optional[Tuple[int, float]] = None   # (n, x)
    falsified_at: Optional[Tuple[int, float]] = None
    gap: Optional[float] = None
    cells_used: int = 0      # (n, x) cells with an exceedance
    cells_empty: int = 0     # cells without one, left out of the fit
    reason: Optional[str] = None

    def to_dict(self) -> dict:
        return asdict(self)


def fit_bound_constant(report: ExperimentReport,
                       bound_fn: Callable[[float, int, float], float]
                       ) -> ConstantFit:
    """Smallest C <= 1e9 with bound_fn(x, n, C) >= each Wilson upper limit.

    Only the (n, x) cells with at least one exceedance enter the fit: on
    an empty cell the upper limit is about 3.84 / R, a fact about the
    replicate count R and not about the tail, and no bound is falsified
    there. bound_fn must be nondecreasing in C. Falsification (no finite
    C) names the violating grid point.
    """
    if not report.spec.x_grid:
        raise HarnessError("report has no tail grid")
    grid = [(row["n"], float(x), row[f"tail_x{x:g}_hi"])
            for row in report.per_n for x in report.spec.x_grid
            if row[f"tail_x{x:g}"] > 0]
    cells = {"cells_used": len(grid),
             "cells_empty": len(report.per_n) * len(report.spec.x_grid)
             - len(grid)}
    if not grid:
        return ConstantFit(True, reason="no (n, x) cell has an exceedance",
                           **cells)

    def valid(C):
        worst = None
        worst_gap = 0.0
        for n, x, hi in grid:
            gap = bound_fn(x, n, C) - hi
            if gap < 0 and (worst is None or gap < worst_gap):
                worst = (n, x)
                worst_gap = gap
        return worst, worst_gap

    bad, gap = valid(1e9)
    if bad is not None:
        return ConstantFit(False, falsified_at=bad, gap=gap, **cells)
    lo, hi = 1e-9, 1e9
    bad_lo, _ = valid(lo)
    if bad_lo is None:
        return ConstantFit(True, C=lo, **cells)
    while (hi - lo) / hi > 1e-3:
        mid = math.sqrt(lo * hi)
        if valid(mid)[0] is None:
            hi = mid
        else:
            lo = mid
    tight, tgap = valid(lo)   # the point still violated just below C
    return ConstantFit(True, C=hi, binding_point=tight, gap=tgap, **cells)


# ---------------------------------------------------------------------------
# Almost-sure trajectory
# ---------------------------------------------------------------------------

def run_as_trajectory(sampler: SyntheticSampler, p: float, n_max: int,
                      seed: int) -> dict:
    """One trajectory of the normalized statistic a_k * W_p^p(L_k, ref)
    at dyadic checkpoints k; evidence (not proof) of a.s. boundedness.
    Without a sampler alpha no row is normalized: ``normalized`` and
    ``max_normalized`` are None."""
    if not p >= 1:
        raise HarnessError("p must be >= 1")
    if n_max < 4:
        raise HarnessError("n_max must be >= 4, the first checkpoint")
    _check_quantile_sampler(sampler, p)
    anti = _quantile_antideriv(sampler, p)
    md = sampler.metadata()
    alpha = md.get("alpha")
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    pts = sampler.draw(n_max, rng)
    # k = 4, 8, 16, ... up to n_max, then n_max itself
    checkpoints = [4 << i for i in range((n_max // 4).bit_length())]
    if checkpoints[-1] != n_max:
        checkpoints.append(n_max)
    rows = []
    for k in checkpoints:
        w = float(wpp_rows_vs_quantile(np.sort(pts[:k, 0])[None, :],
                                       sampler.quantile, p, anti)[0])
        norm = as_rate_normalizer(k, p, alpha) * w if alpha else None
        rows.append({"k": int(k), "wpp": w, "normalized": norm})
    return {"sampler": md, "p": p, "seed": seed, "rows": rows,
            "max_normalized": (max(r["normalized"] for r in rows) if alpha
                               else None)}


# ---------------------------------------------------------------------------
# Partial-sum inequality verification (appendix oracle)
# ---------------------------------------------------------------------------

def _xi_norm(dist: str, a: float, r: float) -> float:
    """||xi_1||_r for the centered test distributions."""
    if dist == "rademacher":
        return 1.0
    if dist == "uniform":   # uniform on [-1, 1]
        return (1.0 / (r + 1.0)) ** (1.0 / r)
    if dist == "pareto":
        if r >= a:
            return math.inf
        mean = a / (a - 1.0)
        from scipy import integrate
        val, _ = integrate.quad(lambda u: abs(u ** (-1.0 / a) - mean) ** r,
                                0.0, 1.0, limit=200)
        return val ** (1.0 / r)
    raise HarnessError(f"unknown distribution {dist!r}")


def _xi_draw(dist: str, a: float, shape, rng) -> np.ndarray:
    if dist == "rademacher":
        return 2.0 * rng.integers(0, 2, size=shape) - 1.0
    if dist == "uniform":
        return 2.0 * rng.random(shape) - 1.0
    if dist == "pareto":
        return rng.random(shape) ** (-1.0 / a) - a / (a - 1.0)
    raise HarnessError(f"unknown distribution {dist!r}")


def verify_appendix_inequalities(dist: str, r: float,
                                 n_grid: Sequence[int], R: int, seed: int,
                                 a: float = 4.0) -> dict:
    """Monte Carlo check of the three partial-sum moment inequalities.

    The mean-norm inequalities (square-function and order-(1,2] bounds)
    use their explicit constants; the maximal inequality's absolute
    constant is fitted and reported. Needs 1 < r < inf (no check applies
    at r = 1), R >= 2 and, for pareto, a finite r-th moment (r < a).
    """
    if not 1.0 < r < math.inf:
        raise HarnessError(f"r must lie in (1, inf), got {r!r}")
    if not R >= 2:
        raise HarnessError(f"R must be >= 2 replicates, got {R!r}")
    if dist == "pareto" and not r < a < math.inf:
        raise HarnessError(f"pareto needs a tail index r < a < inf, got {a!r}")
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    xi_r = _xi_norm(dist, a, r)
    xi_2 = _xi_norm(dist, a, 2.0)
    rows = []
    for n in n_grid:
        xs = _xi_draw(dist, a, (R, n), rng)
        means = xs.mean(axis=1)
        amr = np.abs(means) ** r
        lhs_r = float(amr.mean()) ** (1.0 / r)
        # delta-method standard error of the r-norm estimate
        se_mean = float(amr.std(ddof=1)) / math.sqrt(R)
        se = se_mean / (r * max(float(amr.mean()), 1e-300) ** ((r - 1.0) / r))

        row = {"n": int(n), "r": r, "lhs": lhs_r, "lhs_se": se}
        if r >= 2.0 and math.isfinite(xi_r):
            rhs = math.sqrt((r - 1.0) / n) * xi_r
            row["burkholder_rhs"] = rhs
            row["burkholder_ratio"] = lhs_r / rhs
            row["burkholder_ok"] = lhs_r <= rhs + 3.0 * se
            # maximal inequality: sup of partial sums, fitted constant
            sup = np.max(np.abs(np.cumsum(xs, axis=1)), axis=1) / n
            lhs_sup = float(np.mean(sup ** r)) ** (1.0 / r)
            rhs_unit = (math.sqrt(r / n) * xi_2
                        + r / n ** ((r - 1.0) / r) * xi_r)
            row["maximal_lhs"] = lhs_sup
            row["maximal_fitted_L"] = lhs_sup / rhs_unit
        if 1.0 < r <= 2.0 and math.isfinite(xi_r):
            rhs = 2.0 ** ((2.0 - r) / r) / n ** ((r - 1.0) / r) * xi_r
            row["vbe_rhs"] = rhs
            row["vbe_ratio"] = lhs_r / rhs
            row["vbe_ok"] = lhs_r <= rhs + 3.0 * se
        rows.append(row)
    fitted = [row.get("maximal_fitted_L") for row in rows
              if "maximal_fitted_L" in row]
    return {"distribution": dist, "r": r, "R": R, "seed": seed, "rows": rows,
            "maximal_fitted_L": max(fitted) if fitted else None}
