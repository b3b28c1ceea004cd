"""Covering numbers, covering-dimension fits, refined partition trees,
and the dyadic multiscale upper bound on W_p^p."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from . import _kernels
from .metric_core import FiniteMetricSpace, diameter
from .measures import DiscreteMeasure


class MultiscaleError(ValueError):
    pass


class DegenerateFitError(MultiscaleError):
    """All covering counts equal 1: no dimension can be fitted."""


@dataclass(frozen=True)
class CoveringEstimate:
    delta: float
    n_upper: int          # greedy cover size (feasible cover)
    n_lower: int          # maximal 2*delta-separated set size
    centers: np.ndarray   # space indices of the greedy centers

    def to_dict(self) -> dict:
        return {"delta": self.delta, "n_upper": self.n_upper,
                "n_lower": self.n_lower,
                "centers": [int(c) for c in self.centers]}


def _cover(space: FiniteMetricSpace, delta: float, stop: Optional[int] = None,
           groups: Optional[np.ndarray] = None):
    """Greedy delta-cover centers of the whole space; with groups, the
    cover of each group and each point's nearest center of its group (see
    ``_kernels.greedy_cover_pts``)."""
    if space.kind == "euclidean":
        return _kernels.greedy_cover_pts(space.points, float(delta),
                                         stop=stop, groups=groups)
    return _kernels.greedy_cover_mat(space.submatrix(np.arange(space.n)),
                                     float(delta), stop=stop, groups=groups)


def greedy_cover(space: FiniteMetricSpace, delta: float) -> CoveringEstimate:
    """Greedy cover of the space by closed delta-balls (next center = first
    uncovered point of lowest index) plus a 2*delta-packing lower bound."""
    if not delta > 0:
        raise MultiscaleError("delta must be positive")
    cov = _cover(space, delta)
    # a maximal 2*delta-separated set is the greedy cover at 2*delta
    pack = _cover(space, 2.0 * delta)
    return CoveringEstimate(float(delta), int(cov.size), int(pack.size), cov)


@dataclass(frozen=True)
class DimensionFit:
    alpha: float
    beta: float
    scales: np.ndarray
    counts: np.ndarray
    r2: float
    diam: float

    def envelope(self, delta) -> np.ndarray:
        return self.beta * (self.diam / np.asarray(delta)) ** self.alpha

    def to_dict(self) -> dict:
        return {"alpha": self.alpha, "beta": self.beta,
                "scales": list(map(float, self.scales)),
                "counts": list(map(int, self.counts)),
                "r2": self.r2, "diam": self.diam}


def line_fit(x: np.ndarray, y: np.ndarray):
    """Least-squares line y ~ slope * x + intercept: (slope, intercept,
    residuals, residual sum of squares, r^2), r^2 = 1 for a constant y."""
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return slope, intercept, resid, ss_res, r2


def fit_dimension(space: FiniteMetricSpace,
                  deltas: Sequence[float]) -> DimensionFit:
    """One-sided power-law envelope for the space's covering counts.

    Least squares on log counts vs log(diam/delta), then the prefactor is
    inflated minimally so the law dominates every observed count. Counts
    are greedy cover sizes.
    """
    deltas = np.sort(np.asarray(deltas, dtype=float))[::-1]
    if deltas.size < 4:
        raise MultiscaleError("need at least 4 scales")
    if not np.all(deltas > 0):
        raise MultiscaleError("delta must be positive")
    if deltas.max() / deltas.min() < 10.0 - 1e-9:
        raise MultiscaleError("scales must span at least one decade")
    Delta = diameter(space)
    if Delta <= 0:
        raise DegenerateFitError("point set has zero diameter")
    counts = np.array([_cover(space, d).size for d in deltas])
    if np.all(counts == 1):
        raise DegenerateFitError("all covering counts equal 1")
    x = np.log(Delta / deltas)
    y = np.log(counts.astype(float))
    alpha, logbeta, resid, _, r2 = line_fit(x, y)
    # one-sided adjustment: shift the intercept up to dominate all counts
    logbeta += max(0.0, float(np.max(resid)))
    return DimensionFit(float(alpha), float(np.exp(logbeta)), deltas, counts,
                        r2, Delta)


def auto_delta_grid(space: FiniteMetricSpace, n_scales: int = 6) -> np.ndarray:
    """n_scales dyadic scales diam/8, diam/16, ... for dimension fitting
    (`fit_dimension` needs at least 5 of them to span a decade)."""
    Delta = diameter(space)
    if Delta <= 0:
        raise DegenerateFitError("point set has zero diameter")
    return Delta / 8.0 * 0.5 ** np.arange(n_scales)


# ---------------------------------------------------------------------------
# Refined partition sequence
# ---------------------------------------------------------------------------

def _group(labels: np.ndarray, ncells: int) -> List[np.ndarray]:
    """Positions of labels split by label into ncells groups, each
    ascending; labels outside [0, ncells) join no group."""
    pos = np.flatnonzero((labels >= 0) & (labels < ncells))
    order = pos[np.argsort(labels[pos], kind="stable")]
    ends = np.cumsum(np.bincount(labels[pos], minlength=ncells))
    return np.split(order, ends[:-1])


@dataclass
class PartitionTree:
    """Nested partitions of the space, stored per level k = 1..k_star as
    ``labels[k-1]`` (cell id of each point), ``centers[k-1]`` (space index
    of each cell's center) and ``parents[k-1]`` (cell id of each cell's
    parent at level k-1; level 0 is the single root cell)."""

    space: FiniteMetricSpace
    diam: float
    k_star: int
    labels: List[np.ndarray] = field(default_factory=list)
    centers: List[np.ndarray] = field(default_factory=list)
    parents: List[np.ndarray] = field(default_factory=list)

    @property
    def cell_counts(self) -> List[int]:
        return [c.size for c in self.centers]

    def level_radius(self, k: int) -> float:
        return 4.0 ** (-k) * self.diam

    def verify(self) -> None:
        """Re-check partition, refinement, diameter, and cardinality.

        Partition and refinement are array comparisons. A Euclidean cell
        whose points all lie within r of its center has diameter <= 2r, so
        that certificate replaces the pairwise diameter for every cell it
        clears with a relative margin; other cells, and every cell of a
        non-Euclidean space, get the exact diameter. The cap is checked by
        a greedy cover that stops as soon as it reaches the level's cell
        count.
        """
        n = self.space.n
        prev, nprev = np.zeros(n, np.int64), 1
        for k, (lab, cen, par) in enumerate(
                zip(self.labels, self.centers, self.parents), start=1):
            ncells = cen.size
            if (lab.shape != (n,) or par.shape != (ncells,) or ncells == 0
                    or lab.min() < 0 or lab.max() >= ncells
                    or np.bincount(lab, minlength=ncells).min() == 0):
                raise MultiscaleError(f"level {k} does not partition the set")
            self._check_diameters(k, lab, cen)
            if (par.min() < 0 or par.max() >= nprev
                    or np.any(par[lab] != prev)):
                raise MultiscaleError(f"refinement violated at level {k}")
            cap = _cover(self.space, 4.0 ** (-k - 1) * self.diam,
                         stop=ncells).size
            if ncells > cap:
                raise MultiscaleError(
                    f"level {k} has {ncells} cells, cover cap is {cap}")
            prev, nprev = lab, ncells

    def _check_diameters(self, k: int, lab: np.ndarray,
                         cen: np.ndarray) -> None:
        bound = self.level_radius(k) + 1e-12
        if self.space.kind == "euclidean":
            pts = self.space.points
            diff = pts - pts[cen[lab]]
            rmax = np.zeros(cen.size)
            np.maximum.at(rmax, lab, np.einsum("ij,ij->i", diff, diff))
            # the margin absorbs rounding in both distance computations
            unsure = np.flatnonzero(2.0 * np.sqrt(rmax) * (1.0 + 1e-9) > bound)
        else:
            unsure = np.arange(cen.size)
        if unsure.size == 0:
            return
        members = _group(lab, cen.size)
        for c in unsure:
            if diameter(self.space, members[c]) > bound:
                raise MultiscaleError(f"cell diameter violated at level {k}")

    def to_dict(self) -> dict:
        return {
            "diam": self.diam,
            "k_star": self.k_star,
            "cell_counts": self.cell_counts,
            "levels": [
                [{"center": int(c), "parent": int(p),
                  "points": [int(q) for q in m]}
                 for c, p, m in zip(cen, par, _group(lab, cen.size))]
                for lab, cen, par in zip(self.labels, self.centers,
                                         self.parents)
            ],
        }


def build_partition_tree(space: FiniteMetricSpace,
                         k_star: int) -> PartitionTree:
    """Top-down refined partitions of the space with four-fold shrinking
    diameters.

    Level-k centers are the greedy cover at radius 4^{-k}*diam/2 of each
    parent cell, all cells of a level in one grouped cover walk; points go
    to their nearest center within the parent (ties to the lowest center
    index). Cells are numbered by parent, then by center order within the
    parent.
    """
    if k_star < 1:
        raise MultiscaleError("k_star must be >= 1")
    Delta = diameter(space)
    tree = PartitionTree(space, Delta, int(k_star))
    lab = np.zeros(space.n, np.int64)
    for k in range(1, k_star + 1):
        centers, near = _cover(space, 4.0 ** (-k) * Delta / 2.0, groups=lab)
        par = lab[centers]
        order = np.argsort(par, kind="stable")
        cell = np.empty_like(order)
        cell[order] = np.arange(order.size)
        lab = cell[near]
        tree.labels.append(lab)
        tree.centers.append(centers[order])
        tree.parents.append(par[order])
    tree.verify()
    return tree


def auto_k_star(n: int, alpha: float) -> int:
    """Depth choice balancing the resolution term against sampling error."""
    return max(1, int(np.ceil(np.log(max(n, 2)) / (max(alpha, 1e-9) * np.log(4.0)))))


def dyadic_wpp_bound(tree: PartitionTree, mu: DiscreteMeasure,
                     nu: DiscreteMeasure, p: float) -> float:
    """Multiscale upper bound on W_p^p from per-cell mass discrepancies:

        diam^p * [4^{-k* p} + 4^p * sum_k 4^{-k p} sum_i |mu(Q_i^k)-nu(Q_i^k)|]
    """
    if mu.space is not tree.space or nu.space is not tree.space:
        raise MultiscaleError("measures live outside the tree's space")
    disc_sum = 0.0
    for k in range(1, tree.k_star + 1):
        lab = tree.labels[k - 1]
        ncells = tree.centers[k - 1].size
        # bincount sums each cell's weights in atom order
        ma = np.bincount(lab[mu.idx], weights=mu.weights, minlength=ncells)
        mb = np.bincount(lab[nu.idx], weights=nu.weights, minlength=ncells)
        disc_sum += 4.0 ** (-k * p) * float(np.sum(np.abs(ma - mb)))
    val = 4.0 ** (-tree.k_star * p) + 4.0 ** p * disc_sum
    return tree.diam ** p * val
