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


def _cover(space: FiniteMetricSpace, subset: np.ndarray, delta: float,
           stop: Optional[int] = None) -> np.ndarray:
    """Positions in subset of the greedy delta-cover centers."""
    if space.kind == "euclidean":
        return _kernels.greedy_cover_pts(space.points[subset], float(delta),
                                         stop=stop)
    return _kernels.greedy_cover_mat(space.submatrix(subset), float(delta),
                                     stop=stop)


def greedy_cover(space: FiniteMetricSpace, subset: Sequence[int],
                 delta: float) -> CoveringEstimate:
    """Greedy cover by closed delta-balls (next center = first uncovered
    point of lowest index) plus a 2*delta-packing lower bound."""
    subset = np.asarray(subset, dtype=np.int64)
    if subset.size == 0:
        raise MultiscaleError("subset is empty")
    if not delta > 0:
        raise MultiscaleError("delta must be positive")
    cov = _cover(space, subset, delta)
    # a maximal 2*delta-separated set is the greedy cover at 2*delta
    pack = _cover(space, subset, 2.0 * delta)
    return CoveringEstimate(float(delta), int(cov.size), int(pack.size),
                            subset[cov])


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


def fit_dimension(space: FiniteMetricSpace, subset: Sequence[int],
                  deltas: Sequence[float]) -> DimensionFit:
    """One-sided power-law envelope for covering counts.

    Least squares on log counts vs log(diam/delta), then the prefactor is
    inflated minimally so the law dominates every observed count. Counts
    are greedy cover sizes.
    """
    subset = np.asarray(subset, dtype=np.int64)
    deltas = np.sort(np.asarray(deltas, dtype=float))[::-1]
    if deltas.size < 4:
        raise MultiscaleError("need at least 4 scales")
    if not np.all(deltas > 0):
        raise MultiscaleError("delta must be positive")
    if deltas.max() / deltas.min() < 10.0 - 1e-9:
        raise MultiscaleError("scales must span at least one decade")
    if subset.size == 0:
        raise MultiscaleError("subset is empty")
    Delta = diameter(space, subset)
    if Delta <= 0:
        raise DegenerateFitError("point set has zero diameter")
    counts = np.array([_cover(space, subset, d).size for d in deltas])
    if np.all(counts == 1):
        raise DegenerateFitError("all covering counts equal 1")
    x = np.log(Delta / deltas)
    y = np.log(counts.astype(float))
    alpha, logbeta, resid, _, r2 = line_fit(x, y)
    # one-sided adjustment: shift the intercept up to dominate all counts
    logbeta += max(0.0, float(np.max(resid)))
    return DimensionFit(float(alpha), float(np.exp(logbeta)), deltas, counts,
                        r2, Delta)


def auto_delta_grid(space: FiniteMetricSpace, subset: Sequence[int],
                    n_scales: int = 6) -> np.ndarray:
    """Dyadic scales diam/8, diam/16, ... for dimension fitting."""
    Delta = diameter(space, np.asarray(subset, dtype=np.int64))
    if Delta <= 0:
        raise DegenerateFitError("point set has zero diameter")
    n_scales = max(4, n_scales)
    return Delta / 8.0 * 0.5 ** np.arange(n_scales)


# ---------------------------------------------------------------------------
# Refined partition sequence
# ---------------------------------------------------------------------------

@dataclass
class Cell:
    center: int              # space index of the cell center
    parent: int               # cell id in the previous level (0, the root, at level 1)
    points: np.ndarray        # space indices of member points


def _group(values: np.ndarray, labels: np.ndarray,
           ncells: int) -> List[np.ndarray]:
    """values split by label into ncells groups, each in input order;
    labels outside [0, ncells) join no group."""
    pos = np.flatnonzero((labels >= 0) & (labels < ncells))
    order = pos[np.argsort(labels[pos], kind="stable")]
    ends = np.cumsum(np.bincount(labels[pos], minlength=ncells))
    return np.split(values[order], ends[:-1])


@dataclass
class PartitionTree:
    """Nested partitions of ``subset``, stored per level k = 1..k_star as
    ``labels[k-1]`` (cell id of each subset position), ``centers[k-1]``
    (space index of each cell's center) and ``parents[k-1]`` (cell id of
    each cell's parent at level k-1; level 0 is the single root cell)."""

    space: FiniteMetricSpace
    subset: np.ndarray
    diam: float
    k_star: int
    labels: List[np.ndarray] = field(default_factory=list)
    centers: List[np.ndarray] = field(default_factory=list)
    parents: List[np.ndarray] = field(default_factory=list)

    @property
    def cell_counts(self) -> List[int]:
        return [c.size for c in self.centers]

    @property
    def levels(self) -> List[List[Cell]]:
        """Cell view of the label arrays."""
        return [[Cell(int(c), int(p), m) for c, p, m in
                 zip(cen, par, _group(self.subset, lab, cen.size))]
                for lab, cen, par in zip(self.labels, self.centers,
                                         self.parents)]

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
        n = self.subset.size
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
            if self.diam == 0.0:
                cap = 1
            else:
                cap = _cover(self.space, self.subset,
                             4.0 ** (-k - 1) * self.diam, stop=ncells).size
            if ncells > cap:
                raise MultiscaleError(
                    f"level {k} has {ncells} cells, cover cap is {cap}")
            prev, nprev = lab, ncells

    def _check_diameters(self, k: int, lab: np.ndarray,
                         cen: np.ndarray) -> None:
        bound = self.level_radius(k) + 1e-12
        if self.space.kind == "euclidean":
            pts = self.space.points
            diff = pts[self.subset] - pts[cen[lab]]
            rmax = np.zeros(cen.size)
            np.maximum.at(rmax, lab, np.einsum("ij,ij->i", diff, diff))
            # the margin absorbs rounding in both distance computations
            unsure = np.flatnonzero(2.0 * np.sqrt(rmax) * (1.0 + 1e-9) > bound)
        else:
            unsure = np.arange(cen.size)
        if unsure.size == 0:
            return
        members = _group(self.subset, lab, cen.size)
        for c in unsure:
            if diameter(self.space, members[c]) > bound:
                raise MultiscaleError(f"cell diameter violated at level {k}")

    def to_dict(self) -> dict:
        return {
            "diam": self.diam,
            "k_star": self.k_star,
            "cell_counts": self.cell_counts,
            "levels": [
                [{"center": int(c.center), "parent": int(c.parent),
                  "points": [int(q) for q in c.points]} for c in lv]
                for lv in self.levels
            ],
        }


def _assign(space: FiniteMetricSpace, pts_idx: np.ndarray,
            centers_idx: np.ndarray) -> np.ndarray:
    if space.kind == "euclidean":
        return _kernels.assign_nearest_pts(space.points[pts_idx],
                                           space.points[centers_idx])
    D = space.distance_block(pts_idx, centers_idx)
    return _kernels.assign_nearest_mat(D)


def build_partition_tree(space: FiniteMetricSpace, subset: Sequence[int],
                         k_star: int) -> PartitionTree:
    """Top-down refined partitions with four-fold shrinking diameters.

    Level-k centers come from a greedy cover at radius 4^{-k}*diam/2
    inside each parent cell; points go to their nearest center within the
    parent (ties to the lowest center index). Cells are numbered by
    parent, then by center order within the parent.
    """
    subset = np.asarray(subset, dtype=np.int64)
    if subset.size == 0:
        raise MultiscaleError("subset is empty")
    if k_star < 1:
        raise MultiscaleError("k_star must be >= 1")
    Delta = diameter(space, subset)
    tree = PartitionTree(space, subset, Delta, int(k_star))
    prev_lab = np.zeros(subset.size, np.int64)
    nprev = 1
    for k in range(1, k_star + 1):
        radius = 4.0 ** (-k) * Delta / 2.0
        lab = np.empty(subset.size, np.int64)
        cen: List[np.ndarray] = []
        par: List[np.ndarray] = []
        ncells = 0
        for pid, pos in enumerate(_group(np.arange(subset.size), prev_lab,
                                         nprev)):
            pts = subset[pos]
            if pts.size == 1 or Delta == 0.0:
                # one cell; when Delta == 0 every level is one cell and its
                # center, like the root's, is the first point of subset
                centers = pts[:1]
                local = np.zeros(pts.size, np.int64)
            else:
                centers = pts[_cover(space, pts, radius)]
                local = _assign(space, pts, centers)
                used = np.bincount(local, minlength=centers.size) > 0
                local = (np.cumsum(used) - 1)[local]
                centers = centers[used]
            lab[pos] = ncells + local
            cen.append(centers)
            par.append(np.full(centers.size, pid, np.int64))
            ncells += centers.size
        tree.labels.append(lab)
        tree.centers.append(np.concatenate(cen))
        tree.parents.append(np.concatenate(par))
        prev_lab, nprev = lab, ncells
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
    position = np.full(tree.space.n, -1, np.int64)
    position[tree.subset] = np.arange(tree.subset.size)
    at = []
    for m in (mu, nu):
        if m.idx.max() >= position.size or position[m.idx].min() < 0:
            raise MultiscaleError("measure support lies outside the tree")
        at.append(position[m.idx])
    disc_sum = 0.0
    for k in range(1, tree.k_star + 1):
        lab = tree.labels[k - 1]
        ncells = tree.centers[k - 1].size
        # bincount sums each cell's weights in atom order
        ma = np.bincount(lab[at[0]], weights=mu.weights, minlength=ncells)
        mb = np.bincount(lab[at[1]], weights=nu.weights, minlength=ncells)
        disc_sum += 4.0 ** (-k * p) * float(np.sum(np.abs(ma - mb)))
    val = 4.0 ** (-tree.k_star * p) + 4.0 ** p * disc_sum
    return tree.diam ** p * val
