"""Covering numbers, covering-dimension fits, refined partition trees,
and the dyadic multiscale upper bound on W_p^p."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

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


def greedy_cover(space: FiniteMetricSpace, delta: float) -> CoveringEstimate:
    """Greedy cover of the space by closed delta-balls (next center = first
    uncovered point of lowest index) plus a 2*delta-packing lower bound."""
    if not delta > 0:
        raise MultiscaleError("delta must be positive")
    cov = space.cover(delta)
    # a maximal 2*delta-separated set is the greedy cover at 2*delta
    pack = space.cover(2.0 * delta)
    return CoveringEstimate(float(delta), int(cov.size), int(pack.size), cov)


@dataclass(frozen=True)
class DimensionFit:
    alpha: float
    beta: float
    scales: np.ndarray
    counts: np.ndarray
    r2: float
    diam: float

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
    counts = np.array([space.cover(d).size for d in deltas])
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
    (`fit_dimension` needs at least 5 of them to span a decade); refused
    before allocating when the last scale underflows to 0."""
    Delta = diameter(space)
    if Delta <= 0:
        raise DegenerateFitError("point set has zero diameter")
    if n_scales > 0 and math.ldexp(Delta / 8.0, 1 - n_scales) == 0.0:
        raise MultiscaleError("too many scales: they halve diam/8 to 0")
    return np.ldexp(Delta / 8.0, -np.arange(n_scales))


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


def _union(spaces: Sequence[FiniteMetricSpace]):
    """The interleaved union of spaces of one kind, as
    ``(union, tree, local, pos)``.

    Union positions are ordered by (local index, space), so point i of
    space r sits at i*R + r when all R spaces have one size. ``union`` is
    a space on the interleaved coordinates, whose cross-space distances
    may overflow, or on the block-diagonal matrix, +inf off the blocks:
    a walk grouped by space reads neither.
    ``tree`` and ``local`` give the space and the local index at each
    position, and ``pos`` the position of each point of the spaces taken
    one after another.
    """
    kind = spaces[0].kind
    if any(s.kind != kind or s.dim != spaces[0].dim for s in spaces):
        raise MultiscaleError(
            "a forest's spaces must share kind and dimension")
    sizes = np.array([s.n for s in spaces])
    starts = np.cumsum(sizes) - sizes
    tree = np.repeat(np.arange(sizes.size), sizes)
    local = np.arange(tree.size) - np.repeat(starts, sizes)
    perm = np.lexsort((tree, local))
    pos = np.empty_like(perm)
    pos[perm] = np.arange(perm.size)
    if kind == "euclidean":
        union = FiniteMetricSpace(
            kind=kind, points=np.concatenate([s.points for s in spaces])[perm])
    else:
        data = np.full((perm.size, perm.size), np.inf)
        for s, at in zip(spaces, np.split(pos, starts[1:])):
            data[np.ix_(at, at)] = s.submatrix(np.arange(s.n))
        union = FiniteMetricSpace.from_matrix(data)
    return union, tree[perm], local[perm], pos


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

    def verify(self, *others: "PartitionTree") -> None:
        """Re-check partition, diameter, refinement, centers and
        cardinality of this tree and of ``others``, all trees of a level
        at once.

        Each tree's cells are numbered after those of the trees before
        it. Partition, refinement and centers (each in range, then a
        point of its own cell) are array comparisons; the range comes
        first, as the diameter certificate reads the centers. A Euclidean
        cell whose points all lie within r of its center has diameter
        <= 2r, so that certificate replaces the pairwise diameter for
        every cell it clears its own tree's bound with a relative margin;
        other cells, and every cell of a non-Euclidean space, get the
        exact diameter. The cap is checked by one greedy cover walk over
        the union of the spaces (``_union``), grouped by tree at each
        tree's radius, in which a tree stops as soon as it reaches its
        level's cell count. A failure names the first tree that fails
        the first check. The trees must share one depth, and each of a
        tree's three lists must hold k_star levels.
        """
        trees = (self,) + others
        if any(t.k_star != self.k_star for t in trees):
            raise MultiscaleError("the trees differ in k_star")
        if any({len(t.labels), len(t.centers), len(t.parents)} != {t.k_star}
               for t in trees):
            raise MultiscaleError("a tree does not hold k_star levels")
        spaces = [t.space for t in trees]
        union, tree, _, pos = _union(spaces)
        sizes = np.array([s.n for s in spaces])
        diams = np.array([t.diam for t in trees])
        starts = np.cumsum(sizes) - sizes
        points = None if union.points is None else union.points[pos]
        whose = np.arange(len(trees))
        # level 0: cell r, the root of tree r, holds all of its points
        prev, pstart = np.repeat(whose, sizes), whose
        nprev = np.ones_like(whose)
        for k, level in enumerate(zip(*(zip(t.labels, t.centers, t.parents)
                                        for t in trees)), start=1):
            labs, cens, pars = zip(*level)
            ncells = np.array([c.size for c in cens])
            if any(lab.shape != (s.n,) or par.shape != (c.size,) or c.size == 0
                   for lab, c, par, s in zip(labs, cens, pars, spaces)):
                raise MultiscaleError(f"level {k} does not partition the set")
            cstart = np.cumsum(ncells) - ncells
            lab = np.concatenate(labs)
            if lab.min() < 0 or np.any(lab >= np.repeat(ncells, sizes)):
                raise MultiscaleError(f"level {k} does not partition the set")
            lab = lab + np.repeat(cstart, sizes)
            if np.bincount(lab, minlength=ncells.sum()).min() == 0:
                raise MultiscaleError(f"level {k} does not partition the set")
            cen = np.concatenate(cens)
            if cen.min() < 0 or np.any(cen >= np.repeat(sizes, ncells)):
                raise MultiscaleError(f"level {k} has a center out of range")
            cen = cen + np.repeat(starts, ncells)
            owner = np.repeat(whose, ncells)
            bound = np.array([t.level_radius(k) for t in trees])[owner] + 1e-12
            if points is not None:
                diff = points - np.take(points, cen[lab], axis=0)
                rmax = np.zeros(ncells.sum())
                np.maximum.at(rmax, lab, np.einsum("ij,ij->i", diff, diff))
                # the margin absorbs rounding in both distance computations
                unsure = np.flatnonzero(
                    2.0 * np.sqrt(rmax) * (1.0 + 1e-9) > bound)
            else:
                unsure = np.arange(ncells.sum())
            if unsure.size:
                members = _group(lab, ncells.sum())
                for c in unsure:
                    r = owner[c]
                    if diameter(spaces[r], members[c] - starts[r]) > bound[c]:
                        raise MultiscaleError(
                            f"cell diameter violated at level {k}")
            par = np.concatenate(pars)
            if (par.min() < 0 or np.any(par >= np.repeat(nprev, ncells))
                    or np.any((par + pstart[owner])[lab] != prev)):
                raise MultiscaleError(f"refinement violated at level {k}")
            if np.any(lab[cen] != np.arange(ncells.sum())):
                raise MultiscaleError(
                    f"level {k} has a center outside its own cell")
            cap = np.bincount(tree[union.cover(4.0 ** (-k - 1) * diams,
                                               stop=ncells, groups=tree)],
                              minlength=len(trees))
            bad = np.flatnonzero(ncells > cap)
            if bad.size:
                r = bad[0]
                raise MultiscaleError(f"level {k} has {ncells[r]} cells, "
                                      f"cover cap is {cap[r]}")
            prev, nprev, pstart = lab, ncells, cstart

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


def build_partition_trees(spaces: Sequence[FiniteMetricSpace],
                          k_star: int) -> List[PartitionTree]:
    """One partition tree per space, built as one forest: top-down
    refined partitions with four-fold shrinking diameters.

    Level-k centers are the greedy cover at radius 4^{-k}*diam/2 of each
    parent cell, where diam is its own space's diameter; points go to
    their nearest center within the parent (ties to the lowest center
    index). Cells are numbered by parent, then by center order within the
    parent. A level of every tree is one grouped cover walk over the
    interleaved union of the spaces (``_union``): the groups are the
    level k-1 cells, level 0 being one root cell per space, and each
    group has its tree's radius. A tree's cells stay contiguous in the
    union's numbering, so its arrays are sliced out of the union's, equal
    to those of a build on its space alone. The trees are verified
    together before they are returned.
    """
    if k_star < 1:
        raise MultiscaleError("k_star must be >= 1")
    diams = np.array([diameter(s) for s in spaces])
    # the last radius, or 4^-k_star at zero diameter, must not underflow
    for Delta in diams:
        if math.ldexp(Delta / 2.0 if Delta > 0 else 1.0, -2 * k_star) == 0.0:
            raise MultiscaleError("k_star too large: the radius "
                                  "4^-k_star*diam/2 underflows to 0")
    union, tree, local, pos = _union(spaces)
    trees = [PartitionTree(s, float(D), int(k_star))
             for s, D in zip(spaces, diams)]
    cuts = np.cumsum([s.n for s in spaces])[:-1]
    whose = np.arange(len(spaces))
    # level 0: one root cell per space, cell r being space r's
    lab, owner, start = tree, whose, whose
    for k in range(1, k_star + 1):
        centers, near = union.cover(np.ldexp(diams[owner] / 2.0, -2 * k),
                                    groups=lab, labels=True)
        par = lab[centers]
        order = np.argsort(par, kind="stable")
        cell = np.empty_like(order)
        cell[order] = np.arange(order.size)
        par = par[order]
        owner = owner[par]
        first = np.searchsorted(owner, whose)
        lab = cell[near]
        for t, tl, tc, tp in zip(
                trees, np.split((lab - first[tree])[pos], cuts),
                np.split(local[centers[order]], first[1:]),
                np.split(par - start[owner], first[1:])):
            t.labels.append(tl)
            t.centers.append(tc)
            t.parents.append(tp)
        start = first
    trees[0].verify(*trees[1:])
    return trees


def build_partition_tree(space: FiniteMetricSpace,
                         k_star: int) -> PartitionTree:
    """The partition tree of one space (``build_partition_trees``)."""
    return build_partition_trees([space], k_star)[0]


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
