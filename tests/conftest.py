import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from empwass.metric_core import MetricError
from empwass.multiscale import MultiscaleError, greedy_cover


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


def _verify_tree_oracle(tree):
    """Partition-tree checks on the Cell view, written out directly: the
    sorted union of each level's cells, the pairwise diameter of every
    cell, membership of each cell in its parent, and a full greedy cover
    for the cardinality cap (the one-at-a-time loop for point clouds)."""
    subset_sorted = np.sort(tree.subset)
    levels = tree.levels
    for k, level in enumerate(levels, start=1):
        got = np.sort(np.concatenate([c.points for c in level]))
        if got.size != subset_sorted.size or np.any(got != subset_sorted):
            raise MultiscaleError(f"level {k} does not partition the set")
        for c in level:
            if (_diameter_oracle(tree.space, c.points)
                    > tree.level_radius(k) + 1e-12):
                raise MultiscaleError(f"cell diameter violated at level {k}")
            if k > 1:
                parent_pts = levels[k - 2][c.parent].points
                if not np.all(np.isin(c.points, parent_pts)):
                    raise MultiscaleError(f"refinement violated at level {k}")
        radius = 4.0 ** (-k - 1) * tree.diam
        if tree.diam == 0.0:
            cap = 1
        elif tree.space.kind == "euclidean":
            cap = _greedy_cover_oracle(tree.space.points[tree.subset],
                                       radius).size
        else:
            cap = greedy_cover(tree.space, tree.subset, radius).n_upper
        if len(level) > cap:
            raise MultiscaleError(
                f"level {k} has {len(level)} cells, cover cap is {cap}")


@pytest.fixture
def verify_tree_oracle():
    return _verify_tree_oracle
