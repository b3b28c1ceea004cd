import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from empwass.metric_core import diameter
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


def _verify_tree_oracle(tree):
    """Partition-tree checks on the Cell view, written out directly: the
    sorted union of each level's cells, the pairwise diameter of every
    cell, membership of each cell in its parent, and a full greedy cover
    for the cardinality cap."""
    subset_sorted = np.sort(tree.subset)
    levels = tree.levels
    for k, level in enumerate(levels, start=1):
        got = np.sort(np.concatenate([c.points for c in level]))
        if got.size != subset_sorted.size or np.any(got != subset_sorted):
            raise MultiscaleError(f"level {k} does not partition the set")
        for c in level:
            if diameter(tree.space, c.points) > tree.level_radius(k) + 1e-12:
                raise MultiscaleError(f"cell diameter violated at level {k}")
            if k > 1:
                parent_pts = levels[k - 2][c.parent].points
                if not np.all(np.isin(c.points, parent_pts)):
                    raise MultiscaleError(f"refinement violated at level {k}")
        if tree.diam == 0.0:
            cap = 1
        else:
            cap = greedy_cover(tree.space, tree.subset,
                               4.0 ** (-k - 1) * tree.diam).n_upper
        if len(level) > cap:
            raise MultiscaleError(
                f"level {k} has {len(level)} cells, cover cap is {cap}")


@pytest.fixture
def verify_tree_oracle():
    return _verify_tree_oracle
