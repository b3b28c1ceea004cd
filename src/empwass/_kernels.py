"""Hot numeric kernels: one numpy/scipy implementation each.

The transportation LP is solved by HiGHS's dual revised simplex
(``scipy.optimize.linprog(method="highs-ds")``) and its optimum is
re-checked here against a dual certificate.
"""

from __future__ import annotations

from itertools import chain

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_array
from scipy.spatial import cKDTree


def backend() -> str:
    """Name of the kernel backend (recorded with benchmark runs)."""
    return "numpy"


# ---------------------------------------------------------------------------
# 1D Wasserstein between weighted staircases
# ---------------------------------------------------------------------------

def wpp_staircase(xa, ca, xb, cb, p):
    """W_p^p between staircases: xa/xb ascending atom positions, ca/cb
    cumulative weights ending at 1."""
    grid = np.union1d(ca, cb)
    lo = np.concatenate((np.zeros(1), grid[:-1]))
    seg = grid - lo
    mids = 0.5 * (grid + lo)
    qa = xa[np.searchsorted(ca, mids, side="left")]
    qb = xb[np.searchsorted(cb, mids, side="left")]
    return float(np.sum(seg * np.abs(qa - qb) ** p))


# ---------------------------------------------------------------------------
# Greedy covering / packing on Euclidean point arrays
# ---------------------------------------------------------------------------

# Candidate pairs a block of the cover walk aims at: enough that the fixed
# cost of a block (one tree query, a dozen numpy calls) is a small share
# of its pair work, few enough that a block of dense tentatives that
# mostly cover each other wastes little.
_BLOCK_PAIRS = 4096


def greedy_cover_pts(pts, delta, stop=None):
    """Centers in index order: each is the lowest-index point not within
    delta of an earlier center. With ``stop`` the walk ends once it has
    placed that many centers.

    "Within" is ``sum((x - c)**2) <= delta**2 * (1 + 1e-12)`` over the
    coordinates, summed in order. The walk takes the next block of
    uncovered points in index order as tentative centers, finds their
    neighbours with one kd-tree ball query at a radius 1e-9 above delta,
    keeps the pairs that pass the test above, and accepts the tentatives
    in index order unless an earlier acceptance covered them. Every
    point before the block is covered and the points between tentatives
    are too, so these are the centers of the one-at-a-time loop. The next
    block has twice as many tentatives as the last one gave centers, but
    no more than would bring about ``_BLOCK_PAIRS`` candidate pairs at the
    last query's rate per tentative (the first block assumes every point
    is a neighbour).
    """
    n = pts.shape[0]
    # relative epsilon keeps points at exactly distance delta covered
    d2 = delta * delta * (1.0 + 1e-12)
    tree = cKDTree(pts)
    # covered[n] is the sink for candidates that fail the exact test
    covered = np.zeros(n + 1, bool)
    centers = []
    cursor, block = 0, max(1, _BLOCK_PAIRS // max(n, 1))
    while cursor < n and len(centers) != stop:
        tent = cursor + np.flatnonzero(~covered[cursor:n])[:block]
        if tent.size == 0:
            break
        near = tree.query_ball_point(pts[tent], delta * (1.0 + 1e-9),
                                      return_sorted=False)
        sizes = np.fromiter(map(len, near), np.intp, tent.size)
        nbr = np.fromiter(chain.from_iterable(near), np.intp)
        diff = pts[nbr] - pts[np.repeat(tent, sizes)]
        nbr[np.einsum("ij,ij->i", diff, diff) > d2] = n
        taken, start = 0, 0
        for t, end in zip(tent.tolist(), np.cumsum(sizes).tolist()):
            if not covered[t]:
                centers.append(t)
                taken += 1
                covered[nbr[start:end]] = True
                if len(centers) == stop:
                    break
            start = end
        cursor = int(tent[-1]) + 1
        block = max(1, min(2 * taken, _BLOCK_PAIRS * tent.size // nbr.size))
    return np.asarray(centers, np.int64)


def greedy_packing_pts(pts, sep):
    """Maximal subset with pairwise distance > sep, lowest indices first.
    A point joins unless an earlier member lies within sep, so this is
    the greedy cover at radius sep."""
    return greedy_cover_pts(pts, sep)


def assign_nearest_pts(pts, centers):
    """Index of the nearest center coordinate; ties go to the earliest."""
    diff = pts[:, None, :] - centers[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    return np.argmin(d2, axis=1).astype(np.int64)


# Matrix variants for explicit-matrix metric spaces.

def greedy_cover_mat(D, delta, stop=None):
    n = D.shape[0]
    delta = delta * (1.0 + 1e-12)
    covered = np.zeros(n, bool)
    centers = []
    while len(centers) != stop and not covered.all():
        idx = int(np.argmin(covered))
        centers.append(idx)
        covered |= D[idx] <= delta
    return np.asarray(centers, np.int64)


def greedy_packing_mat(D, sep):
    """Maximal subset with pairwise distance > sep: the greedy cover at
    radius sep."""
    return greedy_cover_mat(D, sep)


def assign_nearest_mat(D):
    """D is the points-by-centers distance block; ties to earliest center."""
    return np.argmin(D, axis=1).astype(np.int64)


# ---------------------------------------------------------------------------
# Transportation LP
# ---------------------------------------------------------------------------

def _marginal_constraints(m, n):
    """CSR (m+n) x (m*n) matrix mapping a row-major plan to its row sums
    followed by its column sums."""
    cells = np.arange(m * n)
    indices = np.concatenate((cells, cells.reshape(m, n).T.ravel()))
    indptr = np.concatenate((np.arange(m + 1) * n,
                             m * n + np.arange(1, n + 1) * m))
    return csr_array((np.ones(2 * m * n), indices, indptr),
                     shape=(m + n, m * n))


def transport_simplex(a, b, C, tol, max_iter):
    """Minimise <C, X> over plans X >= 0 with row sums a and column sums b.

    Returns (X, status): status 0 when HiGHS reports an optimal basic
    solution whose duals (u, v) certify it, i.e. every reduced cost
    C - u - v is >= -tol; status 1 on any HiGHS failure (including the
    max_iter cap) or a failed certificate.
    """
    m, n = C.shape
    # At HiGHS's default dual feasibility tolerance (1e-7) it stops on
    # bases with reduced costs near -7e-8 in about 1 of 3,000 random 2-D
    # instances, and the certificate below rejects them; 1e-10 is the
    # tightest value HiGHS accepts and cleared every such case.
    res = linprog(C.ravel(), A_eq=_marginal_constraints(m, n),
                  b_eq=np.concatenate((a, b)), bounds=(0, None),
                  method="highs-ds",
                  options={"maxiter": max_iter,
                           "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        return np.zeros((m, n)), 1
    X = res.x.reshape(m, n)
    y = res.eqlin.marginals
    if np.min(C - y[:m, None] - y[None, m:]) < -tol:
        return X, 1
    return X, 0
