"""Hot numeric kernels: one numpy/scipy implementation each.

The transportation LP is solved by HiGHS's dual revised simplex
(``scipy.optimize.linprog(method="highs-ds")``) and its optimum is
re-checked here against a dual certificate. ``ot_exact.wpp_mcf`` sends it
non-uniform weights and uniform m x n instances past the replication
limit ``ot_exact._MAX_REPLICATION`` (timings there); it solves every
other uniform instance as one lcm(m, n)-sized assignment, which is faster.

Each scipy submodule is imported inside the kernel that calls it: loading
``scipy.optimize`` alone takes most of a second, and a subcommand that
never solves an LP should not pay for it. The greedy cover finds its
neighbour candidates in a numpy cell grid and loads no scipy module.
"""

from __future__ import annotations

import numpy as np


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
# cost of a block (one grid lookup, a few dozen numpy calls) is a small
# share of its pair work, few enough that a block of dense tentatives that
# mostly cover each other wastes little.
_BLOCK_PAIRS = 4096

# Most cells per axis of the neighbour grid, so that the packed cell keys
# of three axes fit an int64 however small the radius.
_GRID_CELLS = 2 ** 20


def _grid_neighbours(pts, reach):
    """A lookup ``near(tent) -> (nbr, sizes)``: for each index in ``tent``,
    a superset of the points within ``reach`` of it in every coordinate,
    ``sizes[i]`` of them per tentative, concatenated in ``nbr``.

    The points are bucketed into a grid over the (up to) three coordinates
    of widest extent, with cells of side at least ``reach`` (a relative
    1e-6 more, so rounding in the cell index cannot put two coordinates
    ``reach`` apart two cells apart) and at most ``_GRID_CELLS`` cells per
    axis. A point's neighbours then lie in the 3^k cells around its own.
    Each axis gets an empty cell past either end, so the packed key of
    every cell around a point stays in its row's key range. The points
    are sorted once by key; the cells around a tentative are 3^(k-1) runs
    of consecutive keys (the last axis varies fastest), found for a whole
    block with two ``searchsorted`` calls.
    """
    lo = pts.min(axis=0)
    ext = pts.max(axis=0) - lo
    side = np.maximum(reach * (1.0 + 1e-6), ext / _GRID_CELLS)
    # an axis narrower than one cell separates nothing; keep at least one
    k = max(1, min(3, int(np.count_nonzero(ext >= side))))
    axes = np.argsort(-ext, kind="stable")[:k]
    cells = np.floor((pts[:, axes] - lo[axes]) / side[axes]).astype(np.int64)
    width = cells.max(axis=0) + 3
    stride = np.cumprod(np.r_[1, width[:0:-1]])[::-1]
    key = (cells + 1) @ stride
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    # key offsets of the 3^(k-1) rows around a cell
    rows = np.zeros(1, np.int64)
    for a in range(k - 1):
        rows = (rows[:, None] + np.array([-1, 0, 1]) * stride[a]).ravel()

    def near(tent):
        mid = key[tent, None] + rows
        first = np.searchsorted(sorted_key, mid - 1).ravel()
        count = np.searchsorted(sorted_key, mid + 1, side="right").ravel()
        count -= first
        ends = np.cumsum(count)
        pos = np.arange(ends[-1]) + np.repeat(first - ends + count, count)
        return order[pos], count.reshape(tent.size, -1).sum(axis=1)

    return near


def greedy_cover_pts(pts, delta, stop=None, groups=None):
    """Centers in index order: each is the lowest-index point not within
    delta of an earlier center. With ``stop`` the walk ends once it has
    placed that many centers.

    "Within" is ``sum((x - c)**2) <= delta**2 * (1 + 1e-12)`` over the
    coordinates, summed in order. The walk takes the next block of
    uncovered points in index order as tentative centers, finds a superset
    of their neighbours with one lookup in a cell grid (``_grid_neighbours``),
    keeps the pairs that pass the test above, and accepts the tentatives
    in index order unless an earlier acceptance covered them. Every
    point before the block is covered and the points between tentatives
    are too, so these are the centers of the one-at-a-time loop. The next
    block has twice as many tentatives as the last one gave centers, but
    no more than would bring about ``_BLOCK_PAIRS`` candidate pairs at the
    last lookup's rate per tentative (the first block assumes every point
    is a neighbour).

    With ``groups`` (one integer label per point) a center covers only
    points of its own group, so the centers of each group are the greedy
    cover of that group alone, and the walk returns ``(centers, labels)``:
    ``labels[i]`` is the position in ``centers`` of the nearest center of
    i's group (least squared distance, ties to the lowest center; -1 for
    points a ``stop`` left uncovered). Every center's covered pairs passed
    the exact test, and a point's nearest center is no farther than the
    one covering it, so that center is among the kept pairs.
    """
    n = pts.shape[0]
    # relative epsilon keeps points at exactly distance delta covered
    d2max = delta * delta * (1.0 + 1e-12)
    # A pair that passes the test is at most sqrt(d2max) apart in each
    # coordinate, up to the rounding of its square: relative where the
    # square is normal, 2^-1074 absolute where it is subnormal.
    near = _grid_neighbours(pts, np.sqrt(d2max + 2.0 ** -1074) * (1.0 + 1e-9))
    # covered[n] is the sink for candidates that fail the exact test
    covered = np.zeros(n + 1, bool)
    centers, pairs = [], []
    cursor, block = 0, max(1, _BLOCK_PAIRS // max(n, 1))
    while cursor < n and len(centers) != stop:
        tent = cursor + np.flatnonzero(~covered[cursor:n])[:block]
        if tent.size == 0:
            break
        nbr, sizes = near(tent)
        owner = np.repeat(tent, sizes)
        diff = pts[nbr] - pts[owner]
        d2 = np.einsum("ij,ij->i", diff, diff)
        far = d2 > d2max
        if groups is not None:
            far |= groups[nbr] != groups[owner]
        nbr[far] = n
        before, start = len(centers), 0
        for t, end in zip(tent.tolist(), np.cumsum(sizes).tolist()):
            if not covered[t]:
                centers.append(t)
                covered[nbr[start:end]] = True
                if len(centers) == stop:
                    break
            start = end
        if groups is not None:
            accepted = np.zeros(tent.size, bool)
            accepted[np.searchsorted(tent, centers[before:])] = True
            keep = np.repeat(accepted, sizes) & (nbr < n)
            pairs.append((nbr[keep], d2[keep], owner[keep]))
        cursor = int(tent[-1]) + 1
        block = max(1, min(2 * (len(centers) - before),
                           _BLOCK_PAIRS * tent.size // nbr.size))
    centers = np.asarray(centers, np.int64)
    if groups is None:
        return centers
    pt, d2, cen = map(np.concatenate, zip(*pairs))
    # per point, the pair of least d2 and then least center comes first
    order = np.lexsort((cen, d2, pt))
    first = order[np.r_[True, pt[order[1:]] != pt[order[:-1]]]]
    labels = np.full(n, -1, np.int64)
    labels[pt[first]] = np.searchsorted(centers, cen[first])
    return centers, labels


def greedy_packing_pts(pts, sep):
    """Maximal subset with pairwise distance > sep, lowest indices first.
    A point joins unless an earlier member lies within sep, so this is
    the greedy cover at radius sep. The package calls the cover directly;
    this name stays because the benchmark's micro timings and span tracer
    look it up."""
    return greedy_cover_pts(pts, sep)


def assign_nearest_pts(pts, centers):
    """Index of the nearest center coordinate; ties go to the earliest.
    The grouped cover walk labels the partition-tree cells itself; this
    name stays because the benchmark's micro timings and span tracer look
    it up."""
    diff = pts[:, None, :] - centers[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    return np.argmin(d2, axis=1).astype(np.int64)


# Matrix variant for explicit-matrix metric spaces.

def greedy_cover_mat(D, delta, stop=None, groups=None):
    """``greedy_cover_pts`` on a distance matrix: center c covers every j
    with ``D[c, j] <= delta * (1 + 1e-12)`` (and, with ``groups``, of c's
    group). With ``groups`` it returns ``(centers, labels)``, each label
    the argmin of ``D[i, c]`` over the centers c of i's group, ties to
    the lowest center."""
    n = D.shape[0]
    delta = delta * (1.0 + 1e-12)
    covered = np.zeros(n, bool)
    centers = []
    while len(centers) != stop and not covered.all():
        idx = int(np.argmin(covered))
        centers.append(idx)
        reach = D[idx] <= delta
        if groups is not None:
            reach &= groups == groups[idx]
        covered |= reach
        # a diagonal entry above delta (not a metric) must not stall the loop
        covered[idx] = True
    centers = np.asarray(centers, np.int64)
    if groups is None:
        return centers
    block = np.where(groups[:, None] == groups[centers], D[:, centers],
                     np.inf)
    return centers, np.argmin(block, axis=1).astype(np.int64)


# ---------------------------------------------------------------------------
# Transportation LP
# ---------------------------------------------------------------------------

def _marginal_constraints(m, n):
    """CSR (m+n) x (m*n) matrix mapping a row-major plan to its row sums
    followed by its column sums."""
    from scipy.sparse import csr_array

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
    from scipy.optimize import linprog

    m, n = C.shape
    # At HiGHS's default dual feasibility tolerance (1e-7) it stops on
    # bases with reduced costs near -7e-8 in about 1 of 3,000 random 2-D
    # instances, and the certificate below rejects them; 1e-10 is the
    # tightest value HiGHS accepts and cleared every such case. At the
    # default primal tolerance (1e-7), weights spread over several decades
    # gave plans whose marginals were off by up to 1e-7 (137 of 500) or
    # "infeasible" (4 of 500); at 1e-10 the worst residual was 9e-11, and
    # uniform or Dirichlet(1) weights gave the same plans as at 1e-7.
    res = linprog(C.ravel(), A_eq=_marginal_constraints(m, n),
                  b_eq=np.concatenate((a, b)), bounds=(0, None),
                  method="highs-ds",
                  options={"maxiter": max_iter,
                           "dual_feasibility_tolerance": 1e-10,
                           "primal_feasibility_tolerance": 1e-10})
    if res.status != 0:
        return np.zeros((m, n)), 1
    X = res.x.reshape(m, n)
    y = res.eqlin.marginals
    if np.min(C - y[:m, None] - y[None, m:]) < -tol:
        return X, 1
    return X, 0
