"""Hot numeric kernels: one numpy/scipy implementation each.

The transportation LP is solved by HiGHS's dual revised simplex
(``scipy.optimize.linprog(method="highs-ds")``) and its optimum is
re-checked here against a dual certificate. ``ot_exact.wpp_mcf`` sends it
non-uniform weights and uniform m x n instances past the replication
limit ``ot_exact._MAX_REPLICATION`` (timings there); it solves every
other uniform instance as one lcm(m, n)-sized assignment, which is faster.

Each scipy submodule is imported inside the kernel that calls it: loading
``scipy.optimize`` takes 0.40-0.50 s and about 40 MB, and a subcommand
that never solves an LP should not pay for it. The assignment path loads
only scipy's compiled ``scipy.optimize._lsap`` (see
``ot_exact.linear_sum_assignment``). The greedy cover is one walk
(``_cover_walk``) for point arrays and distance matrices alike; a point
array finds its neighbour candidates in a numpy cell grid, a matrix
reads its tentatives' rows, and neither loads a scipy module.
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
# Greedy covering / packing on point arrays and distance matrices
# ---------------------------------------------------------------------------

# Candidate pairs a block of the cover walk aims at: enough that the fixed
# cost of a block (one grid lookup, a few dozen numpy calls) is a small
# share of its pair work, few enough that a block of dense tentatives that
# mostly cover each other wastes little.
_BLOCK_PAIRS = 4096

# Most cells per axis of the neighbour grid, so that the packed cell keys
# of three axes fit an int64 however small the radius; with groups the
# cap shrinks until the group id fits the key as well.
_GRID_CELLS = 2 ** 20


def _grid_neighbours(pts, reach, groups=None):
    """A lookup ``near(tent) -> (nbr, sizes)``: for each index in ``tent``,
    a superset of the points of its group within ``reach`` of it in every
    coordinate, ``sizes[i]`` of them per tentative, concatenated in ``nbr``;
    returned with ``rate``, the candidates it finds per tentative on
    average over a uniformly chosen point: 3^k times the mean occupancy
    of that point's cell (sum of c^2 over the cell counts c, over n).

    The points are bucketed into a grid over the (up to) three coordinates
    of widest extent, with cells of side at least ``reach`` (a relative
    1e-6 more, so rounding in the cell index cannot put two coordinates
    ``reach`` apart two cells apart) and at most ``_GRID_CELLS`` cells per
    axis. A point's neighbours then lie in the 3^k cells around its own.
    Each axis gets an empty cell past either end, so the packed key of
    every cell around a point stays in its row's key range. With
    ``groups`` the group id is the leading digit of the key, so the cells
    around a point hold only points of its own group; the cells per axis
    are capped so that (cells + 3)^3 keys per group, times the groups,
    stay below 2^62. The points are sorted once by key; the cells around
    a tentative are 3^(k-1) runs of consecutive keys (the last axis
    varies fastest), whose ends a whole block finds with one
    ``searchsorted`` call.
    """
    lo = pts.min(axis=0)
    ext = pts.max(axis=0) - lo
    ngroups = 1 if groups is None else int(groups.max()) + 1
    cap = min(_GRID_CELLS, int((2.0 ** 62 / ngroups) ** (1.0 / 3.0)) - 3)
    side = np.maximum(reach * (1.0 + 1e-6), ext / cap)
    # an axis narrower than one cell separates nothing; keep at least one
    k = max(1, min(3, int(np.count_nonzero(ext >= side))))
    axes = np.argsort(-ext, kind="stable")[:k]
    cells = np.floor((pts[:, axes] - lo[axes]) / side[axes]).astype(np.int64)
    width = cells.max(axis=0) + 3
    stride = np.cumprod(np.r_[1, width[:0:-1]])[::-1]
    key = (cells + 1) @ stride
    if groups is not None:
        key += groups * (stride[0] * width[0])
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    occupied = np.diff(np.flatnonzero(
        np.r_[True, sorted_key[1:] != sorted_key[:-1], True]))
    rate = 3 ** k * float(occupied @ occupied) / key.size
    # key offsets of the 3^(k-1) rows around a cell
    rows = np.zeros(1, np.int64)
    for a in range(k - 1):
        rows = (rows[:, None] + np.array([-1, 0, 1]) * stride[a]).ravel()
    # a row's run starts at its key - 1 and ends before its key + 2
    bounds = np.concatenate((rows - 1, rows + 2))

    def near(tent):
        first, stop = np.hsplit(
            np.searchsorted(sorted_key, key[tent, None] + bounds), 2)
        count = (stop - first).ravel()
        ends = np.cumsum(count)
        pos = np.arange(ends[-1]) + np.repeat(first.ravel() - ends + count,
                                              count)
        return order[pos], count.reshape(tent.size, -1).sum(axis=1)

    return near, rate


def _accept(size, src, dst):
    """Which of ``size`` tentatives, in index order, the one-at-a-time
    walk makes centers, given the edges ``src[e] < dst[e]``: tentative
    ``src[e]`` covers the later ``dst[e]``. Decided in rounds (Blelloch,
    Fineman & Shun 2012): each round accepts every undecided tentative
    whose blockers are all rejected, then rejects every undecided one
    with an accepted blocker. The lowest undecided tentative is accepted
    in every round, and each decision is the one the walk makes."""
    accepted = np.ones(size, bool)
    undecided = np.ones(size, bool)
    # every edge kept has both ends undecided
    while src.size:
        waits = np.zeros(size, bool)
        waits[dst] = True
        now = undecided & ~waits
        undecided &= waits
        beaten = dst[now[src]]
        accepted[beaten] = False
        undecided[beaten] = False
        live = undecided[src] & undecided[dst]
        src, dst = src[live], dst[live]
    return accepted


def _fill_quota(quota, grp):
    """``(fits, full)`` for the accepted centers of one block, their
    groups ``grp`` in index order, which ``quota`` lowers: ``fits`` masks
    those within their group's remaining quota, ``full`` the groups that
    have used it up (both None when no group has). A full group's quota
    is raised past any count, since its points are then all covered."""
    quota -= np.bincount(grp, minlength=quota.size)
    if quota.min() > 0:
        return None, None
    # the centers past a group's quota are its last -quota ones
    order = np.argsort(grp, kind="stable")
    from_end = np.empty_like(order)
    from_end[order] = np.searchsorted(grp[order], grp[order],
                                      side="right") - np.arange(grp.size)
    full = quota <= 0
    fits = from_end > -quota[grp]
    quota[full] = np.iinfo(np.int64).max
    return fits, full


def _cover_walk(n, pairs, rate, stop, groups, labels):
    """The greedy cover walk over points 0..n-1, shared by both kernels:
    ``pairs(tent)`` gives, for the tentative centers ``tent`` (ascending),
    the arrays ``(nbr, own, dist)`` of the pairs in which ``tent[own[e]]``
    covers point ``nbr[e]`` at distance ``dist[e]`` (each tentative with
    itself among them), and the number of candidate pairs it looked at;
    ``rate`` is the lookup's expected candidate count per tentative.

    The walk takes the next block of uncovered points in index order as
    tentative centers. A tentative is blocked by each earlier tentative of
    the block that covers it, and ``_accept`` decides the block in
    rounds: these are the tentatives the one-at-a-time loop accepts,
    since every point before the block is covered and the points between
    tentatives are too. The next block has twice as many tentatives as
    the last one gave centers, but no more than would bring about
    ``_BLOCK_PAIRS`` candidate pairs at the last lookup's rate per
    tentative. The first block is sized from ``rate`` instead, so a walk
    over many points starts near its pair budget rather than doubling up
    from one tentative. No decision depends on how the walk is cut into
    blocks, so neither rule changes a center or a label.

    ``stop`` is a center count per group, or one count for all points: a
    group that reaches its count marks its remaining points covered. With
    ``labels`` it returns ``(centers, labels)``: ``labels[i]`` is the
    position in ``centers`` of the center nearest i among the accepted
    centers covering it (least distance, ties to the lowest center; -1
    where none covers i); without ``labels`` no pairs are kept.
    """
    covered = np.zeros(n, bool)
    slot = np.full(n, -1, np.int64)   # a tentative's position in its block
    quota = None
    if stop is not None:
        quota = np.array(stop, np.int64).reshape(-1)
        counted = groups if np.ndim(stop) else np.zeros(n, np.int64)
        # a group with a stop of 0 is full before the walk starts
        full = _fill_quota(quota, np.zeros(0, np.int64))[1]
        if full is not None:
            covered |= full[counted]
    found, kept = [], []
    cursor, block = 0, max(1, int(_BLOCK_PAIRS / rate))
    while cursor < n:
        tent = cursor + np.flatnonzero(~covered[cursor:])[:block]
        if tent.size == 0:
            break
        nbr, own, dist, cand = pairs(tent)
        slot[tent] = np.arange(tent.size)
        later = slot[nbr]
        slot[tent] = -1
        edge = later > own
        acc = _accept(tent.size, own[edge], later[edge])
        if quota is not None:
            fits, full = _fill_quota(quota, counted[tent[acc]])
            if full is not None:
                acc[np.flatnonzero(acc)[~fits]] = False
                covered |= full[counted]
        keep = acc[own]
        covered[nbr[keep]] = True
        found.append(tent[acc])
        if labels:
            kept.append((nbr[keep], dist[keep], tent[own[keep]]))
        cursor = int(tent[-1]) + 1
        block = max(1, min(2 * found[-1].size,
                           _BLOCK_PAIRS * tent.size // cand))
    centers = np.concatenate(found) if found else np.zeros(0, np.int64)
    if not labels:
        return centers
    lab = np.full(n, -1, np.int64)
    if centers.size:   # each center's pair with itself is kept
        pt, dist, cen = map(np.concatenate, zip(*kept))
        # per point, the least distance and then the least center of it
        best = np.full(n, np.inf)
        np.minimum.at(best, pt, dist)
        win = dist == best[pt]
        nearest = np.full(n, n)
        np.minimum.at(nearest, pt[win], cen[win])
        rank = np.full(n + 1, -1, np.int64)
        rank[centers] = np.arange(centers.size)
        lab = rank[nearest]
    return centers, lab


def greedy_cover_pts(pts, delta, stop=None, groups=None, labels=False):
    """Centers in index order: each is the lowest-index point not within
    delta of an earlier center. With ``stop`` the walk ends once it has
    placed that many centers.

    "Within" is ``sum((x - c)**2) <= delta**2 * (1 + 1e-12)`` over the
    coordinates, summed in order. Each block of the walk (``_cover_walk``)
    finds a superset of its tentatives' neighbours with one lookup in a
    cell grid (``_grid_neighbours``) and keeps the pairs that pass the
    test above.

    With ``groups`` (one integer label per point) a center covers only
    points of its own group, so the centers of each group are the greedy
    cover of that group alone. ``delta`` may then be an array indexed by
    group label, one radius per group, and ``stop`` an array of per-group
    center counts: a group that reaches its count marks its remaining
    points covered (a scalar ``stop`` counts the centers of all groups).

    With ``labels`` the walk returns ``(centers, labels)``: ``labels[i]``
    is the position in ``centers`` of the nearest center of i's group
    (least squared distance, ties to the lowest center; -1 for points a
    stop left uncovered). Every center's covered pairs passed the exact
    test, and a point's nearest center is no farther than the one
    covering it, so that center is among the kept pairs.
    """
    # relative epsilon keeps points at exactly delta covered
    d2max = np.asarray(delta, float)
    with np.errstate(over="ignore"):   # a radius past 1e154 covers all
        d2max = d2max * d2max * (1.0 + 1e-12)
    # A pair that passes the test is at most sqrt(d2max) apart in each
    # coordinate, up to the rounding of its square: relative where the
    # square is normal, 2^-1074 absolute where it is subnormal.
    near, rate = _grid_neighbours(
        pts, np.sqrt(d2max.max() + 2.0 ** -1074) * (1.0 + 1e-9), groups)
    per_point = d2max[groups] if d2max.ndim else None

    def pairs(tent):
        nbr, sizes = near(tent)
        own = np.repeat(np.arange(tent.size), sizes)
        # np.take: several times faster than fancy indexing on small rows
        diff = np.take(pts, nbr, axis=0) - np.take(pts, tent[own], axis=0)
        d2 = np.einsum("ij,ij->i", diff, diff)
        close = d2 <= (d2max if per_point is None else per_point[tent][own])
        return nbr[close], own[close], d2[close], nbr.size

    return _cover_walk(pts.shape[0], pairs, rate, stop, groups, labels)


def greedy_cover_mat(D, delta, stop=None, groups=None, labels=False):
    """``greedy_cover_pts`` on a distance matrix: center c covers every j
    with ``D[c, j] <= delta * (1 + 1e-12)`` (and, with ``groups``, of c's
    group; ``delta`` and ``stop`` may then be per-group arrays, as there),
    and always itself. With ``labels`` it returns ``(centers, labels)``,
    each label the covering center of least ``D[c, i]``, ties to the
    lowest center, and -1 where no center of i's group covers i."""
    lim = np.asarray(delta, float) * (1.0 + 1e-12)

    def pairs(tent):
        rows = D[tent]
        hit = rows <= (lim[groups[tent], None] if lim.ndim else lim)
        if groups is not None:
            hit &= groups[tent, None] == groups
        # a diagonal entry above delta (not a metric) must not stall the walk
        hit[np.arange(tent.size), tent] = True
        own, nbr = np.nonzero(hit)
        return nbr, own, rows[own, nbr], hit.size

    # each tentative reads its whole row
    return _cover_walk(D.shape[0], pairs, max(D.shape[0], 1), stop, groups,
                       labels)


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
