"""Finite metric spaces: point clouds, explicit matrices, axiom validation."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels


class MetricError(ValueError):
    """Raised for malformed metric inputs (NaN matrices, empty spaces, ...)."""


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    n_points: int
    pairs_checked: int
    triples_checked: int
    exhaustive: bool
    violation: Optional[tuple] = None  # (kind, indices, detail)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "n_points": self.n_points,
            "pairs_checked": self.pairs_checked,
            "triples_checked": self.triples_checked,
            "exhaustive": self.exhaustive,
            "violation": None
            if self.violation is None
            else {
                "kind": self.violation[0],
                "indices": [int(k) for k in self.violation[1]],
                "detail": self.violation[2],
            },
        }


def _norms(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean norms of a - b over the last axis, a and b broadcast: the
    squared coordinate differences summed in coordinate order, so exact
    zeros for coincident points, unlike the expanded-square formula."""
    diff = a[..., 0] - b[..., 0]
    d2 = diff * diff
    for t in range(1, a.shape[-1]):
        diff = a[..., t] - b[..., t]
        d2 += diff * diff
    return np.sqrt(d2)


class FiniteMetricSpace:
    """A finite point set with a metric.

    Immutable after construction.  Euclidean spaces keep only coordinates
    and compute distances lazily; explicit spaces store the dense matrix.
    """

    def __init__(self, *, kind: str, points: Optional[np.ndarray] = None,
                 matrix: Optional[np.ndarray] = None):
        self.kind = kind
        if kind == "euclidean":
            pts = np.asarray(points, dtype=float)
            if pts.ndim == 1:
                pts = pts[:, None]
            if pts.size == 0:
                raise MetricError("empty point cloud")
            if not np.all(np.isfinite(pts)):
                raise MetricError("point coordinates must be finite")
            self.points = pts
            self.points.setflags(write=False)
            self._n = pts.shape[0]
            self._matrix = None
        elif kind == "explicit-matrix":
            D = np.asarray(matrix, dtype=float)
            if D.ndim != 2 or D.shape[0] != D.shape[1] or D.shape[0] == 0:
                raise MetricError("explicit matrix must be square and nonempty")
            if np.any(np.isnan(D)):
                raise MetricError("distance matrix contains NaN entries")
            self._matrix = D
            self._matrix.setflags(write=False)
            self._n = D.shape[0]
            self.points = None
        else:
            raise MetricError(f"unknown space kind {kind!r}")

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_points(cls, points) -> "FiniteMetricSpace":
        space = cls(kind="euclidean", points=points)
        pts = space.points
        # the bounding-box diagonal caps every distance; __init__ skips this
        with np.errstate(over="ignore"):
            if not np.isfinite(_norms(pts.max(axis=0), pts.min(axis=0))):
                raise MetricError("point cloud too wide: its distances "
                                  "overflow a float")
        return space

    @classmethod
    def from_matrix(cls, matrix) -> "FiniteMetricSpace":
        return cls(kind="explicit-matrix", matrix=matrix)

    # -- basic queries -----------------------------------------------------

    @property
    def n(self) -> int:
        return self._n

    @property
    def dim(self) -> Optional[int]:
        return None if self.points is None else self.points.shape[1]

    def distances(self, rows, cols) -> np.ndarray:
        """d(rows[k], cols[k]) for each k, as ``distance_block`` gives it."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if self.kind == "euclidean":
            return _norms(self.points[rows], self.points[cols])
        return self._matrix[rows, cols]

    def distance_block(self, rows, cols) -> np.ndarray:
        """Dense block of pairwise distances, computed on demand."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if self.kind == "euclidean":
            return _norms(self.points[rows][:, None, :],
                          self.points[cols][None, :, :])
        return self._matrix[np.ix_(rows, cols)]

    def submatrix(self, idx) -> np.ndarray:
        return self.distance_block(idx, idx)

    def cover(self, delta, stop=None, groups=None, labels=False):
        """Greedy delta-cover centers: the cover kernel on the coordinates
        (``_kernels.greedy_cover_pts``) or on the matrix
        (``greedy_cover_mat``), with its arguments and results."""
        if self.points is not None:
            return _kernels.greedy_cover_pts(self.points, delta, stop,
                                             groups, labels)
        return _kernels.greedy_cover_mat(self._matrix, delta, stop, groups,
                                         labels)


def diameter(space: FiniteMetricSpace, subset=None) -> float:
    """Max pairwise distance; 0 for a singleton.

    A Euclidean set is pruned first. With r_i the distance from point i to
    the centre of the bounding box, d(i, j) <= r_i + max r, so a point
    whose r_i + max r falls below a known pair distance L cannot end a
    longest pair. L is the largest entry in the row of the point farthest
    from the point of largest r. The survivors are scanned once per
    distinct row, as equal coordinates give equal entries. Every distance
    comes from ``distance_block``, as in a scan over the whole set, so the
    result is the same float. An explicit matrix is scanned whole.
    """
    idx = np.arange(space.n) if subset is None else np.asarray(subset, np.int64)
    if idx.size == 0:
        raise MetricError("diameter of an empty set")
    if idx.size == 1:
        return 0.0
    best = 0.0
    if space.kind == "euclidean":
        pts = space.points[idx]
        diff = pts - (0.5 * pts.min(axis=0) + 0.5 * pts.max(axis=0))
        r = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        far = idx[np.argmax(space.distance_block(idx[[np.argmax(r)]], idx))]
        best = float(space.distance_block([far], idx).max())
        # An entry or a norm is within a factor (d + 3)·2^-53 of its exact
        # value, which the relative 1e-9 covers for d < 10^6; where squares
        # are subnormal it is also off by up to sqrt(d)·2^-537, which 1e-150
        # covers.
        keep = np.flatnonzero(r + r.max() >= best * (1.0 - 1e-9) - 1e-150)
        keep = keep[np.lexsort(pts[keep].T)]
        rows = pts[keep]
        # sorted, so a row unequal to the one before starts a distinct row
        new = np.ones(keep.size, bool)
        new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
        idx = idx[keep[new]]
    # chunked so that euclidean blocks stay modest
    step = 2048
    for s in range(0, idx.size, step):
        block = space.distance_block(idx[s : s + step], idx)
        m = float(block.max())
        if m > best:
            best = m
    return best


_DRAW_BLOCK = 1 << 16   # index tuples per draw in the sampled checks


def _draws(seed: int, n: int, trials: int, width: int):
    """(offset, index columns) of `trials` seeded random index tuples. A
    draw of (m, width) integers is the stream of m draws of width."""
    rng = np.random.default_rng(seed)
    for start in range(0, trials, _DRAW_BLOCK):
        size = (min(_DRAW_BLOCK, trials - start), width)
        yield start, rng.integers(0, n, size=size).T


# a distance that overflows is inf, and the checks refuse it
@np.errstate(over="ignore", invalid="ignore")
def validate_metric(space: FiniteMetricSpace, trials: int = 10000,
                    seed: int = 0) -> ValidationReport:
    """Check metric axioms.

    Identity on every point. Symmetry/nonnegativity over all pairs when
    n <= 2048, else over `trials` seeded random pairs; triangle inequality
    exhaustively when n <= 200, else over `trials` seeded random triples.
    A sampled check reports the first violating draw. A distance that is
    not finite, in the matrix or in a draw, is refused with a MetricError.
    """
    if trials < 1:
        raise MetricError("trials must be >= 1")
    n = space.n
    every = np.arange(n)
    D = space.submatrix(every) if n <= 2048 else None
    if D is not None:
        di, pairs = np.diag(D), n * n
    else:
        di, pairs = space.distances(every, every), n
    if not np.all(np.isfinite(di if D is None else D)):
        raise MetricError("non-finite distance encountered")
    if np.any(di != 0):
        i = int(np.argmax(di != 0))
        return ValidationReport(False, n, pairs, 0, False,
                                ("identity", (i, i), float(di[i])))
    if D is not None:
        asym = D - D.T
        for kind, bad, detail in (("symmetry", np.abs(asym) > 1e-12, asym),
                                  ("nonnegativity", D < 0, D)):
            if np.any(bad):
                i, j = map(int, np.argwhere(bad)[0])
                return ValidationReport(False, n, pairs, 0, False,
                                        (kind, (i, j), float(detail[i, j])))
    else:
        for start, (i, j) in _draws(seed, n, trials, 2):
            dij, dji = space.distances(i, j), space.distances(j, i)
            asym = np.abs(dij - dji) > 1e-12
            bad = ~np.isfinite(dij) | asym | (dij < 0)
            if bad.any():
                t = int(np.argmax(bad))
                if not np.isfinite(dij[t]):
                    raise MetricError("non-finite distance encountered")
                kind, detail = (("symmetry", dij[t] - dji[t]) if asym[t]
                                else ("nonnegativity", dij[t]))
                return ValidationReport(
                    False, n, pairs + start + t + 1, 0, False,
                    (kind, (int(i[t]), int(j[t])), float(detail)))
        pairs += trials

    if n <= 200:
        # vectorized over k for each (i, j)
        for i in range(n):
            bad = D[i][None, :] > D[i][:, None] + D + 1e-9
            if bad.any():
                j, k = map(int, np.argwhere(bad)[0])
                return ValidationReport(
                    False, n, pairs, (i + 1) * n * n, True,
                    ("triangle", (i, j, k), float(D[i, k] - D[i, j] - D[j, k])))
        return ValidationReport(True, n, pairs, n ** 3, True)
    for start, (i, j, k) in _draws(seed, n, trials, 3):
        dik, dij, djk = (space.distances(a, b)
                         for a, b in ((i, k), (i, j), (j, k)))
        finite = np.isfinite(dik) & np.isfinite(dij) & np.isfinite(djk)
        bad = ~finite | (dik > dij + djk + 1e-9)
        if bad.any():
            t = int(np.argmax(bad))
            if not finite[t]:
                raise MetricError("non-finite distance encountered")
            return ValidationReport(
                False, n, pairs, start + t + 1, False,
                ("triangle", (int(i[t]), int(j[t]), int(k[t])),
                 float(dik[t] - dij[t] - djk[t])))
    return ValidationReport(True, n, pairs, trials, False)


# -- CSV I/O ----------------------------------------------------------------

def _read_rows(path) -> np.ndarray:
    """The float rows of a CSV file, blank lines skipped; every row must be
    as wide as the first. Errors name the file and the line."""
    rows = []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or all(not c.strip() for c in row):
                continue
            try:
                vals = [float(c) for c in row]
            except ValueError as exc:
                raise MetricError(f"{path}: line {lineno}: {exc}") from None
            if rows and len(vals) != len(rows[0]):
                raise MetricError(f"{path}: line {lineno}: expected "
                                  f"{len(rows[0])} columns, got {len(vals)}")
            rows.append(vals)
    if not rows:
        raise MetricError(f"{path}: no data rows")
    return np.asarray(rows)


def load_points_csv(path) -> FiniteMetricSpace:
    """Point cloud from CSV: one row per point, columns = coordinates."""
    return FiniteMetricSpace.from_points(_read_rows(path))


def load_matrix_csv(path) -> FiniteMetricSpace:
    """Explicit distance matrix from CSV (square)."""
    D = _read_rows(path)
    if D.shape[0] != D.shape[1]:
        raise MetricError(f"{path}: matrix is not square (shape {D.shape})")
    return FiniteMetricSpace.from_matrix(D)
