"""Finite metric spaces: point clouds, explicit matrices, axiom validation."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


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


class FiniteMetricSpace:
    """A finite point set with a metric.

    Immutable after construction.  Euclidean spaces keep only coordinates
    and compute distances lazily; explicit spaces store the dense matrix.
    """

    def __init__(self, *, kind: str, points: Optional[np.ndarray] = None,
                 matrix: Optional[np.ndarray] = None,
                 dist_fn: Optional[Callable[[int, int], float]] = None,
                 n: Optional[int] = None):
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
            self._dist_fn = None
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
            self._dist_fn = None
        elif kind == "custom":
            if dist_fn is None or n is None or n <= 0:
                raise MetricError("custom space needs dist_fn and n > 0")
            self._dist_fn = dist_fn
            self._n = int(n)
            self.points = None
            self._matrix = None
        else:
            raise MetricError(f"unknown space kind {kind!r}")

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_points(cls, points) -> "FiniteMetricSpace":
        return cls(kind="euclidean", points=points)

    @classmethod
    def from_matrix(cls, matrix) -> "FiniteMetricSpace":
        return cls(kind="explicit-matrix", matrix=matrix)

    @classmethod
    def from_callable(cls, n: int, dist_fn) -> "FiniteMetricSpace":
        return cls(kind="custom", dist_fn=dist_fn, n=n)

    # -- basic queries -----------------------------------------------------

    def __len__(self) -> int:
        return self._n

    @property
    def n(self) -> int:
        return self._n

    @property
    def dim(self) -> Optional[int]:
        return None if self.points is None else self.points.shape[1]

    def dist(self, i: int, j: int) -> float:
        if self.kind == "euclidean":
            return float(np.linalg.norm(self.points[i] - self.points[j]))
        if self.kind == "explicit-matrix":
            return float(self._matrix[i, j])
        return float(self._dist_fn(i, j))

    def distance_block(self, rows, cols) -> np.ndarray:
        """Dense block of pairwise distances, computed on demand."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if self.kind == "euclidean":
            a = self.points[rows]
            b = self.points[cols]
            # per-coordinate differences: exact zeros for coincident points,
            # unlike the expanded-square formula
            d2 = np.zeros((rows.size, cols.size))
            for t in range(a.shape[1]):
                diff = a[:, t][:, None] - b[:, t][None, :]
                d2 += diff * diff
            return np.sqrt(d2)
        if self.kind == "explicit-matrix":
            return self._matrix[np.ix_(rows, cols)]
        out = np.empty((rows.size, cols.size))
        for a_, i in enumerate(rows):
            for b_, j in enumerate(cols):
                out[a_, b_] = self._dist_fn(int(i), int(j))
        return out

    def submatrix(self, idx) -> np.ndarray:
        return self.distance_block(idx, idx)

    def scaled(self, c: float) -> "FiniteMetricSpace":
        """New space with all distances multiplied by c > 0."""
        if c <= 0:
            raise MetricError("scale factor must be positive")
        if self.kind == "euclidean":
            return FiniteMetricSpace.from_points(self.points * c)
        if self.kind == "explicit-matrix":
            return FiniteMetricSpace.from_matrix(self._matrix * c)
        fn = self._dist_fn
        return FiniteMetricSpace.from_callable(self._n, lambda i, j: c * fn(i, j))


def diameter(space: FiniteMetricSpace, subset=None) -> float:
    """Max pairwise distance; 0 for a singleton.

    A Euclidean set is pruned first. With r_i the distance from point i to
    the centre of the bounding box, d(i, j) <= r_i + max r, so a point
    whose r_i + max r falls below a known pair distance L cannot end a
    longest pair. L is the largest entry in the row of the point farthest
    from the point of largest r. The survivors are scanned once per
    distinct row, as equal coordinates give equal entries. Every distance
    comes from ``distance_block``, as in a scan over the whole set, so the
    result is the same float. Other spaces scan every pair.
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
        # covers. A norm of inf keeps every point; an L of inf with finite
        # norms keeps none, and inf is then the answer already.
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


def validate_metric(space: FiniteMetricSpace, trials: int = 10000,
                    seed: int = 0) -> ValidationReport:
    """Check metric axioms.

    Symmetry/nonnegativity/identity over all pairs; triangle inequality
    exhaustively when n <= 200, else over `trials` seeded random triples.
    """
    if trials < 1:
        raise MetricError("trials must be >= 1")
    n = space.n
    D = space.submatrix(np.arange(n)) if n <= 2048 else None

    def d(i, j):
        return D[i, j] if D is not None else space.dist(i, j)

    pairs = 0
    if D is not None:
        pairs = n * n
        if np.any(np.isnan(D)):
            raise MetricError("distance matrix contains NaN entries")
        di = np.diag(D)
        if np.any(di != 0):
            i = int(np.argmax(di != 0))
            return ValidationReport(False, n, pairs, 0, False,
                                    ("identity", (i, i), float(di[i])))
        asym = np.abs(D - D.T)
        if np.any(asym > 1e-12):
            i, j = map(int, np.argwhere(asym > 1e-12)[0])
            return ValidationReport(False, n, pairs, 0, False,
                                    ("symmetry", (i, j), float(D[i, j] - D[j, i])))
        if np.any(D < 0):
            i, j = map(int, np.argwhere(D < 0)[0])
            return ValidationReport(False, n, pairs, 0, False,
                                    ("nonnegativity", (i, j), float(D[i, j])))
    else:
        rng = np.random.default_rng(seed)
        for _ in range(trials):
            i, j = rng.integers(0, n, size=2)
            pairs += 1
            dij, dji = space.dist(i, j), space.dist(j, i)
            if not np.isfinite(dij):
                raise MetricError("non-finite distance encountered")
            if abs(dij - dji) > 1e-12:
                return ValidationReport(False, n, pairs, 0, False,
                                        ("symmetry", (int(i), int(j)), dij - dji))
            if dij < 0:
                return ValidationReport(False, n, pairs, 0, False,
                                        ("nonnegativity", (int(i), int(j)), dij))

    tol = 1e-9
    exhaustive = n <= 200
    triples = 0
    if exhaustive and D is not None:
        # vectorized over k for each (i, j)
        for i in range(n):
            lhs = D[i][None, :]  # d(i, k)
            rhs = D[i][:, None] + D  # d(i, j) + d(j, k)
            bad = lhs > rhs + tol
            triples += n * n
            if bad.any():
                j, k = map(int, np.argwhere(bad)[0])
                return ValidationReport(
                    False, n, pairs, triples, True,
                    ("triangle", (i, j, k), float(D[i, k] - D[i, j] - D[j, k])))
    else:
        rng = np.random.default_rng(seed)
        for _ in range(trials):
            i, j, k = rng.integers(0, n, size=3)
            triples += 1
            if d(i, k) > d(i, j) + d(j, k) + tol:
                return ValidationReport(
                    False, n, pairs, triples, False,
                    ("triangle", (int(i), int(j), int(k)),
                     d(i, k) - d(i, j) - d(j, k)))
    return ValidationReport(True, n, pairs, triples, exhaustive)


# -- CSV I/O ----------------------------------------------------------------

def load_points_csv(path) -> FiniteMetricSpace:
    """Point cloud from CSV: one row per point, columns = coordinates."""
    rows = []
    width = None
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or all(not c.strip() for c in row):
                continue
            try:
                vals = [float(c) for c in row]
            except ValueError as exc:
                raise MetricError(f"{path}: line {lineno}: {exc}") from None
            if width is None:
                width = len(vals)
            elif len(vals) != width:
                raise MetricError(
                    f"{path}: line {lineno}: expected {width} columns, got {len(vals)}")
            rows.append(vals)
    if not rows:
        raise MetricError(f"{path}: no data rows")
    return FiniteMetricSpace.from_points(np.asarray(rows))


def load_matrix_csv(path) -> FiniteMetricSpace:
    """Explicit distance matrix from CSV (square)."""
    rows = []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or all(not c.strip() for c in row):
                continue
            try:
                rows.append([float(c) for c in row])
            except ValueError as exc:
                raise MetricError(f"{path}: line {lineno}: {exc}") from None
    D = np.asarray(rows)
    if D.ndim != 2 or D.shape[0] != D.shape[1]:
        raise MetricError(f"{path}: matrix is not square (shape {D.shape})")
    return FiniteMetricSpace.from_matrix(D)


def save_points_csv(path, points: np.ndarray) -> None:
    np.savetxt(path, np.atleast_2d(points), delimiter=",", fmt="%.17g")
