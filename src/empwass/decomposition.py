"""Dyadic-ring decomposition around a reference point for measures with
unbounded support, and the resulting three-term transport bound."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .measures import DiscreteMeasure, MeasureError, mix, restrict
from .ot_exact import wpp_mcf, wpp_to_point


@dataclass(frozen=True)
class Ring:
    i: int                 # ring index; outer radius 2^i
    mass_a: float          # first measure's mass on the ring
    mass_b: float          # second measure's mass on the ring
    lam_i: float           # min(mass_a, mass_b)
    cond_a: Optional[DiscreteMeasure]
    cond_b: Optional[DiscreteMeasure]


@dataclass(frozen=True)
class RingDecomposition:
    x0: int
    rings: Tuple[Ring, ...]
    lam: float
    excess_a: Optional[DiscreteMeasure]   # normalized excess of the first
    excess_b: Optional[DiscreteMeasure]   # normalized excess of the second
    mu_a: DiscreteMeasure
    mu_b: DiscreteMeasure

    @property
    def excess_defined(self) -> bool:
        return self.excess_a is not None

    def to_dict(self) -> dict:
        return {
            "x0": self.x0,
            "lambda": self.lam,
            "rings": [{"i": r.i, "mass_a": r.mass_a, "mass_b": r.mass_b,
                       "lambda_i": r.lam_i} for r in self.rings],
            "excess_defined": self.excess_defined,
        }


def ring_index(dist):
    """Ring id: 1 for the ball of radius 2, else i with 2^{i-1} < d <= 2^i;
    an int for a scalar distance, an int64 array for an array."""
    d = np.asarray(dist, dtype=float)
    rid = np.where(d <= 2.0, 1,
                   np.ceil(np.log2(np.maximum(d, 2.0)) - 1e-12)).astype(np.int64)
    return int(rid) if rid.ndim == 0 else rid


def ring_decompose(mu_a: DiscreteMeasure, mu_b: DiscreteMeasure,
                   x0: int) -> RingDecomposition:
    """Split two measures over dyadic annuli around x0.

    Returns the per-ring shared masses lam_i, the total excess lam, the
    conditional measures on each ring, and the normalized excess measures
    (flagged undefined when lam = 0).
    """
    if mu_a.space is not mu_b.space:
        raise MeasureError("measures live on different spaces")
    space = mu_a.space
    if not (0 <= x0 < space.n):
        raise MeasureError("x0 out of range")

    atoms = np.union1d(mu_a.idx, mu_b.idx)
    d = space.distance_block(np.asarray([x0]), atoms)[0]
    if not np.all(np.isfinite(d)):
        raise MeasureError("distances to x0 overflow")
    rid = ring_index(d)

    rings: List[Ring] = []
    pos_parts_a = []   # (excess weight, conditional) for the first measure
    pos_parts_b = []
    for i in map(int, np.unique(rid)):
        members = atoms[rid == i]
        cond_a, a = restrict(mu_a, members)
        cond_b, b = restrict(mu_b, members)
        if a == 0.0 and b == 0.0:
            continue
        rings.append(Ring(i, a, b, min(a, b), cond_a, cond_b))
        if a > b:
            pos_parts_a.append((a - b, cond_a))
        elif b > a:
            pos_parts_b.append((b - a, cond_b))

    lam_from_a = sum(w for w, _ in pos_parts_a)
    lam_from_b = sum(w for w, _ in pos_parts_b)
    if abs(lam_from_a - lam_from_b) > 1e-12:
        raise MeasureError("excess masses disagree beyond tolerance")
    lam = 0.5 * (lam_from_a + lam_from_b)
    if lam <= 1e-12:   # rounding residue, not genuine excess mass
        lam = 0.0

    if lam > 0.0:
        excess_a = mix([(w / lam, m) for w, m in pos_parts_a])
        excess_b = mix([(w / lam, m) for w, m in pos_parts_b])
    else:
        excess_a = excess_b = None

    return RingDecomposition(int(x0), tuple(rings), float(lam),
                             excess_a, excess_b, mu_a, mu_b)


def verify_reconstruction(dec: RingDecomposition) -> None:
    """Check mu = sum_i lam_i * (conditional on ring i) + lam * excess,
    atomwise, for both measures, to an absolute 1e-12 per atom."""
    tol = 1e-12
    for which in ("a", "b"):
        orig = dec.mu_a if which == "a" else dec.mu_b
        parts = [(r.lam_i, r.cond_a if which == "a" else r.cond_b)
                 for r in dec.rings]
        parts = [(lam, m) for lam, m in parts if lam > 0.0 and m is not None]
        if dec.lam > 0.0:
            parts.append((dec.lam,
                          dec.excess_a if which == "a" else dec.excess_b))
        # the empty leading pieces keep concatenate defined with no parts
        idx = np.concatenate([orig.idx[:0]] + [m.idx for _, m in parts])
        atoms = np.union1d(orig.idx, idx)
        # add.at sums each atom's terms in ring order, the excess last
        acc = np.zeros(atoms.size)
        np.add.at(acc, np.searchsorted(atoms, idx), np.concatenate(
            [orig.weights[:0]] + [lam * m.weights for lam, m in parts]))
        got = acc[np.searchsorted(atoms, orig.idx)]
        bad = np.abs(got - orig.weights) > tol
        if bad.any():
            k = int(np.argmax(bad))
            raise MeasureError(
                f"reconstruction fails at atom {int(orig.idx[k])}: "
                f"{got[k]} vs {orig.weights[k]}")
        if np.any(np.abs(acc[~np.isin(atoms, orig.idx)]) > tol):
            raise MeasureError("reconstruction has spurious atoms")


@dataclass(frozen=True)
class MixtureBound:
    total: float
    main: float
    remainder_a: float
    remainder_b: float
    per_ring: Tuple[Tuple[int, float], ...]

    def to_dict(self) -> dict:
        return asdict(self)


def mixture_bound(dec: RingDecomposition, p: float) -> MixtureBound:
    """Three-term upper bound on W_p^p between the decomposed measures:
    per-ring transport at shared mass, plus the excess measures moved
    through the reference point."""
    main = 0.0
    per_ring = []
    for r in dec.rings:
        if r.lam_i > 0.0:
            v, _ = wpp_mcf(r.cond_a, r.cond_b, p)
            main += r.lam_i * v.value
            per_ring.append((r.i, r.lam_i * v.value))
        else:
            per_ring.append((r.i, 0.0))
    if dec.lam > 0.0:
        factor = 2.0 ** (p - 1.0) * dec.lam
        rem_a = factor * wpp_to_point(dec.excess_a, dec.x0, p)
        rem_b = factor * wpp_to_point(dec.excess_b, dec.x0, p)
    else:
        rem_a = rem_b = 0.0
    return MixtureBound(main + rem_a + rem_b, main, rem_a, rem_b,
                        tuple(per_ring))


def verify_mixture_convexity(mus: Sequence[DiscreteMeasure],
                             nus: Sequence[DiscreteMeasure],
                             lams: Sequence[float], p: float) -> dict:
    """Transport cost of a mixture never exceeds the mixture of transport
    costs; returns both sides and the gap (must be >= -1e-9)."""
    lams = np.asarray(lams, dtype=float)
    if abs(lams.sum() - 1.0) > 1e-10:
        raise MeasureError("mixture weights must sum to 1")
    lhs_mu = mix(list(zip(lams, mus)))
    lhs_nu = mix(list(zip(lams, nus)))
    lhs, _ = wpp_mcf(lhs_mu, lhs_nu, p)
    rhs = 0.0
    for lam, m, n in zip(lams, mus, nus):
        if lam == 0.0:
            continue
        v, _ = wpp_mcf(m, n, p)
        rhs += lam * v.value
    return {"lhs": lhs.value, "rhs": rhs, "gap": rhs - lhs.value, "p": p}
