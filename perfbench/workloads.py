"""The four benchmark workloads: CLI arguments, work counts, output checks.

Each workload is one ``empwass`` subcommand. ``size`` is ``"full"`` for
the benchmark proper and ``"tiny"`` for the self-test. The reasons for each
choice are in README.md next to this file.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np


def dyadic_grid(text: str) -> list:
    """The n-grid the CLI expands from 'lo:hi' (doubling)."""
    lo, hi = (int(t) for t in text.split(":"))
    out = []
    while lo <= hi:
        out.append(lo)
        lo *= 2
    return out


@dataclass(frozen=True)
class Experiment:
    """A ``rate`` or ``tail`` run over an n-grid with fixed replicates."""

    name: str
    command: str            # rate | tail
    sampler: str
    estimator: str
    ngrid: dict             # size -> 'lo:hi'
    reps: int
    extra: tuple = ()

    @property
    def output(self) -> str:
        return f"{self.command}.json"

    def prepare(self, seed: int, size: str, workdir: str) -> None:
        pass

    def argv(self, seed: int, size: str, workdir: str, workers: int,
             out: str) -> list:
        return [self.command, "--sampler", self.sampler, "--p", "1",
                "--estimator", self.estimator, "--ngrid", self.ngrid[size],
                "--reps", str(self.reps), *self.extra, "--seed", str(seed),
                "--workers", str(workers), "--out", out]

    def items(self, size: str) -> int:
        """Replicates per invocation."""
        return len(dyadic_grid(self.ngrid[size])) * self.reps

    def check(self, payload: dict, seed: int, size: str) -> str | None:
        rows = payload.get("per_n") or []
        grid = dyadic_grid(self.ngrid[size])
        if [r.get("n") for r in rows] != grid:
            return f"rows are for n={[r.get('n') for r in rows]}, want {grid}"
        if payload["spec"]["seed"] != seed:
            return "output is for another seed"
        for r in rows:
            if r["replicates"] != self.reps:
                return f"n={r['n']}: {r['replicates']} replicates"
            if not (math.isfinite(r["mean"]) and r["mean"] > 0.0):
                return f"n={r['n']}: mean {r['mean']!r}"
            if self.command == "tail" and not (
                    r["tail_x1_lo"] <= r["tail_x1"] <= r["tail_x1_hi"]):
                return f"n={r['n']}: tail estimate outside its interval"
        if self.command == "rate" and (
                payload["degenerate"] or not math.isfinite(payload["slope"])):
            return "rate fit is degenerate"
        return None


@dataclass(frozen=True)
class Dimension:
    """``dim`` on a seeded uniform sample of the unit square."""

    name: str
    points: dict            # size -> number of points
    scales: int

    output = "dim.json"

    def _csv(self, seed: int, size: str, workdir: str) -> str:
        return os.path.join(workdir, f"square-{self.points[size]}-{seed}.csv")

    def prepare(self, seed: int, size: str, workdir: str) -> None:
        rng = np.random.default_rng(seed)
        np.savetxt(self._csv(seed, size, workdir),
                   rng.random((self.points[size], 2)), delimiter=",",
                   fmt="%.17g")

    def argv(self, seed: int, size: str, workdir: str, workers: int,
             out: str) -> list:
        return ["dim", "--points", self._csv(seed, size, workdir),
                "--scales", str(self.scales), "--out", out]

    def items(self, size: str) -> int:
        """Points times scales per invocation."""
        return self.points[size] * self.scales

    def check(self, payload: dict, seed: int, size: str) -> str | None:
        counts = payload.get("counts") or []
        if len(counts) != self.scales:
            return f"{len(counts)} covering counts, want {self.scales}"
        if any(b < a for a, b in zip(counts, counts[1:])):
            return f"covering counts {counts} fall as the scale shrinks"
        if not 1 <= counts[-1] <= self.points[size]:
            return f"covering count {counts[-1]} out of range"
        if not (payload["diam"] > 0.0 and math.isfinite(payload["alpha"])):
            return "degenerate dimension fit"
        return None


WORKLOADS = {w.name: w for w in (
    Experiment("rate-dyadic-2d", "rate", "uniform-cube:2", "dyadic",
               {"full": "32:512", "tiny": "32:64"}, 30, ("--kstar", "0")),
    Experiment("tail-pareto-1d", "tail", "pareto-radial:3:1", "1d-quantile",
               {"full": "64:256", "tiny": "64:64"}, 1000, ("--xgrid", "1.0")),
    Experiment("rate-lp-3d", "rate", "uniform-cube:3", "mcf-two-sample",
               {"full": "16:32", "tiny": "8:16"}, 64, ("--mref", "24")),
    Dimension("dim-square-10k", {"full": 10_000, "tiny": 1_000}, 5),
)}
