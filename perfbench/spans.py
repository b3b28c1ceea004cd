"""In-memory span tracer for the empwass layers.

``Tracer.install`` replaces each function listed in ``TRACED`` with a
wrapper that records one span per call: its name, its parent span, and its
start and end on ``time.perf_counter``. The wrapper is bound in every
``empwass`` namespace that resolves the original object, so ``from``-imports
such as ``mc_harness.wpp_mcf`` or ``multiscale.diameter`` are traced too;
methods are replaced on their class. Spans stay in memory until ``dump``
writes them out. Tracing is meant for a single process (``--workers 1``).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np


def _lp_solve(args, result, counts):
    # transport_simplex(a, b, C, tol, max_iter): one LP of size m*n
    counts["ot_exact.branch_lp"] += 1
    counts["ot_exact.lp_cells"] += int(np.asarray(args[2]).size)


def _assignment(args, result, counts):
    counts["ot_exact.branch_assignment"] += 1


def _tree_cells(args, result, counts):
    counts["multiscale.cells"] += int(sum(result.cell_counts))


def _block_entries(args, result, counts):
    counts["metric_core.distance_block.entries"] += int(result.size)


def _replicate(args, result, counts):
    counts["mc_harness.replicates"] += 1


# (module under empwass, attribute or Class.method, span name, count hook)
TRACED = [
    ("cli", "main", "cli.main", None),
    ("mc_harness", "run_rate_experiment", "mc_harness.experiment", None),
    ("mc_harness", "run_tail_experiment", "mc_harness.experiment", None),
    ("mc_harness", "_one_replicate", "mc_harness.replicate", _replicate),
    ("multiscale", "build_partition_tree", "multiscale.build_partition_tree",
     _tree_cells),
    ("multiscale", "PartitionTree.verify", "multiscale.verify", None),
    ("multiscale", "greedy_cover", "multiscale.greedy_cover", None),
    ("multiscale", "dyadic_wpp_bound", "multiscale.dyadic_wpp_bound", None),
    ("multiscale", "fit_dimension", "multiscale.fit_dimension", None),
    ("multiscale", "auto_delta_grid", "multiscale.auto_delta_grid", None),
    ("_kernels", "greedy_cover_pts", "kernels.greedy_cover_pts", None),
    ("_kernels", "greedy_packing_pts", "kernels.greedy_packing_pts", None),
    ("_kernels", "assign_nearest_pts", "kernels.assign_nearest_pts", None),
    ("_kernels", "transport_simplex", "kernels.transport_simplex", _lp_solve),
    ("metric_core", "diameter", "metric_core.diameter", None),
    ("metric_core", "FiniteMetricSpace.distance_block",
     "metric_core.distance_block", _block_entries),
    ("metric_core", "load_points_csv", "metric_core.load_points_csv", None),
    ("ot_exact", "wpp_mcf", "ot_exact.wpp_mcf", None),
    ("ot_exact", "wpp_1d_vs_quantile", "ot_exact.wpp_1d_vs_quantile", None),
    ("ot_exact", "linear_sum_assignment", "ot_exact.linear_sum_assignment",
     _assignment),
    ("measures", "SyntheticSampler.draw", "measures.draw", None),
    ("measures", "SyntheticSampler.quantile", "measures.quantile", None),
    ("measures", "SyntheticSampler.quantile_antideriv",
     "measures.quantile_antideriv", None),
    ("measures", "SyntheticSampler.cdf", "measures.cdf", None),
]

COUNTERS = ("multiscale.cells", "metric_core.distance_block.entries",
            "ot_exact.branch_lp", "ot_exact.branch_assignment",
            "ot_exact.lp_cells", "mc_harness.replicates")


class Tracer:
    """Span store: parallel lists indexed by span id."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of: list[int] = []
        self.parent: list[int] = []
        self.t0: list[float] = []
        self.t1: list[float] = []
        self.stack: list[int] = []
        self.counts = dict.fromkeys(COUNTERS, 0)

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, fn, name: str, hook=None):
        nid = self._name_id(name)
        clock = time.perf_counter
        stack, name_of, parent = self.stack, self.name_of, self.parent
        t0, t1, counts = self.t0, self.t1, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            t1.append(0.0)
            stack.append(sid)
            t0.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                t1[sid] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result, counts)
            return result

        return traced

    def install(self) -> None:
        """Wrap every entry of TRACED wherever empwass binds it."""
        mods = [m for k, m in sorted(sys.modules.items())
                if k == "empwass" or k.startswith("empwass.")]
        for modname, attr, name, hook in TRACED:
            mod = importlib.import_module(f"empwass.{modname}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self.wrap(cls.__dict__[meth], name, hook))
                continue
            orig = getattr(mod, attr)
            wrapper = self.wrap(orig, name, hook)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapper)

    def arrays(self):
        return (np.asarray(self.name_of, np.int64),
                np.asarray(self.parent, np.int64),
                np.asarray(self.t0), np.asarray(self.t1))

    def summary(self) -> dict:
        """Per span name: calls, total seconds, and self seconds (total
        minus the time covered by direct child spans)."""
        nid, par, t0, t1 = self.arrays()
        dur = t1 - t0
        child = np.zeros(dur.size)
        has_parent = par >= 0
        np.add.at(child, par[has_parent], dur[has_parent])
        k = len(self.names)
        out = {}
        calls = np.bincount(nid, minlength=k)
        tot = np.bincount(nid, weights=dur, minlength=k)
        own = np.bincount(nid, weights=dur - child, minlength=k)
        for i, name in enumerate(self.names):
            out[name] = {"calls": int(calls[i]), "s": float(tot[i]),
                         "self_s": float(own[i])}
        return out

    def dump(self, path: str) -> None:
        nid, par, t0, t1 = self.arrays()
        with open(path, "wb") as fh:
            np.savez(fh, names=np.asarray(self.names), name_id=nid,
                     parent=par, t0=t0, t1=t1)
