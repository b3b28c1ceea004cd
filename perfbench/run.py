"""empwass benchmark: run a workload through the ``empwass`` CLI as fresh
processes, time them from outside, check their outputs and print metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. ``--workload all`` runs every workload in
turn. With ``--trace 0`` the CLI runs with ``--workers`` equal to the core
count, again and again for ``--seconds``, and the end-to-end metrics are
reported as medians over those runs. With ``--trace 1`` the same workload
runs once traced and once untraced, after an untimed warm-up run, each in
one process at ``--workers 1``, and the per-layer metrics are reported.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
show every metric with its unit and sample count and the facts of the
machine. Full records go to ``.perfbench/``.

    python3 perfbench/run.py --record [--workload NAME]

re-records the reference outputs in ``perfbench/reference/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

from spans import COUNTERS
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
ENTRY = os.path.join(HERE, "entry.py")
MICRO = os.path.join(HERE, "micro.py")
REFERENCE_DIR = os.path.join(HERE, "reference")
REFERENCE_SEEDS = range(10)

RUN_LIMIT_S = 170.0       # hard stop for one benchmark run
NPROC = len(os.sched_getaffinity(0))
WORKERS = min(NPROC, 8)
BLAS_PINS = dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                           "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                           "NUMEXPR_NUM_THREADS"), "1")

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("items_per_s", "1/s"),
              ("cpu_s", "s"), ("peak_rss_mb", "MB"))

# traced span -> statistics reported; self_s where it has traced children
SPAN_STATS = (
    ("multiscale.build_partition_tree", ("calls", "s", "self_s")),
    ("multiscale.verify", ("calls", "s", "self_s")),
    ("multiscale.greedy_cover", ("calls", "s", "self_s")),
    ("multiscale.dyadic_wpp_bound", ("calls", "s")),
    ("multiscale.fit_dimension", ("calls", "s", "self_s")),
    ("multiscale.auto_delta_grid", ("calls", "s", "self_s")),
    ("kernels.greedy_cover_pts", ("calls", "s")),
    ("kernels.greedy_packing_pts", ("calls", "s")),
    ("kernels.assign_nearest_pts", ("calls", "s")),
    ("kernels.transport_simplex", ("calls", "s")),
    ("metric_core.diameter", ("calls", "s", "self_s")),
    ("metric_core.distance_block", ("calls", "s")),
    ("metric_core.load_points_csv", ("calls", "s")),
    ("ot_exact.wpp_mcf", ("calls", "s", "self_s")),
    ("ot_exact.wpp_1d_vs_quantile", ("calls", "s", "self_s")),
    ("measures.draw", ("calls", "s")),
    ("measures.quantile", ("calls", "s")),
    ("measures.quantile_antideriv", ("calls",)),
    ("measures.cdf", ("calls",)),
    ("mc_harness.experiment", ("s", "self_s")),
)
MICRO_KERNELS = ("wpp_staircase", "greedy_cover_pts", "greedy_packing_pts",
                 "assign_nearest_pts", "greedy_cover_mat",
                 "transport_simplex")


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit."""
    units = {}
    for span, stats in SPAN_STATS:
        for stat in stats:
            units[f"{span}.{stat}"] = "count" if stat == "calls" else "s"
    units.update(dict.fromkeys(COUNTERS, "count"))
    units["cli.output_bytes"] = "bytes"
    units.update({f"kernels.{k}.micro_ms": "ms" for k in MICRO_KERNELS})
    units.update({"trace.untraced_s": "s", "trace.traced_s": "s",
                  "trace.overhead_s": "s", "trace.spans": "count"})
    return units


class BenchError(Exception):
    """The benchmark cannot run here (no library, broken start-up)."""


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_PINS)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def spawn(cmd: list, log: str, deadline: float):
    """Run cmd to completion; return (exit code, spawn time, exit time,
    rusage of its whole process tree)."""
    with open(log, "wb") as fh:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=fh,
                                stderr=subprocess.STDOUT,
                                start_new_session=True)
    exited = os.pidfd_open(proc.pid)
    ready = []
    try:
        ready, _, _ = select.select([exited], [], [],
                                    max(0.0, deadline - time.monotonic()))
    finally:   # on timeout, interrupt or SIGTERM the child's group goes too
        t1 = time.monotonic()
        if not ready:
            os.killpg(proc.pid, signal.SIGKILL)
        _, status, usage = os.wait4(proc.pid, 0)
        os.close(exited)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, t0, t1, usage


def invoke(cli_args: list, tag: str, rundir: str, deadline: float,
           spans: str | None = None) -> dict:
    """One CLI process through entry.py; timings measured from spawn."""
    stamp_path = os.path.join(rundir, tag + ".stamp.json")
    cmd = [sys.executable, ENTRY, stamp_path]
    if spans:
        cmd += ["--trace", spans]
    rc, t0, t1, ru = spawn(cmd + ["--"] + cli_args,
                           os.path.join(rundir, tag + ".log"), deadline)
    sample = {"tag": tag, "rc": rc, "wall_s": t1 - t0,
              "cpu_s": ru.ru_utime + ru.ru_stime,
              "peak_rss_mb": ru.ru_maxrss / 1024.0, "error": None}
    try:
        with open(stamp_path) as fh:
            stamp = json.load(fh)
    except (OSError, ValueError):
        sample["error"] = f"exit code {rc} and no stamp (see {tag}.log)"
        return sample
    sample.update(setup_s=stamp["main"] - t0, main_s=stamp["end"] - t0,
                  facts=stamp["facts"])
    if rc != 0:
        sample["error"] = f"exit code {rc} (see {tag}.log)"
    return sample


def start_up(rundir: str, deadline: float) -> dict:
    """First, untimed start: fills caches and checks that the library
    imported is the one in this checkout. Returns the library facts."""
    s = invoke(["--version"], "warmup", rundir, deadline)
    if s["error"]:
        raise BenchError(f"empwass CLI does not start: {s['error']}")
    where = os.path.realpath(s["facts"]["empwass"])
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise BenchError(f"empwass imported from {where}, not from {SRC}")
    return s["facts"]


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def reference_path(name: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{name}.json")


def argv_template(w) -> list:
    return w.argv(0, "full", "{work}", 0, "{out}")


def differs(got, want, where="$") -> str | None:
    """First difference: integers and strings exact, floats to rel 1e-9."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return f"{where}: keys differ"
        for k in sorted(want):
            err = differs(got[k], want[k], f"{where}.{k}")
            if err:
                return err
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{where}: length differs"
        for i, (g, v) in enumerate(zip(got, want)):
            err = differs(g, v, f"{where}[{i}]")
            if err:
                return err
        return None
    if isinstance(want, float) and isinstance(got, (int, float)) \
            and not isinstance(got, bool):
        if math.isclose(got, want, rel_tol=1e-9) or (
                math.isnan(got) and math.isnan(want)):
            return None
        return f"{where}: {got!r} != {want!r}"
    if type(got) is not type(want) or got != want:
        return f"{where}: {got!r} != {want!r}"
    return None


class OutputCheck:
    """Checks the main output file of each invocation of one seed: the
    workload's row checks, byte identity with the first invocation, and the
    recorded reference where one exists for this seed."""

    def __init__(self, w, seed: int, size: str):
        self.w, self.seed, self.size = w, seed, size
        self.first = None
        self.reference = None
        if size == "full":
            try:
                with open(reference_path(w.name)) as fh:
                    ref = json.load(fh)
            except OSError as exc:
                raise BenchError(f"no reference outputs: {exc}") from None
            if ref["argv"] != argv_template(w):
                raise BenchError(f"{w.name}: reference was recorded for "
                                 "other CLI arguments; re-record it")
            self.reference = ref["seeds"].get(str(seed))

    def __call__(self, outdir: str) -> str | None:
        try:
            with open(os.path.join(outdir, self.w.output), "rb") as fh:
                data = fh.read()
        except OSError as exc:
            return f"no output: {exc}"
        if self.first is None:
            self.first = data
        elif data != self.first:
            return f"{self.w.output} differs from the first run of this seed"
        try:
            payload = json.loads(data)
            err = self.w.check(payload, self.seed, self.size)
        except (ValueError, LookupError, TypeError) as exc:
            return f"malformed {self.w.output}: {exc!r}"
        if err is None and self.reference is not None:
            err = differs(payload, self.reference)
            if err:
                err = "differs from reference at " + err
        return err


def output_bytes(outdir: str) -> int:
    return sum(os.path.getsize(os.path.join(outdir, f))
               for f in os.listdir(outdir))


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def run_end_to_end(w, seed, seconds, size, rundir, deadline):
    check = OutputCheck(w, seed, size)
    samples = []
    t_start = time.monotonic()
    # a run is started only if one more of the median length still fits in
    # ``seconds``, so a benchmark run never overshoots by a whole CLI run
    while not samples or (time.monotonic() - t_start + statistics.median(
            s["wall_s"] for s in samples) <= seconds
            and time.monotonic() < deadline):
        tag = f"run{len(samples)}"
        out = os.path.join(rundir, tag)
        s = invoke(w.argv(seed, size, rundir, WORKERS, out), tag, rundir,
                   deadline)
        s["error"] = s["error"] or check(out)
        samples.append(s)
    reached = [s for s in samples if "setup_s" in s]
    if not reached:
        raise BenchError(f"{w.name}: no run reached cli.main: "
                         f"{samples[0]['error']}")
    # a run that failed stopped early; its times stand in only if all failed
    timed = [s for s in reached if not s["error"]] or reached

    def median(key):
        return statistics.median(s[key] for s in timed)

    wall = median("wall_s")
    values = {"wall_s": wall, "setup_s": median("setup_s"),
              "items_per_s": w.items(size) / wall, "cpu_s": median("cpu_s"),
              "peak_rss_mb": median("peak_rss_mb")}
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END}
    return samples, metrics, len(timed)


def run_traced(w, seed, size, rundir, deadline):
    check = OutputCheck(w, seed, size)
    spans = os.path.join(rundir, "spans.npz")
    samples = []
    # the first heavy run after start-up reads slow on this kind of host, so
    # an untimed warm-up run goes first; its output is checked all the same
    for tag, trace in (("warmup", None), ("traced", spans),
                       ("untraced", None)):
        out = os.path.join(rundir, tag)
        s = invoke(w.argv(seed, size, rundir, 1, out), tag, rundir, deadline,
                   spans=trace)
        s["error"] = s["error"] or check(out)
        samples.append(s)
    micro_out = os.path.join(rundir, "micro.json")
    rc, _, _, _ = spawn([sys.executable, MICRO, str(seed), micro_out],
                        os.path.join(rundir, "micro.log"), deadline)
    if rc != 0 or any("main_s" not in s for s in samples):
        raise BenchError(f"{w.name}: traced run failed: "
                         f"{[s['error'] for s in samples]}, micro exit {rc}")
    with open(spans + ".json") as fh:
        traced = json.load(fh)
    with open(micro_out) as fh:
        micro = json.load(fh)

    traced_s, untraced_s = (s["main_s"] for s in samples[1:])
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}
    values = {}
    for span, stats in SPAN_STATS:
        got = traced["spans"].get(span, zero)
        values.update({f"{span}.{stat}": got[stat] for stat in stats})
    values.update(traced["counts"])
    values["cli.output_bytes"] = output_bytes(os.path.join(rundir, "traced"))
    values.update({f"kernels.{k}.micro_ms": micro[k] for k in MICRO_KERNELS})
    values.update({"trace.untraced_s": untraced_s, "trace.traced_s": traced_s,
                   "trace.overhead_s": traced_s - untraced_s,
                   "trace.spans": sum(v["calls"]
                                      for v in traced["spans"].values())})
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in per_layer_units().items()}
    return samples, metrics, 1


def run_workload(name, seed, seconds, trace, size) -> dict:
    w = WORKLOADS[name]
    deadline = time.monotonic() + RUN_LIMIT_S
    rundir = os.path.join(WORK, f"{name}-seed{seed}-trace{trace}-{size}")
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    facts = start_up(rundir, deadline)
    w.prepare(seed, size, rundir)
    if trace:
        samples, metrics, count = run_traced(w, seed, size, rundir, deadline)
    else:
        samples, metrics, count = run_end_to_end(w, seed, seconds, size,
                                                 rundir, deadline)
    failed = [s for s in samples if s["error"]]
    machine = dict(facts, nproc=NPROC, workers=1 if trace else WORKERS,
                   blas_pins=BLAS_PINS, platform=platform.platform())
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "size": size, "machine": machine,
              "samples": samples, "sample_count": count,
              "metrics": metrics}
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results",
                           os.path.basename(rundir) + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"== {name}  seed={seed}  trace={trace}  size={size}")
    print("machine: " + json.dumps(machine, sort_keys=True))
    for s in failed:
        print(f"FAILED {s['tag']}: {s['error']}")
    for metric, m in metrics.items():
        print(f"  {metric:44s} {m['value']:>14.6g} {m['unit']:6s} "
              f"n={count}")
    return {"correct": not failed,
            "attempted": len(samples), "failed": len(failed),
            "metrics": metrics}


# ---------------------------------------------------------------------------
# reference recording
# ---------------------------------------------------------------------------

def record_references(names: list) -> None:
    deadline = time.monotonic() + 3600.0
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for name in names:
        w = WORKLOADS[name]
        rundir = os.path.join(WORK, f"record-{name}")
        shutil.rmtree(rundir, ignore_errors=True)
        os.makedirs(rundir)
        start_up(rundir, deadline)
        seeds, failed = {}, {}
        for seed in REFERENCE_SEEDS:
            w.prepare(seed, "full", rundir)
            tag = f"seed{seed}"
            out = os.path.join(rundir, tag)
            s = invoke(w.argv(seed, "full", rundir, WORKERS, out), tag,
                       rundir, deadline)
            if s["error"]:
                with open(os.path.join(rundir, tag + ".log")) as fh:
                    failed[str(seed)] = fh.read().strip()
                continue
            with open(os.path.join(out, w.output)) as fh:
                payload = json.load(fh)
            err = w.check(payload, seed, "full")
            if err:
                raise BenchError(f"{name} seed {seed}: {err}")
            seeds[str(seed)] = payload
        with open(reference_path(name), "w") as fh:
            json.dump({"argv": argv_template(w), "seeds": seeds,
                       "failed": failed}, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"recorded {name}: seeds {list(seeds)}, failed {failed}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: small inputs for the self-test")
    ap.add_argument("--record", action="store_true",
                    help="re-record the reference outputs of --workload "
                    "(default all) and exit")
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    try:
        if args.workload is None and not args.record:
            ap.error("--workload is required")
        names = ([args.workload] if args.workload not in (None, "all")
                 else list(WORKLOADS))
        if args.record:
            record_references(names)
            return 0
        results = {n: run_workload(n, args.seed, args.seconds, args.trace,
                                   args.size) for n in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": m for n, r in results.items()
                        for k, m in r["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
