"""Fast self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at its tiny size in both modes and
checks that each run is correct and emits exactly the metric names and
units that BENCHMARK.json declares, in order. Then checks that the
benchmark refuses to run, without printing a result, in a directory that
holds only BENCHMARK.json and the benchmark's own files.
"""

import json
import math
import os
import shutil
import subprocess
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = ["correct", "attempted", "failed", "metrics"]


def run_bench(root: str, args: list):
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else "", proc.stderr


def problems_in(result: dict, declared: list) -> list:
    out = []
    if list(result) != RESULT_KEYS:
        out.append(f"result keys {list(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        out.append(f"correct={result.get('correct')} "
                   f"failed={result.get('failed')}")
    if not result.get("attempted", 0) >= 1:
        out.append("nothing attempted")
    got = [(k, m["unit"]) for k, m in result.get("metrics", {}).items()]
    want = [(m["name"], m["unit"]) for m in declared]
    if got != want:
        out.append(f"metrics emitted but not declared: "
                   f"{sorted(set(got) - set(want))}; declared but not "
                   f"emitted: {sorted(set(want) - set(got))}"
                   if set(got) != set(want) else "metric order differs")
    for k, m in result.get("metrics", {}).items():
        v = m["value"]
        if isinstance(v, bool) or not isinstance(v, (int, float)) \
                or not math.isfinite(v):
            out.append(f"{k} = {v!r}")
    return out


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    failures = []
    names = [w["name"] for w in spec["workloads"]]
    if names != list(WORKLOADS):
        failures.append(f"BENCHMARK.json workloads {names} differ from "
                        f"workloads.py {list(WORKLOADS)}")
    for name in names:
        for trace, declared in ((0, spec["end_to_end"]),
                                (1, spec["per_layer"])):
            rc, last, err = run_bench(ROOT, [
                "--workload", name, "--seconds", "1", "--trace", str(trace),
                "--size", "tiny"])
            where = f"{name} --trace {trace}"
            try:
                result = json.loads(last)
            except ValueError:
                failures.append(f"{where}: exit {rc}, no result: {err[-500:]}")
                continue
            failures += [f"{where}: {p}"
                         for p in problems_in(result, declared)]
            print(f"{where}: ran", flush=True)

    bare = os.path.join(ROOT, ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    rc, last, _ = run_bench(bare, ["--workload", names[0], "--seconds", "1",
                                   "--trace", "0"])
    if rc == 0 or last.startswith("{"):
        failures.append(f"without the library: exit {rc}, last line {last!r}")
    shutil.rmtree(bare)

    for f in failures:
        print("FAIL " + f)
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
