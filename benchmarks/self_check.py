"""Fast self-check of the benchmark, at tiny workload sizes.

    python3 benchmarks/self_check.py

Runs every workload once untraced and once traced (``tiny=True``: short
schedules, two seeds at most) and asserts that

* each run is correct and emits exactly the metrics ``BENCHMARK.json``
  names, end-to-end untraced and per-layer traced, each with its unit;
* the traced and untraced runs give identical outputs (``run.py`` compares
  their digests and fails the run otherwise);
* per-layer counts repeat exactly between two traced runs;
* the benchmark refuses to run, without printing a result, in a directory
  that holds only ``BENCHMARK.json`` and the benchmark's files.

Takes about half a minute; exits 1 on the first failed assertion.
"""

import json
import os
import shutil
import subprocess
import sys

from run import PER_LAYER, ROOT, SCRATCH, BenchmarkError, benchmark
from workloads import WORKLOADS


class CheckFailed(Exception):
    pass


def expect(ok, message):
    if not ok:
        raise CheckFailed(message)


def check_workload(name, spec):
    for trace, listed in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
        result, report = benchmark(name, seed=1, seconds=1, trace=trace, tiny=True)
        expect(result["correct"] and result["failed"] == 0,
               f"{name} trace={int(trace)}: not correct: {report['problems']}")
        want = {m["name"]: m["unit"] for m in listed}
        got = {m: v["unit"] for m, v in result["metrics"].items()}
        expect(got == want, f"{name} trace={int(trace)}: metrics {got} != {want}")
        for metric, value in result["metrics"].items():
            expect(isinstance(value["value"], (int, float)), f"{name}: {metric} not a number")
        if trace:
            expect(not report["missing_bindings"],
                   f"{name}: wrapped bindings missing: {report['missing_bindings']}")
            again, _ = benchmark(name, seed=1, seconds=1, trace=True, tiny=True)
            for metric, unit in PER_LAYER:
                if unit == "count":
                    expect(again["metrics"][metric] == result["metrics"][metric],
                           f"{name}: count {metric} differs between traced runs")
    print(f"ok  {name}")


def check_refuses_without_sources():
    bare = os.path.join(SCRATCH, "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(os.path.dirname(os.path.abspath(__file__)),
                    os.path.join(bare, "benchmarks"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = subprocess.run(
            [sys.executable, "benchmarks/run.py", "--workload", "sweep-1d", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"ran without sources: exit {proc.returncode}, output {proc.stdout!r}")
    print("ok  refuses to run without the sources")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    os.makedirs(SCRATCH, exist_ok=True)
    try:
        expect(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
               "BENCHMARK.json and workloads.py name different workloads")
        for name in WORKLOADS:
            check_workload(name, spec)
        check_refuses_without_sources()
    except (CheckFailed, BenchmarkError) as err:
        print(f"FAILED: {err}", file=sys.stderr)
        return 1
    print("self-check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
