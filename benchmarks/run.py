"""Benchmark of maternsmooth: one workload, end-to-end or per-layer metrics.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run from any directory of a source checkout; nothing needs installing.

A run starts one set-up process (``child.py``), which imports maternsmooth,
generates the inputs and then forks the workload runs one after another
until another would end after ``--seconds``.  ``--trace 0`` reports
``run_s`` (per block of call-boundary segments, the fastest of the run's
timed runs, summed; see ``child.py``), ``setup_s`` (median over the set-up
process and set-up-only processes, seven in all), ``peak_rss_mb`` (median)
and ``ok_share``.  ``--trace 1`` alternates timed and traced runs and
reports the per-layer metrics of the traced runs (medians) with the
tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it, starting with ``#``, give the environment block and a summary.  The
full report, environment included, is also written to
``.bench_out/result-<workload>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

from tracing import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"), ("ok_share", "share"))
SETUP_SAMPLES = 7
TIME_LIMIT_S = 170.0  # a run must end within 180 s
# BLAS threads of every workload process: one, for steady timings on a
# shared machine; the environment block reports what the library used.
BLAS_THREADS = "1"


class BenchmarkError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _stop_group(proc):
    """Kill the process group of ``proc`` (its forked runs too) and wait
    until every member has ended."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(100):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_child(workload, seed, deadline, *flags, seconds=0):
    """Run ``child.py`` once and return its JSON report."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), workload, str(seed),
           "--scratch", SCRATCH, "--seconds", str(seconds), *flags]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError("out of time before the next workload process")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{workload} process timed out") from None
    finally:
        _stop_group(proc)
    if proc.returncode != 0 or not out.strip():
        raise BenchmarkError(f"{workload} process exited with {proc.returncode}:\n"
                             f"{err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def _median_or_same(values):
    """The median, or the value itself when all agree (counts stay integers)."""
    return values[0] if len(set(values)) == 1 else statistics.median(values)


def benchmark(name, seed, seconds, trace, tiny=False):
    """Run one workload; returns (result line, full report)."""
    deadline = time.monotonic() + TIME_LIMIT_S
    flags = ["--trace"] * trace + ["--tiny"] * tiny
    main_run = run_child(name, seed, deadline, *flags, seconds=seconds)
    setups = [main_run["setup_s"]]
    if not trace:
        while len(setups) < SETUP_SAMPLES:
            setups.append(run_child(name, seed, deadline, "--setup-only",
                                    *flags)["setup_s"])

    attempted, failed = main_run["attempted"], main_run["failed"]
    problems = list(main_run["problems"])
    if len(main_run["digests"]) != 1:
        problems.append("runs on the same inputs gave different outputs"
                        + (" (traced and untraced)" if trace else ""))
        failed = attempted
    env = main_run["environment"]
    for lib in env["blas_loaded"]:
        if lib["threads"] is not None and lib["threads"] > env["nproc"]:
            raise BenchmarkError(f"{lib['library']} uses {lib['threads']} threads "
                                 f"on {env['nproc']} processors")

    if trace:
        layers = main_run["layers"]
        values = {m: _median_or_same([run[m] for run in layers])
                  for m, _ in PER_LAYER if m != "trace.overhead"}
        values["trace.overhead"] = main_run["trace_overhead"]
        units = PER_LAYER
    else:
        values = {"run_s": main_run["run_s"],
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": main_run["peak_rss_mb"],
                  "ok_share": (attempted - failed) / attempted}
        units = END_TO_END
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": unit} for m, unit in units},
    }
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": env,
        "run_totals": main_run["run_totals"],
        "blocks": main_run["blocks"],
        "setup_samples": setups,
        "problems": problems,
        "missing_bindings": main_run["missing_bindings"],
        "result": result,
    }
    return result, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "maternsmooth", "__init__.py")):
            raise BenchmarkError(f"no maternsmooth sources under {ROOT}/src")
        if args.seed < 0 or args.seconds < 1:
            raise BenchmarkError("--seed must be >= 0 and --seconds >= 1")
        with open(os.path.join(HERE, "references.json")) as fh:
            references = json.load(fh)
        if args.workload not in references:
            raise BenchmarkError(f"references.json has no entry for {args.workload}")
        os.makedirs(SCRATCH, exist_ok=True)
        result, report = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchmarkError, OSError, ValueError) as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2
    path = os.path.join(SCRATCH, f"result-{args.workload}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
    print("# environment " + json.dumps(report["environment"]))
    runs = ", ".join(f"{t:.3f}" for t in report["run_totals"])
    print(f"# {args.workload} seed={args.seed}: whole runs [{runs}] s, "
          f"{report['blocks']} blocks; report in {os.path.relpath(path, ROOT)}")
    for problem in report["problems"]:
        print(f"# problem: {problem}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
