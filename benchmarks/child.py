"""One benchmark run of a workload: set up once, then forked runs.

    python3 benchmarks/child.py WORKLOAD SEED --scratch DIR --seconds S [--trace] [--tiny]
    python3 benchmarks/child.py WORKLOAD SEED --scratch DIR --setup-only

``run.py`` starts this script with ``PYTHONPATH`` set to the checkout's
``src`` and reads the one JSON line it prints.  The clock of ``setup_s``
starts at this file's first statement, so that the import of maternsmooth
(and of NumPy and SciPy under it) is inside it; ``--setup-only`` stops
there.

Otherwise the set-up process forks one child per workload run, one after
another: as many as fit into ``--seconds`` at the workload's nominal run
time, at least two (traced: half as many pairs, at least one).  The count
depends on ``--seconds`` only, not on the speed of the moment, so that
every benchmark run takes the fastest of the same number of runs.  Every
child starts from the same set-up state, as a fresh process would after
importing, runs the workload once, checks its outputs and sends its report
back through a pipe.

Untraced runs record clock readings at the entry and exit of every call
that the tracer would wrap (:class:`tracing.Checkpoints`).  These split
each run into the same sequence of segments, which are grouped into blocks
of at least ``BLOCK_S`` of the fastest run's time.  ``run_s`` is the sum
over blocks of the fastest run's time in each block.  On a shared host
whose speed flickers from one moment to the next, this is steadier than a
median of whole runs; it does not remove drift that lasts longer than the
benchmark run.  Traced runs (``--trace``) alternate with untraced ones and
give the per-layer metrics.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from workloads import WORKLOADS, Outcome  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
# Shortest block of segments whose fastest time is taken; longer than the
# jitter of a single clock reading, shorter than the host's fast spells.
BLOCK_S = 0.002
MIN_TIMED_RUNS = 2


def fastest_blocks(runs):
    """Sum over blocks of the fastest run's time in each block.

    ``runs`` holds one list of clock readings per run.  Runs of the same
    code on the same inputs make the same calls, so their readings pair up
    one to one; when they do not, the fastest whole run is taken as one
    block.  Returns the sum and the number of blocks.
    """
    import numpy as np

    if len({len(r) for r in runs}) != 1:
        return min(r[-1] - r[0] for r in runs), 1
    seg = np.diff(np.asarray(runs, dtype=float), axis=1)
    edges = np.cumsum(seg.min(axis=0))
    _, block = np.unique(np.floor(edges / BLOCK_S), return_inverse=True)
    per_block = np.zeros((seg.shape[0], int(block.max()) + 1))
    for k in range(seg.shape[0]):
        np.add.at(per_block[k], block, seg[k])
    return float(per_block.min(axis=0).sum()), per_block.shape[1]


def one_run(workload, inputs, scratch, references, how):
    """Run the workload once in this process and check its outputs.

    ``how`` is ``"timed"`` (clock readings at call boundaries) or
    ``"traced"`` (spans and per-layer metrics).
    """
    from tracing import Checkpoints, Tracer

    recorder = Tracer() if how == "traced" else Checkpoints()
    recorder.install()
    error = None
    t0 = time.perf_counter()
    try:
        produced = workload.run(inputs, scratch)
    except Exception:  # a failing program is a checked failure, not a crash
        error = traceback.format_exc(limit=4)
    t1 = time.perf_counter()
    marks = [t0, *getattr(recorder, "marks", ()), t1]
    if error is None:
        try:
            outcome = workload.check(inputs, produced, references)
        except Exception:
            error = traceback.format_exc(limit=4)
    if error is not None:
        outcome = Outcome(attempted=workload.expected_operations(inputs))
        outcome.fail_all(error)
    report = {"run_s": t1 - t0,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "attempted": outcome.attempted, "failed": outcome.failed,
              "problems": outcome.problems, "digest": outcome.digest,
              "missing_bindings": recorder.missing}
    if how == "traced":
        from tracing import layer_metrics

        recorder.uninstall()
        report["layers"] = layer_metrics(recorder, t1 - t0)
        recorder.write(os.path.join(scratch, f"trace-{workload.name}.json"))
    else:
        report["marks"] = marks
    return report


def forked(fn):
    """Call ``fn()`` in a forked child and return its JSON-able result."""
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: report through the pipe, never return
        os.close(rfd)
        try:
            data = json.dumps({"ok": fn()})
        except BaseException:
            data = json.dumps({"error": traceback.format_exc(limit=6)})
        try:
            with os.fdopen(wfd, "w") as fh:
                fh.write(data)
        finally:
            os._exit(0)
    os.close(wfd)
    with os.fdopen(rfd) as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    reply = json.loads(data) if data else {"error": f"run exited with status {status}"}
    if "error" in reply:
        raise RuntimeError(reply["error"])
    return reply["ok"]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    inputs = workload.setup(args.seed, args.tiny)
    setup_s = time.perf_counter() - T0

    import maternsmooth

    if not os.path.abspath(maternsmooth.__file__).startswith(SRC + os.sep):
        print(f"maternsmooth was imported from {maternsmooth.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    report = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(report))
        return 0

    with open(os.path.join(HERE, "references.json")) as fh:
        references = json.load(fh)

    def run(how):
        return forked(lambda: one_run(workload, inputs, args.scratch, references, how))

    # Untraced: timed runs.  Traced: pairs of a timed and a traced run.
    count = int(args.seconds // workload.run_s_nominal)
    if args.tiny:
        count = 1
    elif args.trace:
        count = max(1, count // 2)
    else:
        count = max(MIN_TIMED_RUNS, count)
    kinds = ("timed", "traced") if args.trace else ("timed",)
    runs = {kind: [] for kind in kinds}
    for _ in range(count):
        for kind in kinds:
            runs[kind].append(run(kind))

    timed = runs["timed"]
    checked = timed + runs.get("traced", [])
    run_s, blocks = fastest_blocks([r.pop("marks") for r in timed])
    report.update(
        run_s=run_s, blocks=blocks,
        run_totals=[r["run_s"] for r in timed],
        peak_rss_mb=statistics.median(r["peak_rss_mb"] for r in timed),
        attempted=sum(r["attempted"] for r in checked),
        failed=sum(r["failed"] for r in checked),
        problems=[p for r in checked for p in r["problems"]],
        digests=sorted({r["digest"] for r in checked}),
        missing_bindings=timed[0]["missing_bindings"])
    if args.trace:
        traced = runs["traced"]
        report["layers"] = [r["layers"] for r in traced]
        report["trace_overhead"] = (statistics.median(r["run_s"] for r in traced)
                                    / statistics.median(report["run_totals"]) - 1.0)

    from environment import environment

    report["environment"] = environment()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
