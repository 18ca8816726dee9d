"""The two benchmark workloads: inputs from a seed, one run, output checks.

A workload is driven by ``child.py`` in three steps:

* ``setup(seed, tiny)`` imports maternsmooth and generates the inputs;
* ``run(inputs, scratch)`` makes the calls into maternsmooth;
* ``check(inputs, produced, references)`` checks every output and returns
  an :class:`Outcome`.

An *operation* is one estimate (one objective at one prefix size).  A ν cell that fails to condition is designed behaviour and
is not a failure.  An operation fails when it ends with an ``ml_error=`` /
``cv_error=`` note, a ``FAIL`` status, or a failed output check.  When a
whole-run check fails (exit code, verdict, row count) every operation of
the run counts as failed, because none of its output can be trusted.

Each workload has a reference seed whose ν̂ values were
recorded at the parent commit in ``references.json``.  Every run's inputs
include that seed, and its estimates must agree within ``refine_tol``.

``tiny=True`` shrinks every workload to a size that runs in about a second;
the self-check uses it and skips the reference comparison, whose values belong to the full size.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
from dataclasses import dataclass, field

__all__ = ["WORKLOADS", "Outcome"]

# EstimatorConfig.refine_tol at the parent commit.
REFINE_TOL = 1e-3
MAX_PROBLEMS = 20


@dataclass
class Outcome:
    """Checked result of one workload run."""

    attempted: int
    failed: int = 0
    problems: list = field(default_factory=list)
    digest: str = ""
    anchor: dict = field(default_factory=dict)  # n -> [nu_hat_ml, nu_hat_cv]

    def fail(self, message, operations=1):
        self.failed = min(self.attempted, self.failed + operations)
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(message)

    def fail_all(self, message):
        self.fail(message, self.attempted)


def _float(text):
    try:
        return float(text)
    except (TypeError, ValueError):
        return math.nan


def _parse_csv(data):
    rows = list(csv.reader(io.StringIO(data.decode())))
    return (rows[0], rows[1:]) if rows else ([], [])


def _csv_bytes(header, rows):
    """Rows as CSV text, formatted as the CLI writes them (floats at 17 digits)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow(["" if v is None else f"{v:.17g}" if isinstance(v, float) else str(v)
                         for v in row])
    return buf.getvalue().encode()


def _run_cli(argv, scratch, name):
    """Run the ``maternsmooth`` CLI in this process.

    Returns the exit code, everything it printed, and the CSV it wrote.
    """
    from maternsmooth import cli

    path = os.path.join(scratch, f"{name}-{os.getpid()}.csv")
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = cli.main(list(argv) + ["--out", path])
        data = b""
        if os.path.exists(path):
            with open(path, "rb") as fh:
                data = fh.read()
    finally:
        if os.path.exists(path):
            os.remove(path)
    return code, out.getvalue(), data


def _check_sweep_rows(outcome, header, rows, ref_seed, references, nu_max,
                      hit_upper_from=None):
    """Per-estimate checks shared by the sweep workloads.

    ``rows`` are ``SweepRecord`` rows as CSV text; each carries two
    operations, the ML and the CV estimate.  Rows of the reference seed are
    kept in ``outcome.anchor`` and, unless ``references`` is None, compared
    with the recorded ν̂ values (prefix size -> [ML, CV]).
    """
    col = {name: i for i, name in enumerate(header)}
    ref_seed = str(ref_seed)
    for row in rows:
        seed, n, notes = row[col["seed"]], int(row[col["n"]]), row[col["notes"]]
        for k, obj in enumerate(("ml", "cv")):
            nu_hat = _float(row[col[f"nu_hat_{obj}"]])
            where = f"seed={seed or '-'} n={n} {obj}"
            if f"{obj}_error=" in notes:
                outcome.fail(f"{where}: {notes}")
            elif not (0.0 < nu_hat <= nu_max + REFINE_TOL):
                outcome.fail(f"{where}: nu_hat={nu_hat!r} outside the bracket")
            elif (hit_upper_from is not None and obj == "ml" and n >= hit_upper_from
                  and row[col["hit_upper_ml"]] != "True"):
                outcome.fail(f"{where}: hit_upper_ml is not set")
            elif seed == ref_seed and references is not None:
                want = references.get(str(n), [None, None])[k]
                if want is None or not abs(nu_hat - want) <= REFINE_TOL:
                    outcome.fail(f"{where}: nu_hat={nu_hat!r}, reference {want!r}")
        if seed == ref_seed:
            outcome.anchor[str(n)] = [_float(row[col["nu_hat_ml"]]),
                                      _float(row[col["nu_hat_cv"]])]


def _check_reference_present(outcome, seeds, ref_seed):
    if ref_seed in seeds and not outcome.anchor:
        outcome.fail_all(f"no rows for the reference seed {ref_seed}")


class Sweep1d:
    """CLI ``non-undersmoothing`` at the C07 configuration, one path per seed."""

    name = "sweep-1d"
    why = ("the ROADMAP's end-to-end C07 configuration, two of its ten seeds per run, "
           "n up to 512: Cholesky, LOO and assembly dominate")
    reference_seed = 101
    # Typical seconds of one full-size run on a 2-core Intel Xeon with one
    # BLAS thread; fixes how many runs a benchmark run makes (see child.py).
    run_s_nominal = 4.5
    full_schedule = (16, 32, 64, 128, 256, 512)
    tiny_schedule = (16, 32)
    options = ("--nu0", "1.5", "--d", "1", "--design", "van_der_corput", "--lambda", "1")

    def seeds(self, seed, tiny):
        # The reference seed 101 and one other seed of the C07 default list
        # 101..110; seeds 0..8 cover the list.
        return [101, 102 + seed % 9]

    def schedule(self, tiny):
        return self.tiny_schedule if tiny else self.full_schedule

    def setup(self, seed, tiny):
        import maternsmooth.cli  # noqa: F401  (importing is part of set-up)

        seeds = self.seeds(seed, tiny)
        argv = ["non-undersmoothing", *self.options,
                "--schedule", ",".join(map(str, self.schedule(tiny))),
                "--seed-list", ",".join(map(str, seeds)), "--threads", "1"]
        if not tiny:  # the verdict needs the tail of the full schedule
            argv.append("--check")
        return {"seeds": seeds, "tiny": tiny, "argv": argv}

    def expected_operations(self, inputs):
        return 2 * len(inputs["seeds"]) * len(self.schedule(inputs["tiny"]))

    def run(self, inputs, scratch):
        return _run_cli(inputs["argv"], scratch, self.name)

    def check(self, inputs, produced, references):
        code, text, data = produced
        outcome = Outcome(attempted=self.expected_operations(inputs),
                          digest=hashlib.sha256(data).hexdigest())
        if code != 0 or not (inputs["tiny"] or "-> PASS" in text):
            outcome.fail_all(f"exit code {code}, verdict not PASS: {text.strip()[-300:]}")
            return outcome
        header, rows = _parse_csv(data)
        if 2 * len(rows) != outcome.attempted:
            outcome.fail_all(f"{len(rows)} rows, expected {outcome.attempted // 2}")
            return outcome
        refs = None if inputs["tiny"] else references.get(self.name)
        _check_sweep_rows(outcome, header, rows, self.reference_seed, refs, nu_max=15.0)
        if not inputs["tiny"]:
            _check_reference_present(outcome, inputs["seeds"], self.reference_seed)
        return outcome


class SaturationScattered:
    """API ``sweep_prefixes`` on smooth data over a jittered 1-d design.

    The design is a van der Corput sequence with every point moved by at
    most a quarter of the finest spacing, so every prefix stays
    quasi-uniform while all pairwise distances are distinct and the
    distance deduplication is bypassed.
    """

    name = "saturation-scattered"
    why = ("smooth data with nu_max=300 on distinct distances: large-order Bessel "
           "evaluation and the conditioning-failure path dominate")
    reference_seed = 0
    run_s_nominal = 6.5
    full_schedule = (64, 128, 256, 512)
    tiny_schedule = (16, 32)
    nu_max = 300.0
    lambda_ = 0.05
    hit_upper_from = 256

    def schedule(self, tiny):
        return self.tiny_schedule if tiny else self.full_schedule

    def setup(self, seed, tiny):
        import numpy as np

        from maternsmooth.analysis import builtin_test_functions
        from maternsmooth.designs import Box, Design, van_der_corput
        from maternsmooth.estimators import EstimatorConfig

        n = self.schedule(tiny)[-1]
        box = Box.unit(1)
        base = van_der_corput(box, n).points[:, 0]
        spacing = float(np.min(np.diff(np.sort(base))))
        # The jitter is the reference seed's, so that every run checks ν̂.
        seed = self.reference_seed
        rng = np.random.Generator(np.random.Philox(seed))
        jitter = (2.0 * rng.random(n) - 1.0) * 0.25 * spacing
        points = np.clip(base + jitter, 0.0, 1.0)
        design = Design(points, box)
        y = builtin_test_functions()["gauss_bump"](points)
        config = EstimatorConfig(nu_max=self.nu_max, lambda_=self.lambda_)
        return {"seed": seed, "tiny": tiny, "design": design, "y": y, "config": config}

    def expected_operations(self, inputs):
        return 2 * len(self.schedule(inputs["tiny"]))

    def run(self, inputs, scratch):
        from maternsmooth import estimators

        return estimators.sweep_prefixes(
            inputs["design"], inputs["y"], self.schedule(inputs["tiny"]), inputs["config"],
            experiment=self.name, seed=inputs["seed"])

    def check(self, inputs, produced, references):
        header = list(produced[0].FIELDS) if produced else []
        data = _csv_bytes(header, [r.as_row() for r in produced])
        outcome = Outcome(attempted=self.expected_operations(inputs),
                          digest=hashlib.sha256(data).hexdigest())
        header, rows = _parse_csv(data)
        if 2 * len(rows) != outcome.attempted:
            outcome.fail_all(f"{len(rows)} rows, expected {outcome.attempted // 2}")
            return outcome
        refs = None if inputs["tiny"] else references.get(self.name)
        _check_sweep_rows(outcome, header, rows, self.reference_seed, refs,
                          nu_max=self.nu_max, hit_upper_from=self.hit_upper_from)
        if not inputs["tiny"]:
            _check_reference_present(outcome, [inputs["seed"]], self.reference_seed)
        return outcome


WORKLOADS = {w.name: w for w in (Sweep1d(), SaturationScattered())}
