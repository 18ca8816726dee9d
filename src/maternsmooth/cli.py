"""Command-line front end for the identity suites and experiments.

Subcommands mirror the experiment engines: ``verify-identities``,
``variance-decay``, ``non-undersmoothing``, ``logdet-growth`` and
``convergence``.  Configuration comes from
an optional flat ``key=value`` file plus command-line overrides; every
run is deterministic given its configuration, seeds included.

Exit codes: 0 on success, 1 when a run raises, its CSV cannot be
written, or an asserted experiment fails its criterion
(``verify-identities`` always asserts, the others under ``--check``), 2
on usage or configuration errors, a missing output directory among them.
"""

from __future__ import annotations

import argparse
import csv
import functools
import os
import sys
from dataclasses import fields, replace
from typing import get_args, get_origin, get_type_hints

from .errors import DomainError, MaternSmoothError, check_integer
from .estimators import EstimatorConfig
from .experiments import (
    ExperimentConfig,
    run_convergence,
    run_identity_suite,
    run_logdet_growth,
    run_non_undersmoothing,
    run_variance_decay,
)

__all__ = ["main", "parse_config_file", "write_csv"]

_ESTIMATOR_KEYS = {f.name for f in fields(EstimatorConfig)}
_EXPERIMENT_KEYS = {f.name for f in fields(ExperimentConfig)}
# The declared type of each setting: a tuple type is a comma-separated list.
_TYPES = {**get_type_hints(EstimatorConfig), **get_type_hints(ExperimentConfig)}


def _parse_scalar(text):
    text = text.strip()
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _as_declared(declared, value):
    """A whole number read for a real-valued setting as a float, as its
    flag reads it; anything else, bools and text among them, as read."""
    return float(value) if declared is float and type(value) is int else value


def _parse_value(key, text):
    declared = _TYPES.get(key)
    if get_origin(declared) is tuple:
        item = get_args(declared)[0]
        return tuple(_as_declared(item, _parse_scalar(t)) for t in text.split(",") if t.strip())
    return _as_declared(declared, _parse_scalar(text))


def parse_config_file(path):
    """Read a flat ``key=value`` configuration file.

    Blank lines and ``#`` comments are ignored; list-valued keys use
    comma separation, and the key ``lambda`` is the setting ``lambda_``.
    """
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DomainError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, text = line.split("=", 1)
            key = key.strip().replace("-", "_")
            key = "lambda_" if key == "lambda" else key
            values[key] = _parse_value(key, text)
    return values


def _format_cell(value):
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.17g}"
    if value is None:
        return ""
    return str(value)


def write_csv(path, header, rows):
    """Write rows with a fixed header; floats at 17 significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(v) for v in row])


def _build_config(args):
    values = parse_config_file(args.config) if args.config else {}
    # Each flag is stored under the name of the setting it overrides.
    values.update((key, value) for key, value in vars(args).items()
                  if value is not None and key in _ESTIMATOR_KEYS | _EXPERIMENT_KEYS)

    est_values = {k: values.pop(k) for k in list(values) if k in _ESTIMATOR_KEYS}
    estimator = EstimatorConfig(**est_values)
    unknown = set(values) - _EXPERIMENT_KEYS
    if unknown:
        raise DomainError(f"unknown configuration keys: {sorted(unknown)}")
    return ExperimentConfig(estimator=estimator, **values)


def _check_output_directory(path):
    """Raise :class:`DomainError` when the directory of the CSV path does
    not exist, so that no run ends in a write that cannot succeed."""
    if path:
        directory = os.path.dirname(path) or os.curdir
        if not os.path.isdir(directory):
            raise DomainError(f"output directory {directory!r} does not exist")


def _emit(result, config):
    if config.output_path:
        write_csv(config.output_path, result.header, result.rows)
        print(f"wrote {len(result.rows)} rows to {config.output_path}")
    print(result.summary)


# The runner of each command, looked up by name when called, so that a
# wrapper put on this module's binding of a runner (as benchmarks/tracing.py
# does) sees its calls.
_COMMANDS = {
    "verify-identities": lambda config: run_identity_suite(),
    "variance-decay": lambda config: run_variance_decay(config),
    "non-undersmoothing": lambda config: run_non_undersmoothing(config),
    "logdet-growth": lambda config: run_logdet_growth(config),
    "convergence": lambda config: run_convergence(config),
}


# The flag of each setting that a command line may give.  Its text is
# parsed as the file line ``key = text`` is (:func:`_parse_value`), and the
# configuration checks the value.
_SETTING_FLAGS = {
    "--seed-list": "seeds",
    "--d": "d",
    "--nu0": "nu0",
    "--schedule": "schedule",
    "--f0": "f0",
    "--nu-grid": "nu_grid",
    "--nu-model": "nu_model",
    "--sigma": "sigma",
    "--lambda": "lambda_",
    "--design": "design",
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="maternsmooth",
        description="Identity suites and smoothness-estimation experiments "
                    "for Matern Gaussian process regression.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="flat key=value configuration file")
        p.add_argument("--out", dest="output_path", help="CSV output path")
        # Kept only because existing benchmark commands pass it; the
        # package evaluates everything on the calling thread.
        p.add_argument("--threads", type=_parse_scalar, default=None, metavar="N",
                       help="accepted and ignored (an integer >= 1): every "
                            "command runs on the calling thread")
        for flag, key in _SETTING_FLAGS.items():
            p.add_argument(flag, dest=key, type=functools.partial(_parse_value, key),
                           metavar="TEXT", help=f"the setting {key}, read as a file line")
        p.add_argument("--check", action="store_true",
                       help="exit 1 when the experiment's built-in criterion fails")
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.threads is not None:
            check_integer("threads", args.threads, 1)
        config = _build_config(args)
        config = replace(config, experiment=args.command)
        _check_output_directory(config.output_path)
    except (MaternSmoothError, TypeError, OSError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    try:
        result = _COMMANDS[args.command](config)
    except MaternSmoothError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    try:
        _emit(result, config)
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    asserted = args.check or args.command == "verify-identities"
    return 1 if asserted and result.ok is False else 0


if __name__ == "__main__":
    sys.exit(main())
