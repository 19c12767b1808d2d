"""Command-line interface.

Exit codes: 0 success, 1 configuration error, 2 numerical failure (a grid
that cannot resolve or hold the kernel, a failed eigensolve, undefined
conditioning, where no photon-bearing comb mode couples, or every scan
point failed), 3 I/O error.  A config that resolves builds every object a
command builds (:func:`~modesub.config.resolve`), so any other exception
is a bug and prints a traceback.

Every command that writes a directory (``kernel``, ``schmidt``, ``scan``,
``subtract``, and ``gaussian`` given ``--output-dir``) runs one path
(:func:`cmd_write`): it writes ``run_meta.json`` beside its artifacts, also
when every scan point failed, and passing that file as ``--config``
reproduces them byte for byte.  ``gaussian`` without ``--output-dir``
prints the text its file would hold.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

from . import __version__
from .config import ConfigError, RunConfig, load_config, resolve, schema
from .dispersion import PRESETS
from .scan import (NUMERICAL_FAILURES, ScanFailed, gaussian_table_text, run_scan,
                   write_condition_summary, write_gaussian_table, write_kernel_csv,
                   write_modes_csv, write_run_meta)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3


def _load(args) -> RunConfig:
    if args.config is None:
        return resolve({})
    return load_config(args.config)


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON configuration file (defaults apply when omitted)")
    parser.add_argument("--output-dir", type=Path, default=None,
                        help="override the configured output directory")


def cmd_preset(args) -> int:
    if args.action == "list":
        for name, p in PRESETS.items():
            print(f"{name}: kp_s={p.kp_s:.4f} fs/um, kp_c={p.kp_c:.4f} fs/um, "
                  f"rho={p.rho:.5f} rad, phi={p.phi:+.5f} rad, "
                  f"theta_pm={p.theta_pm:.5f} rad")
    return EXIT_OK


def cmd_config(args) -> int:
    if args.schema:
        print(json.dumps(schema(), indent=2))
        return EXIT_OK
    config = _load(args)
    print(json.dumps(config.resolved, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_write(args, **options) -> int:
    """Create the output directory, run the command's writer there, record
    the run in run_meta.json and print every path written.

    A numerical failure (:data:`~modesub.scan.NUMERICAL_FAILURES`, or a
    scan whose every point failed) exits 2, and run_meta.json is still
    written.

    The writers are looked up here, when the command runs, not bound at
    import, so a caller that replaces one in this module (a tracer) sees
    the call.
    """
    t0 = time.monotonic()
    config = _load(args)
    directory = Path(args.output_dir or config.output_dir)
    directory.mkdir(parents=True, exist_ok=True)
    writer = {"kernel": write_kernel_csv, "schmidt": write_modes_csv,
              "scan": run_scan, "subtract": write_condition_summary,
              "gaussian": write_gaussian_table}[args.command]
    code = EXIT_OK
    try:
        paths = writer(config, directory, **options)
    except (ScanFailed, *NUMERICAL_FAILURES) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        code, paths = EXIT_NUMERICAL, getattr(exc, "paths", [])
    paths.append(write_run_meta(directory, config, time.monotonic() - t0))
    for path in paths:
        print(f"wrote {path}")
    return code


def cmd_gaussian(args) -> int:
    if args.output_dir is not None:
        return cmd_write(args, fmt=args.format)
    print(gaussian_table_text(_load(args), args.format), end="")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``modesub`` argument parser, built once per process.

    Building it takes about a millisecond (eight parsers and their help
    formatters), which a driver calling :func:`main` in a loop would pay
    on every call.  ``parse_args`` leaves a parser unchanged and returns a
    fresh namespace, so calls share nothing through it.
    """
    parser = argparse.ArgumentParser(
        prog="modesub",
        description="Mode-selective photon subtraction via non-collinear "
                    "sum-frequency generation")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preset", help="crystal preset utilities")
    p.add_argument("action", choices=("list",))
    p.set_defaults(func=cmd_preset)

    p = sub.add_parser("config", help="validate/print configuration")
    p.add_argument("--schema", action="store_true",
                   help="print the config schema with defaults")
    _common_flags(p)
    p.set_defaults(func=cmd_config)

    for name, help_text in (
            ("kernel", "build the transfer kernel and dump it as CSV"),
            ("schmidt", "decompose the kernel and dump subtraction modes"),
            ("scan", "run the configured Schmidt-number sweep"),
            ("gaussian", "analytic-model summary table"),
            ("subtract", "conditioned-state summary and overlap matrix")):
        p = sub.add_parser(name, help=help_text)
        _common_flags(p)
        p.set_defaults(func=cmd_gaussian if name == "gaussian" else cmd_write)
        if name == "gaussian":
            p.add_argument("--format", choices=("csv", "json"), default="csv",
                           help="table output format")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
