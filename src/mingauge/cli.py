"""Command-line interface.

Exit codes:
  0  requested checks all passed
  1  at least one applicable check failed
  2  invalid configuration or usage (diagnostic names the offending field)
  3  internal error: an unexpected exception, reported in one line

``MINGAUGE_THREADS=k`` caps the BLAS/OpenMP thread pools at k.  Unset, each
pool defaults to 1 thread unless its own variable (``OPENBLAS_NUM_THREADS``
and so on) is set: at the usual sizes no stage gains from more, and an idle
pool spins a core.  A second thread costs wall time too: n = 4 counting at
50,000 samples took 1.73 s with ``MINGAUGE_THREADS=2`` against 1.44 s at one
thread (BENCH_16.json), and the helicoid benchmark report 0.70 s against
0.58 s (BENCH_18.json), on a 2-core x86-64 host.
The cap must land in the environment before numpy is first imported, which
is why this module and the package root import nothing numerical at module
scope.
"""
from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .errors import ConfigError

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _pin_threads() -> None:
    cap = os.environ.get("MINGAUGE_THREADS")
    if cap and (not cap.isdigit() or int(cap) < 1):
        raise ConfigError("MINGAUGE_THREADS", "must be a positive integer")
    for var in _THREAD_VARS:
        os.environ[var] = cap or os.environ.get(var, "1")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mingauge",
        description="Integral-geometric invariants of triangulated "
                    "minimal submanifolds.",
    )
    parser.add_argument("--version", action="version",
                        version=f"mingauge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    rep = sub.add_parser(
        "report",
        help="run every estimator and check for one surface; write "
             "report.json, sweeps.csv and run.log",
    )
    rep.add_argument("--config", required=True,
                     help="JSON run configuration")
    rep.add_argument("--out", default=".",
                     help="output directory (default: current directory)")
    rep.add_argument("--strict", action="store_true",
                     help="treat estimator-reliability warnings as failures")

    sub.add_parser("catalog", help="list built-in surfaces, their "
                                   "parameters and reference values")

    cro = sub.add_parser(
        "crofton",
        help="check the line-counting identity on a region of the unit "
             "sphere in R^3",
    )
    cro.add_argument("--set", dest="region", required=True,
                     choices=("full", "hemisphere", "cap"),
                     help="spherical region to integrate over")
    cro.add_argument("--angle", type=float, default=None,
                     help="cap half-angle in radians (required for --set cap)")
    cro.add_argument("--samples", type=int, default=100000,
                     help="number of random lines (default 100000)")
    cro.add_argument("--seed", type=int, required=True,
                     help="random seed (runs are reproducible)")
    cro.add_argument("--sectors", type=int, default=96,
                     help="azimuthal sectors of the hemisphere and cap "
                          "meshes, whose 36 rings are fixed (default 96)")
    return parser


def _cmd_report(args) -> int:
    from .report import load_config, run_report

    config = load_config(args.config)
    report = run_report(config, args.out, strict=args.strict)
    for check in report["checks"]:
        if not check["applicable"]:
            verdict = "skip"
        else:
            verdict = "PASS" if check["passed"] else "FAIL"
        margin = check.get("margin")
        tail = "" if margin is None else f"  margin={margin:.3e}"
        note = check.get("note", "")
        if verdict == "skip" and note:
            tail = f"  {note}"
        print(f"[{verdict}] {check['name']}{tail}")
    for warning in report["warnings"]:
        print(f"warning: {warning}")
    applicable = [c for c in report["checks"] if c["applicable"]]
    good = sum(1 for c in applicable if c["passed"])
    print(f"{good}/{len(applicable)} applicable checks passed; "
          f"report written to {args.out}")
    return report["exit_code"]


def _format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def _cmd_catalog(_args) -> int:
    from .catalog import build_surface, catalog_entry_info, catalog_names

    for name in catalog_names():
        info = catalog_entry_info(name)
        spec = build_surface(name, resolution="coarse")
        print(name + ("  [non-minimal control]" if spec.control else ""))
        params = ", ".join(f"{k}={_format_value(v)}"
                           for k, v in sorted(info["params"].items()))
        print(f"  params: {params}")
        presets = "; ".join(
            f"{preset} ({', '.join(f'{k}={v}' for k, v in sorted(grid.items()))})"
            for preset, grid in sorted(info["resolutions"].items())
        )
        print(f"  resolutions: {presets}")
        base = ", ".join(_format_value(float(c)) for c in spec.base_point)
        print(f"  suggested base point: [{base}]")
        if spec.targets:
            targets = ", ".join(
                f"{k}={_format_value(v)}"
                for k, v in sorted(spec.targets.items()) if k != "provenance"
            )
            provenance = spec.targets.get("provenance", "unspecified")
            print(f"  targets [{provenance}]: {targets}")
        if spec.notes:
            print(f"  notes: {spec.notes}")
        print()
    return 0


def _cmd_crofton(args) -> int:
    from .catalog import spherical_region
    from .intgeom import MAX_MC_SAMPLES, crofton_verify

    if not 100 <= args.samples <= MAX_MC_SAMPLES:
        raise ConfigError("samples", f"must lie in [100, {MAX_MC_SAMPLES}]")
    if args.seed < 0:
        raise ConfigError("seed", "must be at least 0")
    region = spherical_region(args.region, angle=args.angle,
                              sectors=args.sectors)
    result = crofton_verify(region, samples=args.samples, seed=args.seed)
    print(f"region          {args.region}"
          + (f" (angle {args.angle:.6g})" if args.region == "cap" else ""))
    print(f"area integral   {result['lhs']:.9g}")
    print(f"line estimate   {result['rhs']:.9g}")
    print(f"gap             {result['gap']:.3e}")
    print(f"ci95            {result['ci95']:.3e}")
    print(f"samples         {result['samples']} (jittered {result['jittered']})")
    print("passed" if result["passed"] else "FAILED")
    return 0 if result["passed"] else 1


def main(argv=None) -> int:
    try:
        _pin_threads()
    except ConfigError as exc:
        print(f"config error at {exc.field}: {exc}", file=sys.stderr)
        return 2
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "report": _cmd_report,
        "catalog": _cmd_catalog,
        "crofton": _cmd_crofton,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error at {exc.field}: "
              f"{str(exc).removeprefix(exc.field + ': ')}", file=sys.stderr)
        return 2
    except Exception as exc:  # no input may end in a traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
