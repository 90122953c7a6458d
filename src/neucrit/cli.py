"""Command line entry points.

`spectrum` and `check` inspect the discretization and the structural
hypotheses, `run` runs the pipeline (all of it, or the stages `--stage`
names) and `plot` re-renders profile SVGs from a saved report.

Exit codes: 0 success, 1 config/usage error, 2 stage failure, 3 unresolved
degree deficiency (only with --strict).
"""

from __future__ import annotations

import argparse
import json
import sys
from types import SimpleNamespace

import numpy as np

from ._version import __version__
from .errors import ConfigError, NeucritError
from .nonlinearity import check_hypotheses
from .pipeline import (
    STAGES,
    _jsonable,
    build_problem,
    reference_config,
    run_pipeline,
    validate_config,
)

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    p = _Parser(prog="neucrit",
                description="critical points of Neumann semilinear problems")
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)
    spectrum = sub.add_parser("spectrum", help="print eigenvalues and the X/Y split")
    check = sub.add_parser("check", help="audit the structural hypotheses")
    run = sub.add_parser("run", help="run the pipeline, print or write its report")
    for cmd in (spectrum, check, run):
        cmd.add_argument("--config", help="JSON config path (default: built-in reference instance)")
        cmd.add_argument("--modes", type=int, help="override mode count")
    run.add_argument("--seed", type=int, help="override solver rng seed")
    run.add_argument("--stage", help="comma-separated stage subset "
                                     f"(of: {','.join(STAGES)}); ledger needs "
                                     "homotopy, multistart needs ledger")
    spectrum.add_argument("--format", choices=("json", "csv"), default="json",
                          help="format of the eigenvalue table")
    run.add_argument("--format", choices=("json", "csv"), default="json",
                     help="stdout format: the report as JSON, or the ledger "
                          "table as CSV (needs the homotopy and ledger stages)")
    run.add_argument("--strict", action="store_true",
                     help="exit 3 when the final deficiency is nonzero")
    plot = sub.add_parser("plot", help="render profile SVG from a saved report")
    plot.add_argument("report", help="report.json path")
    for cmd in (spectrum, check, run, plot):
        cmd.add_argument("--out", help="output directory")
    return p


def _load_config(args) -> dict:
    if args.config:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except OSError as e:
            raise ConfigError(f"cannot read config: {e}")
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}")
    else:
        cfg = reference_config()
    if args.modes is not None:
        cfg["modes"] = args.modes
    if getattr(args, "seed", None) is not None:
        cfg.setdefault("solver", {})["rng_seed"] = args.seed
    if getattr(args, "stage", None) is not None:
        cfg["stages"] = [s.strip() for s in args.stage.split(",") if s.strip()]
    return validate_config(cfg)


def _emit(args, text: str, suffix: str = "json"):
    """Print `text`, or write it to `<out>/<command>.<suffix>` and print
    that path."""
    if args.out:
        import os

        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, f"{args.command}.{suffix}")
        with open(path, "w") as fh:
            fh.write(text)
        print(path)
    else:
        print(text, end="")


def _json(payload: dict) -> str:
    # RFC 8259 has no NaN or Infinity: non-finite floats print as null
    return json.dumps(_jsonable(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _cmd_spectrum(args, cfg) -> int:
    spec, _ = build_problem(cfg)
    if args.format == "json":
        _emit(args, _json(spec.summary()))
        return 0
    x_block = set(spec.x_indices)
    lines = ["index,eigenvalue,mode,block"]
    for pair in spec.pairs:
        lines.append(f"{pair.index},{pair.eigenvalue:.12g},"
                     f"{'x'.join(str(m) for m in pair.mode)},"
                     f"{'X' if pair.index in x_block else 'Y'}")
    _emit(args, "\n".join(lines) + "\n", "csv")
    return 0


def _cmd_check(args, cfg) -> int:
    try:
        spec, f = build_problem(cfg)
    except NeucritError as e:
        _emit(args, _json({"error": {"type": type(e).__name__, "message": str(e)}}))
        return 2
    _emit(args, _json(check_hypotheses(f, spec).to_dict()))
    return 0


def _cmd_run(args, cfg) -> int:
    if args.format == "csv" and "ledger" not in cfg["stages"]:
        print("error: --format csv prints the ledger table; add the homotopy and ledger stages",
              file=sys.stderr)
        return 1
    report = run_pipeline(cfg)
    if args.out:
        paths = report.write(args.out)
        for p in paths:
            print(p)
    elif args.format == "csv" and report.ledger is None:
        print(f"no ledger table: {report.skips.get('ledger') or report.errors}", file=sys.stderr)
    elif args.format == "csv":
        print(report.ledger.to_csv(), end="")
    else:
        print(report.to_json())
    if report.errors:
        return 2
    if args.strict and report.deficiency not in (0, None):
        return 3
    return 0


def _cmd_plot(args, cfg) -> int:
    try:
        with open(args.report) as fh:
            rep = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read report: {e}", file=sys.stderr)
        return 1
    try:
        spec, _ = build_problem(rep["config"])
        recs = [
            SimpleNamespace(
                coeffs=np.asarray(r["coeffs"], dtype=float),
                classification=r.get("classification", "other"),
                energy=r.get("energy", 0.0),
            )
            for r in (rep.get("ledger") or {}).get("records", [])
        ]
        from .plots import render_profiles

        svg = render_profiles(spec, recs)
    except (KeyError, TypeError, ValueError) as e:
        print(f"error: report not plottable: {e}", file=sys.stderr)
        return 2
    if args.out:
        import os

        os.makedirs(args.out, exist_ok=True)
        out_path = os.path.join(args.out, "profiles.svg")
        with open(out_path, "w") as fh:
            fh.write(svg)
        print(out_path)
    else:
        print(svg, end="")
    return 0


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "check": _cmd_check,
    "run": _cmd_run,
    "plot": _cmd_plot,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        if args.command == "plot":
            cfg = None  # plot reads a report, not a run config
        else:
            cfg = _load_config(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args, cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except NeucritError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
