"""Command line entry points.

Subcommands mirror the pipeline stages: `spectrum` and `check` inspect the
discretization and the structural hypotheses, `solve` runs the search
stages, `reduce` the finite-dimensional reduction, `ledger` and `run` the
full bookkeeping.  `plot` re-renders profile SVGs from a saved report.

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
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config path (default: built-in reference instance)")
    common.add_argument("--out", help="output directory")
    common.add_argument("--seed", type=int, help="override solver rng seed")
    common.add_argument("--modes", type=int, help="override mode count")
    common.add_argument("--format", choices=("json", "csv"), default="json",
                        help="stdout format where applicable")
    common.add_argument("--stage", help="comma-separated stage subset "
                                        f"(of: {','.join(STAGES)})")
    common.add_argument("--strict", action="store_true",
                        help="exit 3 when the final deficiency is nonzero")

    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("spectrum", parents=[common],
                   help="print eigenvalues and the X/Y split")
    sub.add_parser("check", parents=[common],
                   help="audit the structural hypotheses")
    sub.add_parser("solve", parents=[common],
                   help="constants, truncated mountain passes, homotopy bound")
    sub.add_parser("reduce", parents=[common],
                   help="reduced-functional maximizer")
    sub.add_parser("ledger", parents=[common],
                   help="full run, report the degree ledger")
    sub.add_parser("run", parents=[common],
                   help="full pipeline, write report/summary/plots")
    plot = sub.add_parser("plot", parents=[common],
                          help="render profile SVG from a saved report")
    plot.add_argument("report", nargs="?", help="report.json path (or use --config)")
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
    if args.seed is not None:
        cfg.setdefault("solver", {})["rng_seed"] = args.seed
    if args.stage:
        cfg["stages"] = [s.strip() for s in args.stage.split(",") if s.strip()]
    return validate_config(cfg)


def _emit(args, payload: dict):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        import os

        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, f"{args.command}.json")
        with open(path, "w") as fh:
            fh.write(text)
        print(path)
    else:
        print(text)


def _cmd_spectrum(args, cfg) -> int:
    spec, _ = build_problem(cfg)
    if args.format == "json":
        _emit(args, spec.summary())
    else:
        print("index,eigenvalue,mode,block")
        for pair in spec.pairs:
            block = "X" if pair.index in set(spec.x_indices) else "Y"
            print(f"{pair.index},{pair.eigenvalue:.12g},"
                  f"{'x'.join(str(m) for m in pair.mode)},{block}")
    return 0


def _cmd_check(args, cfg) -> int:
    try:
        spec, f = build_problem(cfg)
    except NeucritError as e:
        _emit(args, {"error": {"type": type(e).__name__, "message": str(e)}})
        return 2
    _emit(args, check_hypotheses(f, spec).to_dict())
    return 0


def _run_stages(cfg, stage_list):
    cfg = dict(cfg)
    cfg["stages"] = stage_list
    return run_pipeline(cfg)


def _exit_code(args, report) -> int:
    if report.errors:
        return 2
    if args.strict and report.deficiency not in (0, None):
        return 3
    return 0


def _finish_run(args, report, payload) -> int:
    _emit(args, payload)
    return _exit_code(args, report)


def _cmd_solve(args, cfg) -> int:
    wanted = [s for s in ("constants", "truncation_below", "truncation_above",
                          "truncation_interval", "homotopy") if s in cfg["stages"]]
    report = _run_stages(cfg, wanted)
    d = report.to_dict()
    payload = {k: d[k] for k in ("hypotheses", "stages", "skips", "errors", "warnings")}
    return _finish_run(args, report, payload)


def _cmd_reduce(args, cfg) -> int:
    report = _run_stages(cfg, ["reduction"])
    if "reduction" in report.skips:
        _emit(args, {"error": {"type": "ReductionInapplicable",
                               "message": report.skips["reduction"]}})
        return 2
    d = report.to_dict()
    payload = {"reduction": d["stages"].get("reduction"),
               "errors": d["errors"], "warnings": d["warnings"]}
    return _finish_run(args, report, payload)


def _cmd_ledger(args, cfg) -> int:
    report = run_pipeline(cfg)
    if args.format == "csv" and report.ledger is not None:
        print(report.ledger.to_csv(), end="")
        return _exit_code(args, report)
    d = report.to_dict()
    payload = {"ledger": d["ledger"], "errors": d["errors"], "warnings": d["warnings"]}
    return _finish_run(args, report, payload)


def _cmd_run(args, cfg) -> int:
    report = run_pipeline(cfg)
    if args.out:
        paths = report.write(args.out)
        for p in paths:
            print(p)
    elif args.format == "csv" and report.ledger is not None:
        print(report.ledger.to_csv(), end="")
    else:
        print(report.to_json())
    return _exit_code(args, report)


def _cmd_plot(args, cfg) -> int:
    path = getattr(args, "report", None) or args.config
    if not path:
        print("error: plot needs a report path (positional or --config)",
              file=sys.stderr)
        return 1
    try:
        with open(path) as fh:
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
                in_ball=r.get("in_ball", True),
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
    "solve": _cmd_solve,
    "reduce": _cmd_reduce,
    "ledger": _cmd_ledger,
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
