"""Solve one workload repeatedly in one warm process and report the raw
measurements as a JSON object on the last line of standard output.

Started by run.py with the BLAS pin and import path already set; it is not
meant to be run by hand.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"


def _import_package():
    import neucrit

    src = (ROOT / "src").resolve()
    if src not in Path(neucrit.__file__).resolve().parents:
        raise SystemExit(f"neucrit was imported from {neucrit.__file__}, not from {src}")
    return neucrit


class Solver:
    """Runs solves and checks each one against the golden records."""

    def __init__(self, nc, workload, seed):
        self.nc = nc
        self.config = nc.validate_config(workloads.config(workload, seed))
        self.golden = workloads.load_golden(workload)
        self.attempted = 0
        self.failures = []
        self.last_report = None

    def solve(self, run=None) -> float:
        """Seconds for one run_pipeline call; a failed check is recorded."""
        run = run or self.nc.run_pipeline
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            report = run(self.config)
        except Exception:  # a crashing solve is a failed solve, not a crashed run
            elapsed = time.perf_counter() - t0
            self.failures.append(traceback.format_exc(limit=3))
            return elapsed
        elapsed = time.perf_counter() - t0
        problems = workloads.check_report(report, self.golden)
        if problems:
            self.failures.append("; ".join(problems))
        self.last_report = report
        return elapsed


def _fits(started, seconds, times) -> bool:
    """Whether one more traced pair of typical length ends inside the window."""
    return time.perf_counter() - started + statistics.median(times) <= seconds


def _warm_up(nc, seed):
    """One reference solve so lazy imports and allocator pools are settled."""
    nc.run_pipeline(nc.validate_config(workloads.config("interval", seed)))


def run_untraced(nc, args) -> dict:
    solver = Solver(nc, args.workload, args.seed)
    _warm_up(nc, args.seed)
    # solves start until the window has passed, so the sample count does
    # not flip with small speed changes when a solve is a large share of it
    started = time.perf_counter()
    times, scaled, refs = [], [], []
    while not times or time.perf_counter() - started < args.seconds:
        sampler = speed.Sampler()
        sampler.sample()
        elapsed = solver.solve()
        sampler.sample()
        times.append(elapsed)
        scaled.append(sampler.scaled(elapsed))
        refs.append(sampler.reference())
    return {
        "solve_times": times,
        "scaled_solve_times": scaled,
        "reference_times": refs,
        "attempted": solver.attempted,
        "failures": solver.failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_traced(nc, args) -> dict:
    import tracer as tr

    solver = Solver(nc, args.workload, args.seed)
    trace = tr.Tracer()
    traced_run = trace.wrap(nc.run_pipeline, tr.ROOT)
    _warm_up(nc, args.seed)
    started = time.perf_counter()
    plain, traced, per_solve = [], [], []
    while not traced or _fits(started, args.seconds, [a + b for a, b in zip(plain, traced)]):
        plain.append(solver.solve())
        lo = len(trace)
        trace.install()
        try:
            traced.append(solver.solve(traced_run))
        finally:
            trace.uninstall()
        per_solve.append(tr.solve_metrics(trace.spans(lo)))
    calls = tr.site_calls(trace.spans())

    # report writing: once per run, outside the timed solves
    lo = len(trace)
    OUT_DIR.mkdir(exist_ok=True)
    trace.install()
    try:
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
            if solver.last_report is not None:
                solver.last_report.write(tmp)
    finally:
        trace.uninstall()
    write = trace.spans(lo)
    for name, n in tr.site_calls(write).items():
        calls[name] = calls.get(name, 0) + n

    metrics = {k: statistics.median(s[k] for s in per_solve) for k in per_solve[0]}
    metrics["pipeline.report_write_s"] = write.total("pipeline.RunReport.write")
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    counts = [{k: v for k, v in s.items() if not k.endswith("_s")
               and k not in ("nonlinearity.us_per_point", "trace.stage_coverage")}
              for s in per_solve]
    trace.save(OUT_DIR / f"spans-{args.workload}.npz")
    return {
        "solve_times": plain,
        "traced_solve_times": traced,
        "attempted": solver.attempted,
        "failures": solver.failures,
        "metrics": metrics,
        # interval domains only, so not a metric; part of pipeline.report_write_s
        "render_profiles_s": write.total("plots.render_profiles"),
        "site_calls": {n: calls.get(n, 0) for n in trace.installed},
        "absent_sites": trace.absent,
        "counts_repeat": all(c == counts[0] for c in counts),
    }


def environment(nc) -> dict:
    import platform

    import numpy
    import scipy

    def blas(cfg):
        try:
            b = cfg["Build Dependencies"]["blas"]
            return f"{b['name']} {b['version']}"
        except (KeyError, TypeError):
            return "unknown"

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "neucrit": nc.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    nc = _import_package()
    out = run_traced(nc, args) if args.trace else run_untraced(nc, args)
    out["environment"] = environment(nc)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
