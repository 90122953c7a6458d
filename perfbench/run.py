"""neucrit benchmark: time to a balanced ledger.

    python3 perfbench/run.py --workload interval --seed 3 --seconds 45 --trace 0

Run from anywhere inside a checkout of the repository; the package is
imported from the checkout's `src/`.  With `--trace 0` it prints the
end-to-end metrics: the median `run_pipeline` time in a warm process, the
set-up time of fresh interpreters and the peak memory of the solving
process.  With `--trace 1` it prints the per-layer metrics of a traced run.
Every solve is checked against the workload's golden records.  The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

SETUP_PROBES = 5
# a run ends this long after its measuring window at the latest
DEADLINE_MARGIN_S = 120.0
MIN_STAGE_COVERAGE = 0.95


def _units(section: str) -> dict:
    """Metric name to unit, for one section of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _last_json(script: str, args: list, deadline: float) -> dict:
    """Run a benchmark script in a fresh interpreter; parse its last line.
    The child is killed if it is still running at `deadline`."""
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise BenchError(f"no time left to run {script}")
    cmd = [sys.executable, str(HERE / script), *map(str, args)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{script} did not finish within {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{script} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def _check_trace(workload: str, out: dict) -> list:
    problems = []
    coverage = out["metrics"]["trace.stage_coverage"]
    if coverage < MIN_STAGE_COVERAGE:
        problems.append(f"stage spans cover {coverage:.3f} of the traced solve, "
                        f"below {MIN_STAGE_COVERAGE}")
    if workload == "interval":
        idle = [n for n, c in out["site_calls"].items() if c == 0]
        if idle:
            problems.append(f"wrapped sites saw no call: {idle}")
    if not out["counts_repeat"]:
        problems.append("per-layer counts differ between traced solves of one run")
    return problems


def measure(args) -> dict:
    """Everything one benchmark run measures, as a JSON-ready dict."""
    deadline = time.perf_counter() + args.seconds + DEADLINE_MARGIN_S
    if not (ROOT / "src" / "neucrit" / "__init__.py").is_file():
        raise BenchError(f"no neucrit package under {ROOT / 'src'}")
    worker_args = ["--workload", args.workload, "--seed", args.seed,
                   "--seconds", args.seconds, "--trace", args.trace]
    if args.trace:
        out = _last_json("worker.py", worker_args, deadline)
        problems = _check_trace(args.workload, out)
        metrics = out["metrics"]
    else:
        probes = [_last_json("probe.py", [args.workload, args.seed], deadline)
                  for _ in range(SETUP_PROBES)]
        out = _last_json("worker.py", worker_args, deadline)
        out["setup_times"] = [p["setup_s"] for p in probes]
        out["scaled_setup_times"] = [p["scaled_setup_s"] for p in probes]
        problems = []
        metrics = {
            "solve_s": statistics.median(out["scaled_solve_times"]),
            "setup_s": statistics.median(out["scaled_setup_times"]),
            "peak_rss_mb": out["peak_rss_mb"],
        }
    units = _units("per_layer" if args.trace else "end_to_end")
    out["problems"] = problems
    out["result"] = {
        "correct": not problems and not out["failures"],
        "attempted": out["attempted"],
        "failed": len(out["failures"]),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    return out


def _print_human(args, out):
    env = out["environment"]
    print(f"neucrit benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    res = out["result"]
    for name, m in res["metrics"].items():
        print(f"  {name:36s} {m['value']:<14.6g} {m['unit']}")
    if not args.trace:
        print(f"  wall time, unscaled: solve {statistics.median(out['solve_times']):.6g} s, "
              f"setup {statistics.median(out['setup_times']):.6g} s; reference loop "
              f"{statistics.median(out['reference_times']):.6g} s "
              f"(scaled to {speed.NOMINAL_S:.6g} s)")
    n = res["attempted"]
    print(f"  solves timed: {len(out['solve_times'])}"
          + (f" untraced, {len(out['traced_solve_times'])} traced" if args.trace else "")
          + (f"; set-up probes: {len(out['setup_times'])}" if not args.trace else ""))
    print(f"  fail_frac {res['failed'] / n:.4g} ({res['failed']} of {n} solves "
          f"failed the golden check)")
    for f in out["failures"]:
        print(f"  FAILED: {f}")
    for p in out["problems"]:
        print(f"  TRACE CHECK FAILED: {p}")
    if args.trace:
        print(f"  plots.render_profiles_s {out['render_profiles_s']:.6g} s "
              f"(interval domains only; part of pipeline.report_write_s)")
    for name in out.get("absent_sites", []):
        print(f"  absent site (not wrapped): {name}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="neucrit benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        out = measure(args)
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump(out, fh, indent=1)
    _print_human(args, out)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
