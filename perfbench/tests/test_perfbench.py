"""Checks of the benchmark itself: the tracer's arithmetic, the golden
check, and that traced counts repeat exactly for a fixed seed.

    python3 -m pytest perfbench/tests

The last two tests run the benchmark end to end on `interval` (about half
a minute together).
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
# per-layer metrics that count work and must repeat exactly for one seed
COUNTS = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "B")] + [
    "solvers.refine_critical.ok_ratio", "solvers.multistart.yield"]


def test_self_time_is_span_minus_children():
    tr = tracer.Tracer()

    def leaf():
        time.sleep(0.01)

    traced_leaf = tr.wrap(leaf, "leaf")

    def outer():
        traced_leaf()
        traced_leaf()
        time.sleep(0.01)

    tr.wrap(outer, tracer.ROOT)()
    sp = tr.spans()
    assert sp.calls("leaf") == 2 and sp.calls(tracer.ROOT) == 1
    assert sp.self_s(tracer.ROOT) == pytest.approx(
        sp.total(tracer.ROOT) - sp.total("leaf"), abs=1e-12)
    assert sp.calls_under(("leaf",), (tracer.ROOT,)) == 2


def test_absent_site_is_reported_not_fatal():
    tr = tracer.Tracer()
    tr.install([("solvers", "no_such_function", None)])
    tr.uninstall()
    assert tr.absent == ["solvers.no_such_function"] and not tr.installed


def test_sampler_scales_by_the_loop_on_both_sides():
    sampler = speed.Sampler()
    sampler.sample()
    sampler.sample()
    assert len(sampler.samples) == 2 * speed.SAMPLES
    assert sampler.scaled(1.0) == pytest.approx(speed.NOMINAL_S / sampler.reference())


def test_golden_check_names_the_differing_record():
    golden = workloads.load_golden("interval")
    found = [dict(r) for r in golden]
    found[0]["energy"] *= 1 + 1e-6
    problems = workloads.compare_records(found, golden)
    assert len(problems) == 2
    assert "unexpected record" in problems[0] and "missing record" in problems[1]
    assert workloads.compare_records([dict(r) for r in golden], golden) == []


def test_benchmark_json_workloads_are_defined():
    assert all(workloads.WHY[w["name"]] == w["why"] for w in SPEC["workloads"])


def _bench(*args):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_counts_repeat_for_a_seed():
    a = _bench("--workload", "interval", "--seed", "5", "--seconds", "1", "--trace", "1")
    b = _bench("--workload", "interval", "--seed", "5", "--seconds", "1", "--trace", "1")
    assert a["correct"] and b["correct"]
    assert {k: a["metrics"][k]["value"] for k in COUNTS} == {
        k: b["metrics"][k]["value"] for k in COUNTS}
    assert a["metrics"]["trace.stage_coverage"]["value"] >= run.MIN_STAGE_COVERAGE


def test_held_out_seed_matches_golden():
    res = _bench("--workload", "interval", "--seed", "2718", "--seconds", "1", "--trace", "0")
    assert res["correct"] and res["failed"] == 0
