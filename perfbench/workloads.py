"""Benchmark workloads and the golden-record check.

Each workload is a full pipeline config built from keys the package keeps
(`domain`, `modes`, `nonlinearity`, `solver.rng_seed`, `stages: "all"`).
The benchmark seed reaches the program only as `solver.rng_seed`.

A solve passes the golden check when its report is error-free, its ledger
is balanced, and its records match the stored multiset on energy (1e-9
relative), Morse index and local degree.  The check leaves out the radius
R, stage names, classifications and provenance on purpose: a proven radius
or a leaner stage list changes those without changing the count.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

ENERGY_RTOL = 1e-9
# the constant solution u = 0 has energy 0 up to roundoff in the primitive
ENERGY_ATOL = 1e-12

_KNOTS = [[-2.0, 2.5], [-1.0, -3.0], [0.0, 2.5], [1.0, -3.0], [2.0, 2.5]]

WHY = {
    "interval": "the paper's instance: 16 modes on [0, pi], 512 points; "
                "call overhead dominates, so fewer evaluations show here",
    "rectangle": "[0, pi] x [0, 1.5] at the default 64 x 64 grid; per-point "
                 "transforms and nonlinearity dominate",
    "interval-m32": "the paper's instance at 32 modes on the same grid; dense "
                    "Hessian, eigh and Jacobian work gains share",
}


def config(workload: str, seed: int) -> dict:
    """Pipeline config of a workload; `seed` becomes solver.rng_seed."""
    domain = {"kind": "interval", "lengths": [math.pi], "quad_points": 512}
    modes = 16
    if workload == "rectangle":
        domain = {"kind": "rectangle", "lengths": [math.pi, 1.5]}
    elif workload == "interval-m32":
        modes = 32
    elif workload != "interval":
        raise ValueError(f"unknown workload {workload!r}")
    return {
        "modes": modes,
        "domain": domain,
        "nonlinearity": {
            "knots": [list(k) for k in _KNOTS],
            "slope_minus_inf": 2.5,
            "slope_plus_inf": 2.5,
            "blend_margin": 1.0,
        },
        "solver": {"rng_seed": int(seed)},
        "stages": "all",
    }


def summarize(report) -> list:
    """The compared fields of every record, sorted by energy."""
    return sorted(
        ({"energy": float(r.energy), "morse_index": int(r.morse_index),
          "local_degree": r.local_degree} for r in report.records),
        key=lambda d: d["energy"],
    )


def load_golden(workload: str) -> list:
    with open(GOLDEN_DIR / f"{workload}.json") as fh:
        return json.load(fh)["records"]


def compare_records(found: list, golden: list) -> list:
    """Mismatches between two record multisets, as readable lines."""
    problems = []
    if len(found) != len(golden):
        problems.append(f"{len(found)} records, golden has {len(golden)}")
    unmatched = list(golden)
    for rec in found:
        for i, g in enumerate(unmatched):
            if (math.isclose(rec["energy"], g["energy"], rel_tol=ENERGY_RTOL,
                             abs_tol=ENERGY_ATOL)
                    and rec["morse_index"] == g["morse_index"]
                    and rec["local_degree"] == g["local_degree"]):
                del unmatched[i]
                break
        else:
            problems.append(
                "unexpected record energy={energy!r} index={morse_index} "
                "degree={local_degree}".format(**rec))
    for g in unmatched:
        problems.append(
            "missing record energy={energy!r} index={morse_index} "
            "degree={local_degree}".format(**g))
    return problems


def check_report(report, golden: list) -> list:
    """Every reason this report fails the golden check; empty when it passes."""
    problems = []
    if not report.ok:
        problems.append(f"report has errors: {sorted(report.errors)}")
    if report.deficiency != 0:
        problems.append(f"ledger deficiency is {report.deficiency}, not 0")
    return problems + compare_records(summarize(report), golden)
