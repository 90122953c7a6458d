import json
import xml.etree.ElementTree as ET
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import neucrit as nc
import neucrit.solvers as solvers
from conftest import REMOVED_SETTINGS
from neucrit.pipeline import (
    STAGES,
    _images,
    reference_config,
    run_pipeline,
    validate_config,
)


def test_reference_run_balances(reference_report):
    rep = reference_report
    assert rep.ok, rep.errors
    assert rep.deficiency == 0
    assert rep.ledger_report.balanced
    assert len(rep.records) == 13
    by_class = Counter(r.classification for r in rep.records)
    assert by_class["constant"] == 5
    assert by_class["mp_type"] == 3
    assert by_class["reduction_max"] == 1
    nonconstant = [r for r in rep.records if not r.is_constant()]
    assert len(nonconstant) == 8
    for r in rep.records:
        assert r.residual <= 1e-9
        assert r.in_ball


def test_reference_run_energy_census(reference_report):
    """The thirteen solutions come in known energy levels with known
    multiplicities; reflections pair up every nonconstant one."""
    energies = sorted(r.energy for r in reference_report.records)
    expect = sorted(
        [0.0] * 3
        + [-11 * np.pi / 24] * 2
        + [-0.368210] * 4
        + [-0.246856] * 2
        + [6.667327] * 2
    )
    assert np.allclose(energies, expect, atol=2e-6)
    # degree arithmetic: 5 constants (+1), 6 index-1 saddles (-1),
    # 2 index-2 orbits (+1)
    degrees = Counter(r.local_degree for r in reference_report.records)
    assert degrees[1] == 7 and degrees[-1] == 6


def test_reference_run_stage_surface(reference_report):
    rep = reference_report
    assert rep.hypotheses.reduction_applicable
    assert rep.hypotheses.five_pattern
    for key in ("spectrum", "constants", "truncation_below", "truncation_above",
                "truncation_interval", "homotopy", "reduction", "ledger",
                "multistart"):
        assert key in rep.stages, key
    assert rep.stages["homotopy"]["lambda_one_clean"]
    assert rep.stages["multistart"]["final_deficiency"] == 0
    assert rep.stages["ledger"]["initial_reconciliation"]["deficiency"] != 0
    assert rep.stages["ledger"]["final_reconciliation"]["deficiency"] == 0
    assert "total" in rep.timings
    assert rep.warnings == []


def test_reference_homotopy_samples_five_members(reference_report):
    """lam = 0 ... 0.4 are sampled; from lam = 0.5 on the closed-form bound
    B(lam) lies below the largest norm sampled, so those six members are
    skipped with no count or norm.  The stage repeats for the same seed."""
    h = reference_report.stages["homotopy"]
    sampled = [row for row in h["per_lambda"] if row["sampled"]]
    skipped = [row for row in h["per_lambda"] if not row["sampled"]]
    assert len(sampled) == 5 and len(skipped) == 6
    assert max(row["lam"] for row in sampled) < min(row["lam"] for row in skipped)
    assert all(row["bound"] < h["max_norm"] for row in skipped)
    assert all(row["n_found"] is row["max_norm"] is row["outcomes"] is None for row in skipped)
    assert h["max_norm"] == max(row["max_norm"] for row in sampled)
    cfg = reference_config()
    cfg["stages"] = ["homotopy"]
    assert run_pipeline(cfg).stages["homotopy"] == h


def test_reference_multistart_closes_orbits_without_random_starts(reference_report):
    """The reference ledger balances after one orbit pass: the four group
    images the ledger lacks, refined, and no random chunk.  Each image is
    a new point.  The passes repeat for the same seed."""
    ms = reference_report.stages["multistart"]
    assert ms["passes"] == [{"kind": "orbit", "starts": 4, "added": 4, "deficiency": 0,
                             "outcomes": {"new": 4, "basin": 0, "failed": 0}}]
    assert ms["chunks"] == 0
    assert len(ms["last_chunk_found"]) == 4
    again = run_pipeline(reference_config()).stages["multistart"]
    assert again["passes"] == ms["passes"]


def test_start_outcomes_sum_to_the_starts(reference_report):
    """Every multistart call sorts its starts into new points, ends in a
    held point's basin, and failures.  A sampled homotopy member's starts
    are its zeros on the whole line, 6 first-mode seeds and HOMOTOPY_BUDGET
    random ones, and none of them fails; every multistart pass reports its
    own starts.  The counts repeat for the same seed
    (`test_reference_homotopy_samples_five_members`)."""
    f = reference_report.functional.nonlinearity
    rows = [r for r in reference_report.stages["homotopy"]["per_lambda"] if r["sampled"]]
    for row in rows:
        zeros = nc.find_zeros(nc.homotopy(f, row["lam"]), -np.inf, np.inf)
        assert sum(row["outcomes"].values()) == len(zeros) + 6 + solvers.HOMOTOPY_BUDGET
        assert row["outcomes"]["new"] == row["n_found"]
        assert row["outcomes"]["failed"] == 0
    # most starts of the base member end at a point it already holds
    assert rows[0]["outcomes"] == {"new": 12, "basin": 31, "failed": 0}
    for p in reference_report.stages["multistart"]["passes"]:
        assert sum(p["outcomes"].values()) == p["starts"]


def test_reference_search_counts(monkeypatch):
    """Evaluation counts are deterministic, so the reference run pins them:
    the sweeps of each truncated mountain pass and the energy, metric
    gradient, L2 gradient, Hessian and Morse data evaluations of the whole
    run, counted at the class since every stage builds its own functionals.
    A second run repeats them, and the reduction's orbit and ascent counts
    with them."""
    counted = ("value", "gradient", "l2_gradient", "hessian_pencil", "morse_data")
    calls = Counter()

    def counting(name):
        method = getattr(nc.EnergyFunctional, name)

        def wrapper(self, *args):
            calls[name] += 1
            return method(self, *args)

        return wrapper

    for name in counted:
        monkeypatch.setattr(nc.EnergyFunctional, name, counting(name))
    runs = []
    for _ in range(2):
        calls.clear()
        rep = run_pipeline(reference_config())
        sweeps = [rep.stages[f"truncation_{kind}"]["truncated_record"]["iterations"]
                  for kind in ("below", "above", "interval")]
        red = rep.stages["reduction"]["provenance"]
        runs.append((sweeps, dict(calls), red["orbits"], red["ascents"]))
    assert runs[0] == runs[1]
    # a transferred truncation record reuses the truncated record's Morse
    # data, so the three transfers assemble no Hessian; a root solve that
    # enters the Newton basin of a point its search already holds stops
    # there, and a mountain pass builds no record for a point it dropped;
    # no homotopy start lies on the line of constant fields off the zeros,
    # and the reduction solves psi once per orbit and ascends once per
    # orbit of its six best seeds
    assert runs[0] == ([30, 25, 40],
                       {"value": 1047, "gradient": 150, "l2_gradient": 1585,
                        "hessian_pencil": 338, "morse_data": 55},
                       28, 3)


def test_images_close_the_symmetry_group():
    """On a rectangle with odd f a point has 7 images besides itself: the
    mirrors across axis 0, axis 1 and both, then -u and its three mirrors.
    They are pairwise distinct and share its H1 norm.  On an interval with
    a non-odd f the mirror is the only one."""
    rng = np.random.default_rng(11)
    rect = nc.build_spectrum(nc.Domain("rectangle", (np.pi, 1.5)), 9)
    c = rng.standard_normal(9)
    images = _images(rect, c, odd=True)
    assert len(images) == 7
    points = [c, *images]
    for i, a in enumerate(points):
        assert rect.h1_norm(a) == pytest.approx(rect.h1_norm(c), rel=1e-14)
        for b in points[i + 1:]:
            assert rect.h1_dist(a, b) > 1e-3
    flip = 1.0 - 2.0 * rect.parity  # sign of each mode under each axis mirror
    assert np.array_equal(images[2], flip[:, 0] * flip[:, 1] * c)
    assert np.array_equal(images[3], -c)

    line = nc.build_spectrum(nc.Domain("interval", (np.pi,)), 9)
    (only,) = _images(line, c, odd=False)
    assert np.array_equal(only, (1.0 - 2.0 * line.parity[:, 0]) * c)


def test_reference_run_report_dict(reference_report):
    d = reference_report.to_dict()
    # round-trips through json
    blob = json.dumps(d)
    back = json.loads(blob)
    assert back["schema_version"] == 1
    assert back["ledger"]["reconciliation"]["balanced"] is True
    assert len(back["ledger"]["records"]) == 13
    assert back["hypotheses"]["k"] == 2


def test_linear_instance_collapses_to_zero():
    cfg = reference_config()
    cfg["nonlinearity"] = {
        "knots": [[0.0, 2.5]],
        "slope_minus_inf": 2.5,
        "slope_plus_inf": 2.5,
    }
    rep = run_pipeline(cfg)
    assert rep.ok, rep.errors
    assert "truncation_below" in rep.skips and "truncation_interval" in rep.skips
    assert len(rep.records) == 1
    assert rep.records[0].h1_norm < 1e-9
    # the reduction maximizer lands on the same point and upgrades the label
    assert rep.records[0].classification == "reduction_max"
    assert rep.deficiency == 0 and rep.ledger_report.balanced


def test_steep_instance_skips_reduction():
    cfg = reference_config()
    cfg["nonlinearity"] = {
        "knots": [[0.0, 6.0]],
        "slope_minus_inf": 2.5,
        "slope_plus_inf": 2.5,
    }
    cfg["stages"] = ["constants", "homotopy", "reduction", "ledger"]
    rep = run_pipeline(cfg)
    assert "reduction" in rep.skips
    assert rep.skips["reduction"].startswith("ReductionInapplicable")
    assert "reduction" not in rep.stages
    assert not rep.hypotheses.reduction_applicable


def test_resonant_slope_fails_spectrum_stage():
    cfg = reference_config()
    cfg["nonlinearity"]["slope_minus_inf"] = 4.0
    cfg["nonlinearity"]["slope_plus_inf"] = 4.0
    rep = run_pipeline(cfg)
    assert not rep.ok
    assert rep.errors["spectrum"]["type"] == "ResonantSlope"
    assert "constants" not in rep.stages


def test_deterministic_reruns(reference_report):
    rep2 = run_pipeline(reference_config())
    a = reference_report.to_dict()
    b = rep2.to_dict()
    a.pop("timings")
    b.pop("timings")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_report_write(tmp_path, reference_report):
    paths = reference_report.write(str(tmp_path))
    assert [p.split("/")[-1] for p in paths] == [
        "report.json", "summary.csv", "profiles.svg"]
    with open(paths[0]) as fh:
        blob = json.load(fh)
    assert blob["ledger"]["reconciliation"]["deficiency"] == 0
    with open(paths[1]) as fh:
        lines = fh.read().strip().splitlines()
    assert len(lines) == 14  # header + 13 records
    svg = ET.parse(paths[2]).getroot()
    assert svg.tag.endswith("svg")
    # one polyline per record plus the zero axis
    polys = [e for e in svg.iter() if e.tag.endswith("polyline")]
    assert len(polys) >= 13


def test_shipped_config_is_the_reference():
    """configs/five_zeros.json is the built-in instance written out."""
    path = Path(__file__).resolve().parents[1] / "configs" / "five_zeros.json"
    assert validate_config(json.loads(path.read_text())) == validate_config(reference_config())


def test_validate_config_errors():
    good = reference_config()
    assert validate_config(good)["stages"] == list(STAGES)

    bad = reference_config()
    bad["bogus"] = 1
    with pytest.raises(nc.ConfigError, match="unknown config keys"):
        validate_config(bad)

    bad = reference_config()
    bad["solver"]["not_a_knob"] = 3
    with pytest.raises(nc.ConfigError, match="unknown keys in section"):
        validate_config(bad)

    bad = reference_config()
    bad["schema_version"] = 99
    with pytest.raises(nc.ConfigError, match="schema_version"):
        validate_config(bad)

    bad = reference_config()
    bad["modes"] = 1
    with pytest.raises(nc.ConfigError, match="at least 2"):
        validate_config(bad)

    bad = reference_config()
    bad["domain"]["quad_points"] = 8
    with pytest.raises(nc.ConfigError, match="anti-aliasing"):
        validate_config(bad)

    bad = reference_config()
    del bad["nonlinearity"]["slope_plus_inf"]
    with pytest.raises(nc.ConfigError, match="slope_plus_inf"):
        validate_config(bad)

    bad = reference_config()
    bad["nonlinearity"]["knots"] = [[0.0, 1.0, 2.0]]
    with pytest.raises(nc.ConfigError, match="bad knot entry"):
        validate_config(bad)

    bad = reference_config()
    bad["stages"] = ["constants", "warp_drive"]
    with pytest.raises(nc.ConfigError, match="unknown stages"):
        validate_config(bad)

    bad = reference_config()
    bad["domain"]["kind"] = "disk"
    with pytest.raises(nc.ConfigError, match="domain.kind"):
        validate_config(bad)

    with pytest.raises(nc.ConfigError):
        validate_config("not a dict")

    # values of the wrong type or shape, and keys that no setting reads
    for section, key, value, match in (
        ("domain", "quad_points", "x", "quad_points"),
        ("domain", "lengths", [np.pi, 1.0], "length"),
        ("solver", "rng_seed", "abc", "rng_seed"),
        ("solver", "multistart_budget", 1.5, "multistart_budget"),
        (None, "modes", True, "modes"),
        ("ledger", "degeneracy_tol", 1e-7, "unknown config keys"),
        ("ledger", "simplicity_tol", 1e-6, "unknown config keys"),
        ("ledger", "dedup_radius", 1e-4, "unknown config keys"),
        ("reduction", "grid_radius", 10.0, "unknown config keys"),
        (None, "output", {"dir": "out"}, "unknown config keys"),
        # every former setting is an unknown key now
        *((section, key, 1, f"unknown keys in section 'solver': \\['{key}'\\]"
           if section == "solver" else f"unknown config keys: \\['{section}'\\]")
          for section, key in REMOVED_SETTINGS),
    ):
        bad = reference_config()
        (bad.setdefault(section, {}) if section else bad)[key] = value
        with pytest.raises(nc.ConfigError, match=match):
            validate_config(bad)


def test_stage_subset_runs_partial():
    cfg = reference_config()
    cfg["stages"] = ["constants", "ledger"]
    rep = run_pipeline(cfg)
    assert rep.ok
    assert "multistart" not in rep.stages
    # no homotopy stage: fallback radius with a warning
    assert any("fallback R" in w for w in rep.warnings)
    assert rep.deficiency == -4  # five +1 constants against global +1
