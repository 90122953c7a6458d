import json
import xml.etree.ElementTree as ET
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import neucrit as nc
import neucrit.pipeline as pipeline
import neucrit.solvers as solvers
from conftest import REMOVED_SETTINGS
from neucrit.energy import BLOCK_ELEMENTS
from neucrit.pipeline import (
    STAGES,
    reference_config,
    run_pipeline,
    validate_config,
)
from neucrit.records import GRAD_TOL
from neucrit.solvers import _images


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
        assert r.h1_norm < rep.stages["homotopy"]["bound"]


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
    assert rep.stages["homotopy"]["bound"] < rep.stages["homotopy"]["R"]
    assert rep.stages["multistart"]["passes"][-1]["deficiency"] == 0
    assert rep.stages["ledger"]["initial_reconciliation"]["deficiency"] != 0
    assert rep.stages["ledger"]["final_reconciliation"] == rep.ledger_report.to_dict()
    assert rep.deficiency == 0
    assert "total" in rep.timings
    assert rep.warnings == []


def test_reference_homotopy_samples_one_member(reference_report):
    """Only lam = 0, f itself, is searched: the closed-form bound B(0) =
    13.211 holds every member's solutions, and R = SAFETY_FACTOR x 7.208
    lies above it.  The base member holds the 13 points the stages before
    it found, with their group images, and the stage repeats for the same
    seed when a standalone call is passed the same points.  The block
    holds no per-member row."""
    h = reference_report.stages["homotopy"]
    assert set(h) == {"R", "max_norm", "M", "mode", "bound", "known", "n_found", "outcomes"}
    assert h["bound"] == pytest.approx(13.211, abs=1e-3) and h["bound"] < h["R"]
    assert h["R"] == solvers.SAFETY_FACTOR * h["max_norm"]
    assert h["max_norm"] == pytest.approx(7.208, abs=1e-3)
    assert h["known"] == len(reference_report.records) == 13
    f = reference_report.functional.nonlinearity
    alone = nc.homotopy_bound(f, reference_report.spectrum, reference_report.records)
    assert alone.to_dict() == h


def test_reference_multistart_closes_orbits_without_random_starts(reference_report):
    """The reference ledger balances after one orbit pass: the four group
    images the ledger lacks, refined, and no random chunk.  Each image is
    a new point, and the ledger holds its record.  The passes repeat for
    the same seed."""
    ms = reference_report.stages["multistart"]
    assert ms == {"passes": [{"kind": "orbit", "starts": 4, "added": 4, "deficiency": 0,
                              "outcomes": {"new": 4, "basin": 0, "failed": 0}}]}
    found = [r for r in reference_report.records if r.provenance["stage"] == "multistart"]
    assert len(found) == 4
    again = run_pipeline(reference_config()).stages["multistart"]
    assert again["passes"] == ms["passes"]


def test_start_outcomes_sum_to_the_starts(reference_report):
    """Every multistart call sorts its starts into new points, ends in a
    held point's basin, and failures.  The homotopy's starts are the zeros
    of f on the whole line and 6 first-mode seeds, and none of them fails;
    its points are the known ones it was passed and the new ones.  Every
    multistart pass reports its own starts.  The counts repeat for the
    same seed (`test_reference_homotopy_samples_one_member`)."""
    f = reference_report.functional.nonlinearity
    h = reference_report.stages["homotopy"]
    zeros = nc.find_zeros(f, -np.inf, np.inf)
    assert sum(h["outcomes"].values()) == len(zeros) + 6 == 11
    assert h["outcomes"]["new"] + h["known"] == h["n_found"]
    # the stage holds the 9 records the stages before it found and their 4
    # other images, so every seed ends in one of their basins
    assert h["outcomes"] == {"new": 0, "basin": 11, "failed": 0}
    for p in reference_report.stages["multistart"]["passes"]:
        assert sum(p["outcomes"].values()) == p["starts"]


def test_reference_search_counts(monkeypatch):
    """Evaluation counts are deterministic, so the reference run pins them:
    the sweeps of each truncated mountain pass and the energy, metric
    gradient, L2 gradient, Hessian and Morse data evaluations of the whole
    run, counted at the class since every stage builds its own functionals.
    An energy evaluation on the grid is one field, so "value" counts the
    rows of the batch method `values` with the calls of `value`, and
    "values" counts the batches; "bump_values" counts the closed-form
    energies of a first mountain-pass path and of the reduction's seed
    orbits, which evaluate no field.  A
    second run repeats them, and the reduction's orbit and refine counts
    with them."""
    counted = ("value", "gradient", "l2_gradient", "hessian_pencil", "morse_data",
               "bump_values")
    calls = Counter()

    def counting(name):
        method = getattr(nc.EnergyFunctional, name)

        def wrapper(self, *args):
            calls[name] += 1
            return method(self, *args)

        return wrapper

    batch = nc.EnergyFunctional.values

    def counting_rows(self, rows):
        calls["values"] += 1
        calls["value"] += len(rows)
        return batch(self, rows)

    for name in counted:
        monkeypatch.setattr(nc.EnergyFunctional, name, counting(name))
    monkeypatch.setattr(nc.EnergyFunctional, "values", counting_rows)
    runs = []
    for _ in range(2):
        calls.clear()
        rep = run_pipeline(reference_config())
        sweeps = [rep.stages[f"truncation_{kind}"]["transferred_record"]["iterations"]
                  for kind in ("below", "above", "interval")]
        red = rep.stages["reduction"]["provenance"]
        runs.append((sweeps, dict(calls), red["orbits"], red["refines"]))
    assert runs[0] == runs[1]
    # a transferred truncation record reuses the truncated record's Morse
    # data, so the two transfers assemble no Hessian; f is odd, so the
    # above stage runs no pass and builds no record: it takes the image
    # of the below saddle and evaluates only its residual; a root solve
    # that enters the Newton basin of a point its search already holds
    # stops there, and a mountain pass builds no record for a point it
    # dropped; the reduction bounds its orbits from above in closed form
    # (one `bump_values`), solves psi once per orbit that can still reach
    # its six best seeds and runs one root solve per orbit of those seeds,
    # each holding the records of the points the solves before it found
    # and of their group images, so only the first builds a record;
    # the homotopy searches f alone, holding the points found so far and
    # their images, so its seeds end in their basins and build no record,
    # and it draws no random start.  The orbit passes start from the image
    # records of the points the ledger holds; the four images that meet
    # GRAD_TOL at the first evaluation keep those records and build none.
    # Each pass starts from the wide path, whose energies are closed-form
    # (one `bump_values` per pass, no batch), and certifies its saddle from
    # its highest node after REDISTRIBUTE_EVERY sweeps, before any
    # redistribution, so it evaluates no batch.  The five records of the
    # constants stage read their energy, gradient and Morse data off one
    # scalar and assemble no Hessian
    assert runs[0] == ([5, 0, 5],
                       {"value": 26, "bump_values": 3,
                        "gradient": 19, "l2_gradient": 53,
                        "hessian_pencil": 14, "morse_data": 8},
                       28, 3)


def _record_of(report, kind):
    return next(r for r in report.records if r.provenance.get("kind") == kind)


def test_above_saddle_is_the_negated_below_saddle(ref5, reference_report):
    """f is odd, so the above stage runs no pass: its record is the image
    of the below saddle P under u -> -u (`image_record`), with P's energy,
    residual, norm, Hessian spectrum, Morse index and local degree bit for
    bit, P's principal eigenfield and range negated, and the residual of
    -P evaluated to meet GRAD_TOL.  It agrees with the transfer of the
    record the above truncation builds at -P to rounding."""
    spec, f, func = ref5
    stage = reference_report.stages["truncation_above"]
    assert stage["image_of"] == "truncation_below"
    assert "truncated_energy" not in stage
    below, above = _record_of(reference_report, "below"), _record_of(reference_report, "above")
    assert np.array_equal(np.array(stage["transferred_record"]["coeffs"]), above.coeffs)
    assert np.array_equal(above.coeffs, -below.coeffs)
    assert np.array_equal(above.principal_vec, -below.principal_vec)
    assert np.array_equal(above.hessian_eigs, below.hessian_eigs)
    for name in ("energy", "residual", "h1_norm", "morse_index", "degenerate",
                 "classification", "local_degree"):
        assert getattr(above, name) == getattr(below, name), name
    assert above.urange == (-below.urange[1], -below.urange[0])
    assert above.provenance == {"stage": "truncation_above", "kind": "above",
                                "anchors": [1.0], "image_of": "truncation_below"}
    assert above.iterations == 0
    assert func.residual(above.coeffs) <= GRAD_TOL
    tfunc = nc.EnergyFunctional(spec, nc.truncate(f, lo=1.0))
    moved = nc.transfer_to_original(nc.make_record(tfunc, -below.coeffs, "mp_type", {}),
                                    func, tfunc)
    assert moved.residual <= GRAD_TOL
    assert abs(above.energy - moved.energy) <= 1e-12 * abs(moved.energy)
    assert np.max(np.abs(above.hessian_eigs - moved.hessian_eigs)) <= 1e-12
    assert (above.morse_index, above.urange) == (moved.morse_index, moved.urange)


ASYMMETRIC = Path(__file__).resolve().parents[1] / "configs" / "five_zeros_asymmetric.json"


@pytest.mark.parametrize("case", ["not odd", "no below stage"])
def test_above_stage_runs_its_own_pass(case):
    """The above stage runs its own mountain pass when f is not odd (the
    top zero moved from 2.0 to 2.1) or when no below saddle is at hand."""
    if case == "not odd":
        cfg = json.loads(ASYMMETRIC.read_text())
        cfg["stages"] = ["truncation_below", "truncation_above"]
    else:
        cfg = reference_config()
        cfg["stages"] = ["truncation_above"]
    rep = run_pipeline(cfg)
    assert rep.ok, rep.errors
    stage = rep.stages["truncation_above"]
    assert "image_of" not in stage
    assert stage["transferred_record"]["iterations"] > 0
    prov = stage["transferred_record"]["provenance"]
    assert prov["kind"] == "above" and prov["transferred_from"].startswith("above(")
    assert stage["transferred_record"]["classification"] == "mp_type"


@pytest.mark.parametrize("seed", [7, 42, 3])
def test_shipped_asymmetric_config_balances(seed):
    """configs/five_zeros_asymmetric.json is the reference instance with
    its top zero at 2.1, so f is not odd; it balances with 13 records."""
    cfg = json.loads(ASYMMETRIC.read_text())
    cfg["solver"]["rng_seed"] = seed
    rep = run_pipeline(cfg)
    assert rep.ok, rep.errors
    assert not rep.functional.nonlinearity.odd
    assert rep.deficiency == 0
    assert len(rep.records) == 13
    assert sum(r.classification == "mp_type" for r in rep.records) == 3


@pytest.mark.parametrize("domain", [None, {"kind": "rectangle", "lengths": [np.pi, 1.5]}])
def test_batches_stay_within_the_block_cap(monkeypatch, domain):
    """No nonlinearity call of the reference run, on its interval and on
    the rectangle of the benchmark, sees more than BLOCK_ELEMENTS grid
    values, or one field's grid when that is larger: the batched energies
    of the mountain passes and the population solves of the reduction are
    cut into blocks, which keeps their temporaries, and with them the peak
    memory of a run, small."""
    config = reference_config()
    if domain is not None:
        config["domain"] = domain
    sizes = Counter()

    def counting(name):
        method = getattr(nc.Nonlinearity, name)

        def wrapper(self, t):
            sizes[name] = max(sizes[name], np.size(t))
            return method(self, t)

        return wrapper

    for name in ("__call__", "deriv", "primitive"):
        monkeypatch.setattr(nc.Nonlinearity, name, counting(name))
    rep = run_pipeline(config)
    assert rep.ok, rep.errors
    grid = rep.functional.spectrum.weights.size
    assert max(sizes.values()) <= max(BLOCK_ELEMENTS, grid)
    # the cap is reached, so the batches are in force
    assert sizes["primitive"] > grid


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
    # the count is stated once, in the ledger stage's final reconciliation;
    # the ledger block holds the ball and the records
    assert back["stages"]["ledger"]["final_reconciliation"]["balanced"] is True
    assert blob.count('"final_reconciliation"') == 1
    assert sorted(back["ledger"]) == ["R", "k", "records"]
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
    assert rep.skips["reduction"].startswith("ReductionInapplicable: gamma=")
    assert "reaches the complement spectrum" in rep.skips["reduction"]
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
    assert blob["stages"]["ledger"]["final_reconciliation"]["deficiency"] == 0
    with open(paths[1]) as fh:
        lines = fh.read().strip().splitlines()
    assert len(lines) == 14  # header + 13 records
    svg = ET.parse(paths[2]).getroot()
    assert svg.tag.endswith("svg")
    # one polyline per record plus the zero axis
    polys = [e for e in svg.iter() if e.tag.endswith("polyline")]
    assert len(polys) >= 13


def test_shipped_config_is_the_reference():
    """configs/five_zeros.json is the built-in instance written out, and
    configs/five_zeros_rectangle.json the same on [0, pi] x [0, 1.5] at the
    default grid."""
    configs = Path(__file__).resolve().parents[1] / "configs"
    assert (validate_config(json.loads((configs / "five_zeros.json").read_text()))
            == validate_config(reference_config()))
    rectangle = reference_config()
    rectangle["domain"] = {"kind": "rectangle", "lengths": [np.pi, 1.5]}
    assert (validate_config(json.loads((configs / "five_zeros_rectangle.json").read_text()))
            == validate_config(rectangle))


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

    # stage lists: unknown, empty or repeated names, and a stage without
    # the stage whose output it reads
    for stages, match in (
        (["constants", "warp_drive"], "unknown stages"),
        ([], "at least one stage"),
        (["constants", "reduction", "constants"], r"more than once: \['constants'\]"),
        (["constants", "ledger"], "'ledger' needs the 'homotopy' stage"),
        (["constants", "multistart"], "'multistart' needs the 'ledger' stage"),
        (["homotopy", "multistart"], "'multistart' needs the 'ledger' stage"),
    ):
        bad = reference_config()
        bad["stages"] = stages
        with pytest.raises(nc.ConfigError, match=match):
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


def test_modes_keep_whole_clusters():
    """A `modes` count that ends inside a cluster of equal eigenvalues is a
    ConfigError naming the nearest whole counts: on the square [0, pi]^2
    the 16th and 17th modes, (4, 0) and (0, 4), share the eigenvalue 16.
    15 and 17 modes keep it whole, and the rectangle [0, pi] x [0, 1.5]
    at 16 modes ends between clusters."""
    def rectangle(lengths, modes):
        cfg = reference_config()
        cfg["domain"] = {"kind": "rectangle", "lengths": lengths}
        cfg["modes"] = modes
        return cfg

    with pytest.raises(nc.ConfigError, match=r"modes=16 splits .* use modes=15 or 17"):
        validate_config(rectangle([np.pi, np.pi], 16))
    for modes in (15, 17):
        assert validate_config(rectangle([np.pi, np.pi], modes))["modes"] == modes
    assert validate_config(rectangle([np.pi, 1.5], 16))["modes"] == 16


def test_stage_subset_runs_partial():
    """The ledger counts on the homotopy's radius alone, so a stage list
    that names the ledger without the homotopy is a config error.  With it,
    the five constants are counted on R > B(0) = 13.211 and leave the
    ledger four degrees over; unequal tails leave no radius, and the ledger
    is skipped."""
    cfg = reference_config()
    for stages in (["constants", "ledger"], ["constants", "reduction", "ledger"]):
        cfg["stages"] = stages
        with pytest.raises(nc.ConfigError, match="'ledger' needs the 'homotopy' stage"):
            run_pipeline(cfg)
    cfg["stages"] = ["constants", "homotopy", "ledger"]
    rep = run_pipeline(cfg)
    assert rep.ok and rep.warnings == []
    assert "multistart" not in rep.stages
    h = rep.stages["homotopy"]
    assert rep.ledger.R == h["R"] > h["bound"]
    assert h["bound"] == pytest.approx(13.211, abs=1e-3)
    assert rep.deficiency == -4  # five +1 constants against global +1
    assert rep.stages["ledger"]["final_reconciliation"]["deficiency"] == -4
    cfg["nonlinearity"]["slope_plus_inf"] = 3.1
    rep = run_pipeline(cfg)
    assert rep.errors["homotopy"]["type"] == "AsymmetricSlopes"
    assert list(rep.skips) == ["ledger"] and rep.ledger is None


@pytest.mark.parametrize("end", ["no ledger", "unequal tails", "spectrum fails",
                                 "ledger fails"])
def test_every_run_times_its_total(end, monkeypatch):
    """A run that ends before the ledger's last reconciliation times its
    total as a full run does: a stage list without the ledger, unequal
    tails (no radius, the ledger skipped), a failed spectrum stage and a
    failed ledger stage.  The total holds every stage it timed."""
    cfg = reference_config()
    nl = cfg["nonlinearity"]
    if end == "no ledger":
        cfg["stages"] = ["reduction"]
    elif end == "unequal tails":
        nl["slope_plus_inf"] = 3.1
    elif end == "spectrum fails":
        nl["slope_minus_inf"] = nl["slope_plus_inf"] = 4.0
    else:
        def refuse(record, functional):
            raise nc.RangeEscape("refused")

        monkeypatch.setattr(pipeline, "qualitative_classify", refuse)
    rep = run_pipeline(cfg)
    stage_times = {k: v for k, v in rep.timings.items() if k != "total"}
    timed = {"no ledger": ["reduction"], "unequal tails": STAGES[:6],
             "spectrum fails": [], "ledger fails": STAGES[:7]}[end]
    assert sorted(stage_times) == sorted(["spectrum", *timed])
    assert rep.timings["total"] >= sum(stage_times.values())
    if end == "ledger fails":
        assert rep.errors["ledger"]["type"] == "RangeEscape"


def test_a_record_outside_R_fails_the_ledger_stage(monkeypatch):
    """A radius that misses a critical point bounds no count: with R forced
    to 5, below the reduction maximizer's norm 7.208, the ledger refuses
    that record and the ledger stage fails with a ValueError naming the
    norm and R, instead of counting the records inside."""
    monkeypatch.setattr(solvers, "search_radius", lambda bound, max_norm: 5.0)
    rep = run_pipeline(reference_config())
    assert rep.errors["ledger"]["type"] == "ValueError"
    assert "norm 7.208" in rep.errors["ledger"]["message"]
    assert "R = 5" in rep.errors["ledger"]["message"]
    assert "ledger" not in rep.stages and "multistart" not in rep.stages


def test_unequal_tails_state_no_count():
    """Unequal tails leave the coefficients without a closed-form bound, so
    the reduction and the homotopy fail and no radius exists.  The ledger
    and the multistart stage are skipped with that reason, and the report
    states no count."""
    cfg = reference_config()
    cfg["nonlinearity"]["slope_plus_inf"] = 3.1
    rep = run_pipeline(cfg)
    assert sorted(rep.errors) == ["homotopy", "reduction"]
    assert {e["type"] for e in rep.errors.values()} == {"AsymmetricSlopes"}
    assert sorted(rep.skips) == ["ledger", "multistart"]
    for reason in rep.skips.values():
        assert reason.startswith("no radius: the homotopy stage failed with AsymmetricSlopes")
    assert rep.ledger is None and rep.deficiency is None
    assert "ledger" not in rep.stages and "multistart" not in rep.stages
    assert "reconciliation" not in rep.to_json()
