import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

import neucrit as nc
from neucrit import ledger
from neucrit.ledger import (
    DegreeLedger,
    local_degree,
    qualitative_classify,
    transfer_to_original,
)
from neucrit.records import GRAD_TOL, principal_simple_signdef

TRANSFER_SHIFT = 25.0 * np.pi / 24.0


@pytest.fixture(scope="module")
def interval_saddle(ref5):
    spec, f, _ = ref5
    f_int = nc.truncate(f, -1.0, 1.0)
    func_int = nc.EnergyFunctional(spec, f_int)
    rec = nc.mountain_pass(func_int, spec.constant_field(-1.0),
                           spec.constant_field(1.0))
    rec.provenance.update({"kind": "interval", "anchors": [-1.0, 1.0]})
    return rec, func_int


@pytest.fixture(scope="module")
def well_saddle(ref5):
    spec, f, _ = ref5
    f_lo = nc.truncate(f, hi=-1.0)
    func_lo = nc.EnergyFunctional(spec, f_lo)
    rec = nc.mountain_pass(func_lo, spec.constant_field(-1.0),
                           spec.constant_field(-6.0))
    rec.provenance.update({"kind": "below", "anchors": [-1.0]})
    return rec, func_lo


def fake(degenerate, classification, morse_index):
    return SimpleNamespace(degenerate=degenerate, classification=classification,
                           morse_index=morse_index, energy=0.0)


def test_local_degree_recipes():
    assert local_degree(fake(False, "other", 0), k=2) == 1
    assert local_degree(fake(False, "constant", 1), k=2) == -1
    assert local_degree(fake(False, "other", 2), k=2) == 1
    # degenerate points keep a degree only with a known signature
    assert local_degree(fake(True, "mp_type", 1), k=2) == -1
    assert local_degree(fake(True, "reduction_max", 2), k=2) == 1
    assert local_degree(fake(True, "reduction_max", 3), k=3) == -1
    with pytest.raises(nc.UnclassifiedDegenerate):
        local_degree(fake(True, "other", 1), k=2)
    with pytest.raises(nc.UnclassifiedDegenerate):
        local_degree(fake(True, "minimizer", 0), k=2)


def test_hess_kato_at_constants(ref5):
    spec, f, func = ref5
    rec = nc.make_record(func, spec.constant_field(-2.0),
                         "constant", {"stage": "t"})
    assert principal_simple_signdef(func, rec)
    # index-0 constant: no negative direction, the check does not apply
    rec1 = nc.make_record(func, spec.constant_field(1.0),
                          "constant", {"stage": "t"})
    assert not principal_simple_signdef(func, rec1)


def test_hess_kato_positive_definite_square():
    # on the square with f(t) = -2t every pencil eigenvalue is
    # (lam + 2)/(1 + lam) > 0, so there is no principal negative direction
    spec = nc.build_spectrum(nc.Domain("rectangle", (np.pi, np.pi)), 9)
    f = nc.build_nonlinearity([(0.0, -2.0)], -2.0, -2.0)
    func = nc.EnergyFunctional(spec, f)
    rec = nc.make_record(func, np.zeros(9), "constant", {"stage": "t"})
    assert np.all(rec.hessian_eigs > 0)
    assert not principal_simple_signdef(func, rec)


def test_hess_kato_simplicity_and_sign(ref5):
    spec, f, func = ref5
    rec = nc.make_record(func, spec.constant_field(-2.0),
                         "constant", {"stage": "t"})
    # near-double lowest pair: simplicity fails
    forged = dataclasses.replace(
        rec, hessian_eigs=np.array([-1.0, -1.0 + 1e-9, 0.5]))
    assert not principal_simple_signdef(func, forged)
    # sign-changing principal eigenfield: definiteness fails
    e1 = np.zeros(spec.n_modes)
    e1[1] = 1.0
    forged2 = dataclasses.replace(rec, principal_vec=e1)
    assert not principal_simple_signdef(func, forged2)


def test_qualitative_constant_vacuous(ref5):
    spec, f, func = ref5
    rec = nc.make_record(func, spec.constant_field(0.0),
                         "constant", {"stage": "t"})
    rep = qualitative_classify(rec, func)
    assert rep.passed
    assert rep.checks[0][0] == "constant"


def test_qualitative_interval_saddle(ref5, interval_saddle):
    _, _, func = ref5
    rec, _ = interval_saddle
    rep = qualitative_classify(rec, func)
    assert rep.passed
    names = [n for n, _, _ in rep.checks]
    assert names == ["f_at_max_positive", "f_at_min_negative", "interval_ordering"]
    d = rep.to_dict()
    assert d["passed"] and len(d["checks"]) == 3


def test_qualitative_ordering_failures(ref5, interval_saddle):
    _, _, func = ref5
    rec, _ = interval_saddle
    # a range sticking past the lower anchor breaks both the ordering and
    # the sign condition (f > 0 between -2 and -1)
    bad = dataclasses.replace(rec, urange=(-1.2, rec.urange[1]))
    rep = qualitative_classify(bad, func)
    assert not rep.passed
    results = {n: ok for n, ok, _ in rep.checks}
    assert not results["f_at_min_negative"]
    assert not results["interval_ordering"]


def test_qualitative_below_above_orderings(ref5, well_saddle):
    _, _, func = ref5
    rec, _ = well_saddle
    rep = qualitative_classify(rec, func)
    assert rep.passed
    assert any(n == "below_ordering" for n, _, _ in rep.checks)
    bad = dataclasses.replace(rec, urange=(rec.urange[0], -0.9))
    assert not qualitative_classify(bad, func).passed
    # above-kind ordering, forged from the mirror image
    spec = func.spectrum
    mirror = dataclasses.replace(
        rec, urange=(-rec.urange[1], -rec.urange[0]),
        provenance={**rec.provenance, "kind": "above", "anchors": [1.0]})
    assert qualitative_classify(mirror, func).passed


def test_transfer_interval_keeps_energy(ref5, interval_saddle):
    _, _, func = ref5
    rec, func_int = interval_saddle
    moved = transfer_to_original(rec, func, func_int)
    # the interval truncation has the same primitive on [-1, 1]
    assert moved.energy == pytest.approx(rec.energy, abs=1e-12)
    assert moved.residual <= GRAD_TOL
    assert moved.classification == rec.classification
    assert moved.provenance["transferred_from"] == "interval(-1,1)"
    assert np.array_equal(moved.coeffs, rec.coeffs)


def test_transfer_below_shifts_energy(ref5, well_saddle):
    _, _, func = ref5
    rec, func_lo = well_saddle
    moved = transfer_to_original(rec, func, func_lo)
    assert moved.energy - rec.energy == pytest.approx(TRANSFER_SHIFT, abs=1e-10)
    assert moved.morse_index == rec.morse_index
    assert moved.residual <= GRAD_TOL


def test_transfer_constant_at_anchor(ref5):
    spec, f, func = ref5
    f_lo = nc.truncate(f, hi=-1.0)
    func_lo = nc.EnergyFunctional(spec, f_lo)
    rec = nc.make_record(func_lo, spec.constant_field(-1.0),
                         "constant", {"stage": "t"})
    moved = transfer_to_original(rec, func, func_lo)
    assert moved.energy == pytest.approx(-11.0 * np.pi / 24.0, abs=1e-12)
    assert moved.residual < 1e-12


def test_transfer_range_escape(ref5, well_saddle, interval_saddle, monkeypatch):
    _, _, func = ref5
    well_rec, _ = well_saddle
    _, func_int = interval_saddle
    # the well saddle lives outside the interval truncation's coincidence region
    with pytest.raises(nc.RangeEscape):
        transfer_to_original(well_rec, func, func_int)
    # a tight margin rejects even the interval saddle
    int_rec, _ = interval_saddle
    monkeypatch.setattr(ledger, "RANGE_MARGIN", 0.3)
    with pytest.raises(nc.RangeEscape):
        transfer_to_original(int_rec, func, func_int)


def test_transfer_needs_coincidence_region(ref5):
    spec, f, func = ref5
    h = nc.homotopy(f, 0.5)  # blended member agrees with f nowhere specific
    func_h = nc.EnergyFunctional(spec, h)
    rec = nc.make_record(func_h, spec.constant_field(0.0),
                         "other", {"stage": "t"})
    with pytest.raises(nc.RangeEscape):
        transfer_to_original(rec, func, func_h)


@pytest.mark.parametrize("kind, lo, hi", [("below", None, -1.0), ("above", 1.0, None),
                                          ("interval", -1.0, 1.0)])
def test_transfer_equals_a_fresh_record(ref5, reference_report, kind, lo, hi):
    """On each reference truncation the transferred record is the record
    the original functional builds afresh, bit for bit: f and f' agree on
    the record's range, so the Morse data need not be assembled again."""
    spec, f, func = ref5
    coeffs = np.array(reference_report.stages[f"truncation_{kind}"]["transferred_record"]["coeffs"])
    tfunc = nc.EnergyFunctional(spec, nc.truncate(f, lo, hi))
    moved = transfer_to_original(nc.make_record(tfunc, coeffs, "mp_type", {"kind": kind}),
                                 func, tfunc)
    fresh = nc.make_record(func, coeffs, "mp_type", {})
    assert np.array_equal(moved.coeffs, fresh.coeffs)
    for name in ("energy", "residual", "h1_norm", "urange", "morse_index", "degenerate"):
        assert getattr(moved, name) == getattr(fresh, name), name
    assert np.array_equal(moved.hessian_eigs, fresh.hessian_eigs)
    assert np.array_equal(moved.principal_vec, fresh.principal_vec)
    assert moved.provenance == {"kind": kind, "transferred_from": tfunc.nonlinearity.label}


def test_ledger_dedup_and_upgrade(ref5):
    spec, f, func = ref5
    led = DegreeLedger(k=2, R=20.0, spectrum=spec)
    base = nc.make_record(func, spec.constant_field(0.0),
                          "constant", {"stage": "constants"})
    assert led.add(base) == "added as record 0"
    again = nc.make_record(func, spec.constant_field(0.0),
                           "other", {"stage": "multistart"})
    assert led.add(again) == "merged into record 0"
    assert led.records[0].classification == "constant"  # no downgrade
    assert any("also reached by stage multistart" in n for n in led.records[0].notes)
    upgrade = nc.make_record(func, spec.constant_field(0.0),
                             "reduction_max", {"stage": "reduction"})
    led.add(upgrade)
    assert led.records[0].classification == "reduction_max"
    assert any("upgraded" in n for n in led.records[0].notes)
    assert len(led) == 1


def test_ledger_constants_only_arithmetic(ref5):
    spec, f, func = ref5
    led = DegreeLedger(k=2, R=20.0, spectrum=spec)
    for rec in nc.find_constants(func):
        led.add(rec)
    rep = led.reconcile(func)
    # all five constants have even index, so each contributes +1
    assert rep.global_degree == 1
    assert rep.degree_sum == 5
    assert rep.deficiency == -4
    assert not rep.balanced
    assert "at least one undiscovered solution" in rep.message
    # every well lacks a nonconstant representative
    assert len(rep.suggestions) == 3
    assert all("seed multistart" in s for s in rep.suggestions)


def test_ledger_with_saddles_arithmetic(ref5, interval_saddle, well_saddle):
    spec, f, func = ref5
    led = DegreeLedger(k=2, R=20.0, spectrum=spec)
    for rec in nc.find_constants(func):
        led.add(rec)
    int_rec, func_int = interval_saddle
    well_rec, func_lo = well_saddle
    led.add(transfer_to_original(int_rec, func, func_int))
    led.add(transfer_to_original(well_rec, func, func_lo))
    rep = led.reconcile(func)
    assert rep.degree_sum == 3  # 5 - 2 saddles
    assert rep.deficiency == -2
    assert rep.counted == 7
    # index-1 records carry degree -1
    assert led.records[5].local_degree == -1
    # outer well covered now; the suggestions shrink
    assert 0 < len(rep.suggestions) < 3


def test_ledger_out_of_ball_excluded(ref5):
    spec, f, func = ref5
    led = DegreeLedger(k=2, R=1.0, spectrum=spec)
    inside = nc.make_record(func, spec.constant_field(0.0),
                            "constant", {"stage": "constants"})
    outside = nc.make_record(func, spec.constant_field(2.0),
                             "constant", {"stage": "constants"})
    led.add(inside)
    led.add(outside)
    assert led.records[0].in_ball and not led.records[1].in_ball
    assert led.flags and "outside the ball" in led.flags[0][1]
    rep = led.reconcile(func)
    assert rep.counted == 1
    assert rep.excluded_out_of_ball == [1]
    assert rep.degree_sum == 1
    assert rep.deficiency == 0 and rep.balanced


def test_ledger_flags_unclassified_degenerate(ref5):
    spec, f, func = ref5
    led = DegreeLedger(k=2, R=20.0, spectrum=spec)
    rec = nc.make_record(func, spec.constant_field(1.0),
                         "other", {"stage": "t"})
    led.add(dataclasses.replace(rec, degenerate=True))
    led.reconcile(func)
    rep = led.reconcile(func)
    assert rep.flagged and rep.flagged[0][0] == 0
    assert rep.counted == 0
    assert not rep.balanced  # flags block the balanced verdict
    assert led.records[0].local_degree is None
    # reconciling again reports the record once, not once per pass
    assert led.flags == [(0, "degenerate without signature; no degree")]


def test_ledger_serialization(ref5):
    spec, f, func = ref5
    led = DegreeLedger(k=2, R=20.0, spectrum=spec)
    for rec in nc.find_constants(func):
        led.add(rec)
    rep = led.reconcile(func)
    blob = led.to_json_dict(rep)
    assert len(blob["records"]) == 5
    assert blob["reconciliation"]["deficiency"] == -4
    csv_text = led.to_csv()
    lines = csv_text.strip().splitlines()
    assert len(lines) == 6
    assert lines[0].startswith("index,classification,energy")
    assert ",constant," in lines[1]
