"""Invariants the degree ledger relies on: the group elements, the rows of
`SpectrumSlice.symmetry_signs`, are involutions that map the reference
records to critical points with the same energy and Morse index, so
`image_record` may carry a record's data over to its images, and
reconciliation does not depend on the order in which records reach the
ledger."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import neucrit as nc
from neucrit.records import DEDUP_RADIUS, GRAD_TOL

MODES = 16
SPECTRA = {
    "interval": nc.build_spectrum(nc.Domain("interval", (np.pi,), 512), MODES),
    "rectangle": nc.build_spectrum(nc.Domain("rectangle", (np.pi, 1.5)), MODES),
}
COEFFS = st.lists(st.floats(-1e3, 1e3), min_size=MODES, max_size=MODES).map(np.array)


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(sorted(SPECTRA)), row=st.integers(0, 7), c=COEFFS)
def test_mirror_is_an_involution(kind, row, c):
    """Every element of the symmetry group, a row of the sign table, is an
    involution and an H1 isometry."""
    signs = SPECTRA[kind].symmetry_signs(odd=True)
    sign = signs[row % len(signs)]
    once = sign * c
    assert np.array_equal(sign * once, c)
    assert SPECTRA[kind].h1_norm(once) == SPECTRA[kind].h1_norm(c)


@settings(max_examples=20, deadline=None)
@given(data=st.data(), mirror=st.booleans(), negate=st.booleans())
def test_images_of_reference_records_are_critical(reference_report, data, mirror, negate):
    """The reference f is odd and [0, pi] is symmetric, so a mirror image
    and a negation of a record are again critical points with its energy
    and Morse index."""
    func = reference_report.functional
    spec = func.spectrum
    assert func.nonlinearity.odd
    rec = data.draw(st.sampled_from(reference_report.records))
    image = spec.symmetry_signs(odd=True)[2 * negate + mirror] * rec.coeffs
    assert func.residual(image) <= GRAD_TOL
    assert abs(func.value(image) - rec.energy) <= 1e-12 * max(1.0, abs(rec.energy))
    assert func.morse_data(image)[2] == rec.morse_index


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_reconcile_ignores_insertion_order(reference_report, data):
    """The 13 reference records and copies of three of them a rounding step
    away give the same degree sum, deficiency, count and verdict in any
    order."""
    func = reference_report.functional
    spec = func.spectrum
    R = reference_report.ledger.R
    recs = list(reference_report.records)
    copies = [dataclasses.replace(r, coeffs=r.coeffs + DEDUP_RADIUS / 10.0 / spec.h1_norm(
        np.ones(MODES)), provenance={"stage": "copy"}) for r in recs[:3]]
    pool = recs + copies
    order = data.draw(st.permutations(range(len(pool))))

    def reconciled(indices):
        ledger = nc.DegreeLedger(spec.k, R, spec)
        for i in indices:
            ledger.add(dataclasses.replace(pool[i], local_degree=None))
        rep = ledger.reconcile(func)
        return rep.degree_sum, rep.deficiency, rep.counted, rep.balanced, len(ledger)

    expect = reconciled(range(len(pool)))
    assert expect == (1, 0, 13, True, 13)
    assert reconciled(order) == expect


def test_images_of_reference_records_keep_their_certificates(reference_report):
    """Every image of every reference record under the symmetry group is a
    critical point with the record's Hessian eigenvalues to 1e-12, so its
    certified Newton basin (`records.newton_radius`) is the record's.  The
    group is finite, so all of it is checked, not a sample."""
    func = reference_report.functional
    spec = func.spectrum
    signs = spec.symmetry_signs(func.nonlinearity.odd)
    assert len(signs) == 4
    for rec in reference_report.records:
        for sign in signs:
            image = sign * rec.coeffs
            assert func.residual(image) <= GRAD_TOL
            evals = func.morse_data(image)[0]
            assert np.max(np.abs(evals - rec.hessian_eigs)) <= 1e-12 * max(
                1.0, np.max(np.abs(rec.hessian_eigs)))


@pytest.mark.parametrize("domain", ["interval", "rectangle"])
def test_image_record_matches_the_record_built_at_the_image(reference_report, domain):
    """`image_record` of every reference and `rectangle` record under every
    group element agrees with `make_record` at the image: energy to 1e-12
    relative, Hessian eigenvalues to 1e-12, Newton radius to 1e-10
    relative, equal Morse index, degenerate flag and range, and both
    residuals within GRAD_TOL.  Its principal eigenfield is an eigenfield
    of the image's Hessian pencil."""
    if domain == "interval":
        report = reference_report
    else:
        cfg = nc.reference_config()
        cfg["domain"] = {"kind": "rectangle", "lengths": [np.pi, 1.5]}
        report = nc.run_pipeline(cfg)
    func = report.functional
    spec = func.spectrum
    signs = spec.symmetry_signs(func.nonlinearity.odd)
    assert len(signs) == (4 if domain == "interval" else 8)
    for rec in report.records:
        for sign in signs:
            image = nc.image_record(rec, sign)
            built = nc.make_record(func, sign * rec.coeffs, rec.classification, {})
            assert np.array_equal(image.coeffs, built.coeffs)
            assert abs(image.energy - built.energy) <= 1e-12 * max(1.0, abs(built.energy))
            assert np.max(np.abs(image.hessian_eigs - built.hessian_eigs)) <= 1e-12
            assert image.newton_radius == pytest.approx(built.newton_radius, rel=1e-10)
            assert (image.morse_index, image.degenerate) == (built.morse_index, built.degenerate)
            assert image.urange == built.urange
            assert image.is_constant() == built.is_constant()
            assert max(image.residual, built.residual) <= GRAD_TOL
            A, B = func.hessian_pencil(image.coeffs)
            v = image.principal_vec
            assert np.max(np.abs(A @ v - image.hessian_eigs[0] * (B @ v))) <= 1e-10


def test_certified_records_lie_in_the_ball(reference_report):
    """Every reference record has a certified Newton basin and a Sobolev
    norm of at most the ledger's R, so the degree count holds all of
    them."""
    func = reference_report.functional
    R = reference_report.ledger.R
    certified = [r for r in reference_report.records if nc.newton_radius(func, r) > 0.0]
    assert len(certified) == 13
    for rec in certified:
        assert rec.h1_norm <= R
        assert func.spectrum.h1_norm(rec.coeffs) <= R
