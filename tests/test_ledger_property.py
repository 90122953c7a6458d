"""Invariants the degree ledger relies on: the group elements, the rows of
`SpectrumSlice.symmetry_signs`, are involutions that map the reference
records to critical points with the same energy and Morse index, and
reconciliation does not depend on the order in which records reach the
ledger."""

import dataclasses

import numpy as np
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
    """The 13 reference records, copies of three of them a rounding step
    away, and one record outside the ball give the same degree sum,
    deficiency, count and verdict in any order."""
    func = reference_report.functional
    spec = func.spectrum
    R = reference_report.ledger.R
    recs = list(reference_report.records)
    copies = [dataclasses.replace(r, coeffs=r.coeffs + DEDUP_RADIUS / 10.0 / spec.h1_norm(
        np.ones(MODES)), provenance={"stage": "copy"}) for r in recs[:3]]
    far = max(recs, key=lambda r: r.h1_norm)
    outside = dataclasses.replace(far, coeffs=far.coeffs * (2.0 * R / far.h1_norm))
    pool = recs + copies + [outside]
    order = data.draw(st.permutations(range(len(pool))))

    def reconciled(indices):
        ledger = nc.DegreeLedger(spec.k, R, spec)
        for i in indices:
            ledger.add(dataclasses.replace(pool[i], in_ball=True, local_degree=None))
        rep = ledger.reconcile(func)
        return rep.degree_sum, rep.deficiency, rep.counted, rep.balanced, len(ledger)

    expect = reconciled(range(len(pool)))
    assert expect == (1, 0, 13, True, 14)
    assert reconciled(order) == expect
