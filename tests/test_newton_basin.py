"""Certified Newton basins: the constants behind their radius, the record
that carries it, the root solve that stops on entering one, and the
searches that hold them.

A zero x* with Hessian eigenvalues nu has the basin radius
r* = 2 min |nu| / (3 L), L = sup |f''| C, where C is the spectrum's
discrete Sobolev embedding constant (`records.newton_radius`).
"""

import dataclasses
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import neucrit as nc
import neucrit.solvers as solvers
from neucrit.records import GRAD_TOL

from conftest import REF5_KNOTS

BASE = nc.build_nonlinearity(REF5_KNOTS, 2.5, 2.5)
MEMBERS = [BASE, nc.truncate(BASE, None, -1.0), nc.truncate(BASE, 1.0, None),
           nc.truncate(BASE, -1.0, 1.0)]
SPECTRA = [
    nc.build_spectrum(nc.Domain("interval", (np.pi,), 512), 16),
    nc.build_spectrum(nc.Domain("rectangle", (np.pi, 1.5)), 16),
]
points = st.floats(-8.0, 8.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, len(MEMBERS)), st.floats(0.0, 1.0), points, points)
def test_curvature_bounds_the_slope_differences(which, lam, a, b):
    """|f'(a) - f'(b)| <= sup |f''| |a - b| for the base, its truncations
    and its homotopy members."""
    f = MEMBERS[which] if which < len(MEMBERS) else nc.homotopy(BASE, lam)
    gap = abs(float(f.deriv(a)) - float(f.deriv(b)))
    assert gap <= f.curvature * abs(a - b) * (1.0 + 1e-12) + 1e-12


def test_curvature_is_attained():
    """f'' is linear on each piece, so sampling every breakpoint from both
    sides reaches the sup; the affine member has none."""
    for f in MEMBERS + [nc.homotopy(BASE, 0.3)]:
        x = f.dppoly.x
        f2 = f.dppoly.derivative()
        sampled = np.max(np.abs(np.concatenate([f2(x[:-1]), f2(np.nextafter(x[1:], -np.inf))])))
        assert sampled == pytest.approx(f.curvature, rel=1e-12)
    assert nc.homotopy(BASE, 1.0).curvature == 0.0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 1), st.lists(st.floats(-1e3, 1e3, allow_nan=False),
                                   min_size=16, max_size=16))
@example(0, [0.0] * 15 + [1.4885892869765837e-297])
def test_embedding_bounds_the_grid_maximum(which, coeffs):
    """max_i |u(x_i)| <= C ||u||_H1 on the quadrature grid.  The example
    is a field whose squared coefficient underflows: its norm must not
    read 0."""
    spec = SPECTRA[which]
    u = np.array(coeffs)
    top = np.max(np.abs(spec.evaluate(u)))
    assert top <= spec.embedding_constant * spec.h1_norm(u) * (1.0 + 1e-12) + 1e-300


@pytest.mark.parametrize("spec", SPECTRA, ids=["interval", "rectangle"])
def test_embedding_is_attained(spec):
    """Equality holds at u_j = phi_j(x_i) / (1 + lam_j) for the grid point
    x_i of largest sum_j phi_j(x_i)^2 / (1 + lam_j), and the constant
    survives the split."""
    i = int(np.argmax(spec.basis**2 @ (1.0 / (1.0 + spec.eigenvalues))))
    u = spec.basis[i] / (1.0 + spec.eigenvalues)
    top = np.max(np.abs(spec.evaluate(u)))
    assert top == pytest.approx(spec.embedding_constant * spec.h1_norm(u), rel=1e-12)
    assert nc.split_spectrum(spec, 2.5).embedding_constant == spec.embedding_constant


def _ball_point(spec, center, radius, direction, fraction):
    d = np.asarray(direction, dtype=float)
    return center + fraction * radius * d / spec.h1_norm(d)


directions = st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=16, max_size=16).filter(
    lambda d: np.linalg.norm(d) > 1e-3)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 12), directions, st.floats(0.0, 0.99))
def test_newton_inside_the_radius_converges_to_the_record(reference_report, which,
                                                           direction, fraction):
    """Plain Newton from any point within r* of a reference record
    converges to that record."""
    func = reference_report.functional
    spec = func.spectrum
    rec = reference_report.records[which]
    radius = nc.newton_radius(func, rec)
    assert 0.0 < radius < np.inf
    u = _ball_point(spec, rec.coeffs, radius, direction, fraction)
    for _ in range(60):
        if func.residual(u) <= GRAD_TOL:
            break
        u = u - np.linalg.solve(func.hessian_pencil(u)[0], func.l2_gradient(u))
    assert func.residual(u) <= GRAD_TOL
    assert spec.h1_dist(u, rec.coeffs) < 1e-7


class CountingGradient(nc.EnergyFunctional):
    calls = 0

    def l2_gradient(self, u):
        self.calls += 1
        return super().l2_gradient(u)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 12), directions, st.floats(0.0, 0.99))
def test_refine_inside_a_basin_returns_the_held_zero(reference_report, which,
                                                     direction, fraction):
    """A start inside a held record's Newton basin returns that record's
    coefficients, never None, with no gradient evaluation."""
    spec = reference_report.spectrum
    func = CountingGradient(spec, reference_report.functional.nonlinearity)
    held = reference_report.records
    rec = held[which]
    u = nc.refine_critical(
        func, _ball_point(spec, rec.coeffs, rec.newton_radius, direction, fraction), held)
    assert u is rec.coeffs
    assert func.calls == 0


def test_seed_given_twice_is_one_record(ref5, monkeypatch):
    """The first copy of a seed finds the point; the second starts in its
    basin, so its root solve evaluates no gradient and adds no record."""
    spec, f, _ = ref5
    func = CountingGradient(spec, f)
    seed = spec.constant_field(0.0) + 1e-3 * np.sin(np.arange(spec.n_modes))
    per_solve = []
    refine = solvers.refine_critical

    def counted(*args):
        before = func.calls
        u = refine(*args)
        per_solve.append(func.calls - before)
        return u

    monkeypatch.setattr(solvers, "refine_critical", counted)
    recs, outcomes = nc.multistart(func, 3.0, seeds=[seed, seed], budget=0,
                                   rng=np.random.default_rng(0))
    assert len(recs) == 1 and recs[0].is_constant()
    assert outcomes == {"new": 1, "basin": 1, "failed": 0}
    assert per_solve[0] > 0 and per_solve[1] == 0


def test_affine_member_has_an_infinite_radius(ref5):
    """At lam = 1 the member is affine, L = 0, so the one zero's basin is
    the whole space: every start of a multistart ends there."""
    spec, f, _ = ref5
    func = nc.EnergyFunctional(spec, nc.homotopy(f, 1.0))
    zero = nc.make_record(func, np.zeros(spec.n_modes), "other", {})
    assert nc.newton_radius(func, zero) == np.inf
    recs, outcomes = nc.multistart(func, 8.0, budget=10, rng=np.random.default_rng(1))
    assert len(recs) == 1 and recs[0].h1_norm < 1e-9
    assert outcomes == {"new": 1, "basin": 9, "failed": 0}


def test_degenerate_record_has_no_basin(ref5):
    spec, f, func = ref5
    rec = nc.make_record(func, spec.constant_field(1.0), "constant", {})
    assert nc.newton_radius(func, rec) > 0.0
    assert nc.newton_radius(func, dataclasses.replace(rec, degenerate=True)) == 0.0


@pytest.mark.parametrize("domain", ["interval", "rectangle"])
def test_every_record_carries_its_radius(reference_report, domain):
    """Every record of the reference and `rectangle` runs carries the
    radius `newton_radius` gives it under the run's functional: the
    records it was built from, the transferred saddles and the group
    images alike."""
    if domain == "interval":
        report = reference_report
    else:
        cfg = nc.reference_config()
        cfg["domain"] = {"kind": "rectangle", "lengths": [np.pi, 1.5]}
        report = nc.run_pipeline(cfg)
    assert len(report.records) == 13
    for rec in report.records:
        assert rec.newton_radius == nc.newton_radius(report.functional, rec) > 0.0


def test_transferred_saddle_carries_the_original_radius():
    """A shape point at t = 3 bends f beyond the top zero: f'' reaches 19
    there, while the below and interval truncations end at -1 and 1 and
    keep the reference's 7.  Their saddles, transferred to f, carry the
    radius under f, 7/19 of the one under their truncation."""
    cfg = nc.reference_config()
    cfg["nonlinearity"]["shape_points"] = [[3.0, 4.0, 0.0]]
    rep = nc.run_pipeline(cfg)
    assert rep.ok, rep.errors
    f = rep.functional.nonlinearity
    spec = rep.spectrum
    windows = {"below": (None, -1.0), "interval": (-1.0, 1.0)}
    for kind, window in windows.items():
        (rec,) = [r for r in rep.records if r.provenance["stage"] == f"truncation_{kind}"]
        truncated = nc.EnergyFunctional(spec, nc.truncate(f, *window))
        assert truncated.nonlinearity.curvature == 7.0 < f.curvature == 19.0
        assert rec.provenance["transferred_from"] == truncated.nonlinearity.label
        assert rec.newton_radius == nc.newton_radius(rep.functional, rec) > 0.0
        assert rec.newton_radius == pytest.approx(
            7.0 / 19.0 * nc.newton_radius(truncated, rec), rel=1e-12)


def test_reference_solve_computes_ten_radii(monkeypatch):
    """A reference solve computes one Newton radius per record it builds,
    8 (the five constants, the below and interval saddles and the
    reduction maximizer), and one per transferred saddle, 2.  Every other
    held point reuses the radius its record carries: the above saddle and
    the orbit seeds are group images, and the ledger's records are held
    as they are."""
    calls = []
    radius = nc.newton_radius

    def counted(functional, record):
        calls.append(1)
        return radius(functional, record)

    for module in [m for name, m in sys.modules.items() if name.startswith("neucrit.")]:
        if getattr(module, "newton_radius", None) is radius:
            monkeypatch.setattr(module, "newton_radius", counted)
    rep = nc.run_pipeline(nc.reference_config())
    assert len(rep.records) == 13
    assert len(calls) == 10
