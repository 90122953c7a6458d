import numpy as np
import pytest

import neucrit as nc
import neucrit.solvers as solvers
from neucrit.records import DEDUP_RADIUS, GRAD_TOL
from neucrit.solvers import PATH_NODES, SAFETY_FACTOR, dedup_records, mountain_pass, multistart

# frozen search outcomes for the reference problem, independently recomputed
# before the solvers were written (brute-force coefficient grids plus Newton)
WELL_SADDLE_J = -0.368210          # original-functional energy, outer wells
WELL_SADDLE_RANGE = (-2.5985, -1.0867)
WELL_SADDLE_NORM = 3.2856
MID_SADDLE_J = -0.246856           # interval truncation leaves J unchanged
MID_SADDLE_RANGE = (-0.7415, 0.7415)
MID_SADDLE_NORM = 1.3670
TRANSFER_SHIFT = 25.0 * np.pi / 24.0   # one-sided truncations shift J by this


def linear_functional(slope, n_modes=8):
    spec = nc.build_spectrum(nc.Domain("interval", (np.pi,)), n_modes)
    f = nc.build_nonlinearity([(0.0, slope)], slope, slope)
    return nc.EnergyFunctional(spec, f)


def test_find_constants(ref5):
    spec, f, func = ref5
    recs = nc.find_constants(func)
    assert len(recs) == 5
    assert [r.provenance["zero"] for r in recs] == [-2.0, -1.0, 0.0, 1.0, 2.0]
    for r in recs:
        assert r.classification == "constant"
        assert r.residual < 1e-12
        assert r.is_constant()
    by_zero = {r.provenance["zero"]: r for r in recs}
    assert by_zero[1.0].energy == pytest.approx(-11.0 * np.pi / 24.0, abs=1e-12)
    assert by_zero[-2.0].morse_index == 2
    assert by_zero[1.0].morse_index == 0


def test_minimize_descends_to_well(ref5):
    spec, f, func = ref5
    start = spec.constant_field(1.0)
    start[2] = 0.4
    trace = []
    rec = nc.minimize(func, start, trace=trace)
    assert rec.classification == "minimizer"
    assert rec.residual <= GRAD_TOL
    assert rec.energy == pytest.approx(-11.0 * np.pi / 24.0, abs=1e-10)
    assert np.all(np.diff(trace) <= 1e-12)  # energy never increases
    assert rec.iterations > 0


def test_minimize_zero_iterations_at_critical(ref5):
    spec, f, func = ref5
    rec = nc.minimize(func, spec.constant_field(1.0))
    assert rec.iterations == 0 and rec.classification == "minimizer"
    # a critical start that is a saddle is not called a minimizer
    rec2 = nc.minimize(func, spec.constant_field(0.0))
    assert rec2.iterations == 0 and rec2.classification == "other"


def test_minimize_builds_one_record(ref5, monkeypatch):
    """Each branch computes the Morse data once, inside make_record."""
    spec, f, func = ref5
    calls = []
    morse_data = nc.EnergyFunctional.morse_data

    def counted(self, *args):
        calls.append(1)
        return morse_data(self, *args)

    monkeypatch.setattr(nc.EnergyFunctional, "morse_data", counted)
    start = spec.constant_field(1.0)
    nc.minimize(func, start)
    start[2] = 0.4
    rec = nc.minimize(func, start)
    assert rec.classification == "minimizer" and rec.iterations > 0
    assert len(calls) == 2


def test_minimize_diverging_iterates():
    func = linear_functional(3.0)  # J = 1/2 sum (lam - 3) c^2, unbounded below
    start = np.zeros(8)
    start[0] = 0.1
    with pytest.raises(nc.DivergingIterates):
        nc.minimize(func, start, radius_guard=5.0)


def test_minimize_iteration_budget(ref5, monkeypatch):
    spec, f, func = ref5
    monkeypatch.setattr(solvers, "MAX_ITERS", 2)
    start = spec.constant_field(1.0)
    start[3] = 1.0
    with pytest.raises(nc.MaxItersExceeded):
        nc.minimize(func, start)


def test_mountain_pass_collapses_on_convex():
    func = linear_functional(-3.0)  # strictly convex energy, no barrier
    spec = func.spectrum
    with pytest.raises(nc.PathCollapse):
        mountain_pass(func, spec.constant_field(-1.0), spec.constant_field(1.0))


def test_mountain_pass_interval_saddle(ref5):
    spec, f, func = ref5
    f_int = nc.truncate_interval(f, -1.0, 1.0)
    func_int = nc.EnergyFunctional(spec, f_int)
    rec = mountain_pass(func_int, spec.constant_field(-1.0),
                        spec.constant_field(1.0))
    assert rec.classification == "mp_type"
    assert rec.morse_index == 1
    # the interval truncation agrees with f on [-1, 1] including primitives,
    # so this energy is already the original one
    assert rec.energy == pytest.approx(MID_SADDLE_J, abs=2e-6)
    assert rec.urange[0] == pytest.approx(MID_SADDLE_RANGE[0], abs=2e-4)
    assert rec.urange[1] == pytest.approx(MID_SADDLE_RANGE[1], abs=2e-4)
    assert rec.h1_norm == pytest.approx(MID_SADDLE_NORM, abs=2e-4)
    assert not rec.is_constant()
    assert rec.residual <= GRAD_TOL


def test_mountain_pass_outer_wells(ref5):
    spec, f, func = ref5
    f_lo = nc.truncate_below(f, -1.0)
    rec = mountain_pass(nc.EnergyFunctional(spec, f_lo),
                        spec.constant_field(-1.0), spec.constant_field(-6.0))
    assert rec.classification == "mp_type"
    assert rec.energy == pytest.approx(WELL_SADDLE_J - TRANSFER_SHIFT, abs=2e-6)
    assert rec.urange[0] == pytest.approx(WELL_SADDLE_RANGE[0], abs=2e-4)
    assert rec.urange[1] == pytest.approx(WELL_SADDLE_RANGE[1], abs=2e-4)
    assert rec.h1_norm == pytest.approx(WELL_SADDLE_NORM, abs=2e-4)

    f_hi = nc.truncate_above(f, 1.0)
    rec2 = mountain_pass(nc.EnergyFunctional(spec, f_hi),
                         spec.constant_field(1.0), spec.constant_field(6.0))
    assert rec2.classification == "mp_type"
    assert rec2.energy == pytest.approx(WELL_SADDLE_J - TRANSFER_SHIFT, abs=2e-6)
    # mirror image of the lower well saddle
    assert rec2.urange[0] == pytest.approx(-WELL_SADDLE_RANGE[1], abs=2e-4)
    assert rec2.urange[1] == pytest.approx(-WELL_SADDLE_RANGE[0], abs=2e-4)


def test_mountain_pass_caches_node_energies(ref5):
    """The reference truncation_below pass evaluates J once per node after
    each redistribution and once per backtracking trial, not per node and
    sweep."""
    spec, f, _ = ref5

    class Counting(nc.EnergyFunctional):
        value_calls = 0

        def value(self, u):
            self.value_calls += 1
            return super().value(u)

    func = Counting(spec, nc.truncate_below(f, -1.0))
    rec = mountain_pass(func, spec.constant_field(-1.0), spec.constant_field(-6.0))
    assert rec.classification == "mp_type"
    assert rec.iterations == 51
    assert func.value_calls == 511
    assert func.value_calls < PATH_NODES * rec.iterations


class TrialPoints(nc.EnergyFunctional):
    """Keeps every point the L2 gradient is evaluated at."""

    def __init__(self, spectrum, nonlinearity):
        super().__init__(spectrum, nonlinearity)
        self.points = []

    def l2_gradient(self, u):
        self.points.append(np.array(u, dtype=float))
        return super().l2_gradient(u)


def test_refine_critical_stops_at_first_converged_point(ref5):
    """The root solve returns the first trial point that meets grad_tol
    instead of iterating on past it."""
    spec, f, _ = ref5
    func = TrialPoints(spec, f)
    rng = np.random.default_rng(21)
    u0 = spec.constant_field(0.0) + 1e-3 * rng.standard_normal(spec.n_modes)
    u = nc.refine_critical(func, u0)
    assert np.array_equal(u, func.points[-1])
    assert func.residual(u) <= GRAD_TOL
    assert all(func.residual(p) > GRAD_TOL for p in func.points[:-1])
    assert len(func.points) == 6


def test_refine_critical_returns_exact_start(ref5):
    spec, f, _ = ref5
    func = TrialPoints(spec, f)
    start = spec.constant_field(1.0)
    u = nc.refine_critical(func, start)
    assert len(func.points) == 1
    assert np.array_equal(u, start)


def test_homotopy_bound_gradient_calls(ref5, solver_cfg, monkeypatch):
    """The sweep builds its own functionals, so count at the class."""
    spec, f, _ = ref5
    calls = []
    l2_gradient = nc.EnergyFunctional.l2_gradient

    def counted(self, u):
        calls.append(1)
        return l2_gradient(self, u)

    monkeypatch.setattr(nc.EnergyFunctional, "l2_gradient", counted)
    nc.homotopy_bound(f, spec, [0.0, 0.5, 1.0], solver_cfg)
    assert len(calls) == 1674


def test_multistart_builds_one_record_per_result(ref5, monkeypatch):
    spec, f, func = ref5
    built = []

    def counted(*args, **kwargs):
        built.append(1)
        return nc.make_record(*args, **kwargs)

    monkeypatch.setattr(solvers, "make_record", counted)
    recs = multistart(func, radius=3.0, budget=15, rng=np.random.default_rng(7))
    assert len(recs) > 0
    assert len(built) == len(recs)


def test_refine_critical_polishes(ref5):
    spec, f, func = ref5
    rng = np.random.default_rng(21)
    u0 = spec.constant_field(0.0) + 1e-3 * rng.standard_normal(spec.n_modes)
    u = nc.refine_critical(func, u0)
    assert u is not None
    assert func.residual(u) <= GRAD_TOL
    assert spec.h1_dist(u, spec.constant_field(0.0)) < 1e-6


def test_multistart_deterministic(ref5):
    spec, f, func = ref5
    a = multistart(func, radius=3.0, budget=15, rng=np.random.default_rng(7), descent=False)
    b = multistart(func, radius=3.0, budget=15, rng=np.random.default_rng(7), descent=False)
    assert len(a) == len(b) > 0
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.coeffs, rb.coeffs)
    for r in a:
        assert r.residual <= GRAD_TOL
    # deterministic ordering: energy ascending
    energies = [r.energy for r in a]
    assert energies == sorted(energies)


def test_multistart_finds_constants(ref5):
    spec, f, func = ref5
    seeds = [spec.constant_field(t) for t in (-2.0, -1.0, 0.0, 1.0, 2.0)]
    recs = multistart(func, radius=3.0, seeds=seeds, budget=0, rng=np.random.default_rng(7),
                      descent=False)
    assert len(recs) == 5
    assert all(r.classification == "constant" for r in recs)


def test_dedup_records(ref5):
    spec, f, func = ref5
    base = spec.constant_field(1.0)
    near = base.copy()
    near[4] += 1e-6  # inside the dedup ball
    far = spec.constant_field(-2.0)
    recs = [
        nc.make_record(func, c, "constant", {"stage": "t"})
        for c in (near, base, far)
    ]
    kept = dedup_records(spec, recs, DEDUP_RADIUS)
    assert len(kept) == 2
    # lowest energy representative survives, ordering deterministic
    assert kept[0].energy <= kept[1].energy


def test_homotopy_bound_reference(ref5, solver_cfg):
    spec, f, func = ref5
    res = nc.homotopy_bound(f, spec, [0.0, 0.5, 1.0], solver_cfg)
    assert res.lambda_one_clean
    assert res.per_lambda[-1][2] < 1e-6  # linear member has only u = 0
    # the widest orbit of the base member sets the radius
    assert 7.0 < res.max_norm < 7.5
    assert res.R == pytest.approx(SAFETY_FACTOR * res.max_norm)
    d = res.to_dict()
    assert len(d["per_lambda"]) == 3


def test_homotopy_bound_preconditions(ref5, solver_cfg):
    spec, _, _ = ref5
    resonant = nc.build_nonlinearity([(0.0, -1.0)], 4.0, 4.0)
    with pytest.raises(nc.ResonantSlope):
        nc.homotopy_bound(resonant, spec, [0.0, 1.0], solver_cfg)
    lopsided = nc.build_nonlinearity([(0.0, -1.0)], 2.5, 3.1)
    with pytest.raises(nc.AsymmetricSlopes):
        nc.homotopy_bound(lopsided, spec, [0.0, 1.0], solver_cfg)
