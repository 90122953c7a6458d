import numpy as np
import pytest

import neucrit as nc
import neucrit.solvers as solvers
from neucrit.records import DEDUP_RADIUS, GRAD_TOL
from neucrit.solvers import PATH_NODES, SAFETY_FACTOR, dedup_records, mountain_pass, multistart

from conftest import REF5_KNOTS

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
    f_int = nc.truncate(f, -1.0, 1.0)
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
    f_lo = nc.truncate(f, hi=-1.0)
    rec = mountain_pass(nc.EnergyFunctional(spec, f_lo),
                        spec.constant_field(-1.0), spec.constant_field(-6.0))
    assert rec.classification == "mp_type"
    assert rec.energy == pytest.approx(WELL_SADDLE_J - TRANSFER_SHIFT, abs=2e-6)
    assert rec.urange[0] == pytest.approx(WELL_SADDLE_RANGE[0], abs=2e-4)
    assert rec.urange[1] == pytest.approx(WELL_SADDLE_RANGE[1], abs=2e-4)
    assert rec.h1_norm == pytest.approx(WELL_SADDLE_NORM, abs=2e-4)

    f_hi = nc.truncate(f, lo=1.0)
    rec2 = mountain_pass(nc.EnergyFunctional(spec, f_hi),
                         spec.constant_field(1.0), spec.constant_field(6.0))
    assert rec2.classification == "mp_type"
    assert rec2.energy == pytest.approx(WELL_SADDLE_J - TRANSFER_SHIFT, abs=2e-6)
    # mirror image of the lower well saddle
    assert rec2.urange[0] == pytest.approx(-WELL_SADDLE_RANGE[1], abs=2e-4)
    assert rec2.urange[1] == pytest.approx(-WELL_SADDLE_RANGE[0], abs=2e-4)


def test_mountain_pass_caches_node_energies(ref5):
    """The reference truncation_below pass evaluates J once per node after
    each redistribution, once per backtracking trial and once per refined
    candidate, not per node and sweep."""
    spec, f, _ = ref5

    class Counting(nc.EnergyFunctional):
        value_calls = 0

        def value(self, u):
            self.value_calls += 1
            return super().value(u)

    func = Counting(spec, nc.truncate(f, hi=-1.0))
    rec = mountain_pass(func, spec.constant_field(-1.0), spec.constant_field(-6.0))
    assert rec.classification == "mp_type"
    assert rec.iterations == 30
    assert func.value_calls == 331
    assert func.value_calls < PATH_NODES * rec.iterations


def test_mountain_pass_returns_first_certified_saddle(ref5, monkeypatch):
    """The reference truncation_below pass tries to certify a saddle from
    its highest node after every redistribution.  The attempts after sweeps
    5 to 25 land on an index-2 point, which does not end the pass; the one
    after sweep 30 is the well saddle, which does."""
    spec, f, _ = ref5
    finished = []
    finish_mp = solvers._finish_mp

    def kept(*args, **kwargs):
        finished.append(finish_mp(*args, **kwargs))
        return finished[-1]

    monkeypatch.setattr(solvers, "_finish_mp", kept)
    func = nc.EnergyFunctional(spec, nc.truncate(f, hi=-1.0))
    rec = mountain_pass(func, spec.constant_field(-1.0), spec.constant_field(-6.0))
    assert rec.classification == "mp_type" and rec.morse_index == 1
    assert rec.iterations == 30
    assert rec.energy == pytest.approx(WELL_SADDLE_J - TRANSFER_SHIFT, abs=2e-6)
    assert rec.urange[0] == pytest.approx(WELL_SADDLE_RANGE[0], abs=2e-4)
    assert rec.urange[1] == pytest.approx(WELL_SADDLE_RANGE[1], abs=2e-4)
    assert rec.h1_norm == pytest.approx(WELL_SADDLE_NORM, abs=2e-4)
    *dropped, last = finished
    assert last is rec
    assert [r.iterations for r in dropped] == [5, 10, 15, 20, 25]
    assert all(r.morse_index == 2 and r.classification == "other" for r in dropped)


class TrialPoints(nc.EnergyFunctional):
    """Keeps every point the L2 gradient and the Hessian are evaluated at."""

    def __init__(self, spectrum, nonlinearity):
        super().__init__(spectrum, nonlinearity)
        self.points = []
        self.hessian_points = []

    def l2_gradient(self, u):
        self.points.append(np.array(u, dtype=float))
        return super().l2_gradient(u)

    def hessian_pencil(self, u):
        self.hessian_points.append(np.array(u, dtype=float))
        return super().hessian_pencil(u)


def _distinct(points):
    return len({p.tobytes() for p in points}) == len(points)


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
    assert len(func.points) == 4
    assert _distinct(func.points)


def test_refine_critical_evaluates_each_point_once(ref5):
    """scipy checks the shapes of the gradient and the Jacobian at the
    start before MINPACK evaluates both there; neither is computed twice
    at one point of a solve."""
    spec, f, _ = ref5
    rng = np.random.default_rng(3)
    for start in solvers._random_ball_starts(spec, rng, 8, 8.0):
        func = TrialPoints(spec, f)
        assert nc.refine_critical(func, start) is not None
        assert np.array_equal(func.points[0], start)
        assert np.array_equal(func.hessian_points[0], start)
        assert _distinct(func.points) and _distinct(func.hessian_points)


def test_refine_critical_returns_exact_start(ref5):
    spec, f, _ = ref5
    func = TrialPoints(spec, f)
    start = spec.constant_field(1.0)
    u = nc.refine_critical(func, start)
    assert len(func.points) == 1
    assert np.array_equal(u, start)


def test_homotopy_bound_gradient_calls(ref5, solver_cfg, monkeypatch):
    """The sweep builds its own functionals, so count at the class.  Only
    lam = 0 is sampled: its max_norm exceeds B(0.5) and B(1)."""
    spec, f, _ = ref5
    calls = []
    l2_gradient = nc.EnergyFunctional.l2_gradient

    def counted(self, u):
        calls.append(1)
        return l2_gradient(self, u)

    monkeypatch.setattr(nc.EnergyFunctional, "l2_gradient", counted)
    nc.homotopy_bound(f, spec, [0.0, 0.5, 1.0], solver_cfg)
    assert len(calls) == 632


def test_homotopy_bound_builds_only_sampled_members(ref5, solver_cfg, monkeypatch):
    """Every member's bound is (1 - lam) C M of the base, so only the
    sampled members are built: 5 of the reference run's 11, and only
    lam = 0 of [0, 0.5, 1]."""
    spec, f, _ = ref5
    built = []

    def counted(g, lam):
        built.append(lam)
        return nc.homotopy(g, lam)

    monkeypatch.setattr(solvers, "homotopy", counted)
    cfg = nc.reference_config()
    cfg["stages"] = ["homotopy"]
    rows = nc.run_pipeline(cfg).stages["homotopy"]["per_lambda"]
    assert built == [row["lam"] for row in rows if row["sampled"]]
    assert len(built) == 5
    built.clear()
    nc.homotopy_bound(f, spec, [0.0, 0.5, 1.0], solver_cfg)
    assert built == [0.0]


def test_homotopy_bound_needs_exactly_equal_tails(ref5, solver_cfg):
    """Equal tails means equal slopes, the case in which M is finite; a
    difference of 1e-13 leaves M infinite and no member bound."""
    spec, _, _ = ref5
    near = nc.build_nonlinearity(REF5_KNOTS, 2.5, 2.5 + 1e-13)
    assert near.M == np.inf
    with pytest.raises(nc.AsymmetricSlopes):
        nc.homotopy_bound(near, spec, [0.0, 1.0], solver_cfg)
    with pytest.raises(nc.AsymmetricSlopes):
        nc.homotopy(near, 0.5)
    assert not nc.check_hypotheses(near, spec).symmetric_slopes


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
    apart = base.copy()
    apart[4] += 2.0 * DEDUP_RADIUS / spec.h1_norm(np.eye(spec.n_modes)[4])  # just outside it
    far = spec.constant_field(-2.0)
    recs = [
        nc.make_record(func, c, "constant", {"stage": "t"})
        for c in (near, base, far, apart)
    ]
    kept = dedup_records(spec, recs)
    assert len(kept) == 3
    # lowest energy representative survives, ordering deterministic
    assert [r.energy for r in kept] == sorted(r.energy for r in kept)
    assert all(a is b for a, b in zip(dedup_records(spec, recs[::-1]), kept))


def test_homotopy_bound_reference(ref5, solver_cfg):
    """The base member's widest orbit, norm 7.208, sets max_norm; the
    closed-form bounds B(0.5) = 6.606 and B(1) = 0 lie below it, so those
    members are skipped, and lam = 1 stays clean since B(1) = 0 leaves only
    u = 0.  Alone, [1.0] is sampled and finds only u = 0."""
    spec, f, func = ref5
    res = nc.homotopy_bound(f, spec, [0.0, 0.5, 1.0], solver_cfg)
    assert 7.0 < res.max_norm < 7.5
    assert res.R == pytest.approx(SAFETY_FACTOR * res.max_norm)
    assert res.M == f.M and res.mode == 2
    assert res.bound == pytest.approx(13.2111, abs=1e-4)
    base, half, linear = res.per_lambda
    assert base["sampled"] and base["max_norm"] == res.max_norm and base["bound"] == res.bound
    assert not half["sampled"] and half["bound"] == pytest.approx(6.606, abs=1e-3)
    assert not linear["sampled"] and linear["bound"] == 0.0
    assert half["n_found"] is half["max_norm"] is linear["n_found"] is linear["max_norm"] is None
    assert res.lambda_one_clean
    assert res.to_dict()["per_lambda"] == res.per_lambda
    # each bound is the member's own M times C, the constant of the closed form
    lam_j = spec.eigenvalues
    C = np.sqrt(spec.domain.measure * np.max((1.0 + lam_j) / (lam_j - 2.5) ** 2))
    for row in res.per_lambda:
        assert row["bound"] == pytest.approx(nc.homotopy(f, row["lam"]).M * C, rel=1e-14)

    (alone,) = nc.homotopy_bound(f, spec, [1.0], solver_cfg).per_lambda
    assert alone["sampled"] and alone["bound"] == 0.0
    assert alone["n_found"] == 1 and alone["max_norm"] < 1e-6


def test_homotopy_bound_preconditions(ref5, solver_cfg):
    spec, _, _ = ref5
    resonant = nc.build_nonlinearity([(0.0, -1.0)], 4.0, 4.0)
    with pytest.raises(nc.ResonantSlope):
        nc.homotopy_bound(resonant, spec, [0.0, 1.0], solver_cfg)
    lopsided = nc.build_nonlinearity([(0.0, -1.0)], 2.5, 3.1)
    with pytest.raises(nc.AsymmetricSlopes):
        nc.homotopy_bound(lopsided, spec, [0.0, 1.0], solver_cfg)
