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


@pytest.mark.parametrize("middle_slope, indices", [(2.5, [2, 0, 2, 0, 2]),
                                                  (0.5, [2, 0, 1, 0, 2])])
def test_constant_morse_index_is_crossing_count(ref5, middle_slope, indices):
    """At a constant alpha the Hessian is diag(lam_j - f'(alpha)), so the
    Morse index counts the eigenvalues below f'(alpha): the zero's
    crossing count, and 0 at a minimum-type zero.  A middle slope of 0.5
    (the flip instance) lies between the eigenvalues 0 and 1."""
    spec, _, _ = ref5
    knots = [(t, middle_slope if t == 0.0 else s) for t, s in REF5_KNOTS]
    f = nc.build_nonlinearity(knots, 2.5, 2.5)
    recs = nc.find_constants(nc.EnergyFunctional(spec, f))
    zeros = nc.check_hypotheses(f, spec).zeros
    assert [r.morse_index for r in recs] == indices
    for rec, z in zip(recs, zeros, strict=True):
        assert not rec.degenerate
        assert rec.morse_index == (z.crossing_count if z.kind == "crossing" else 0)


def test_mountain_pass_sweep_budget(ref5, monkeypatch):
    """MAX_ITERS bounds the sweeps; the outer-well pass certifies its saddle
    at its first redistribution, after 5 sweeps, so a budget of 3 runs out
    before it."""
    spec, f, _ = ref5
    monkeypatch.setattr(solvers, "MAX_ITERS", 3)
    func = nc.EnergyFunctional(spec, nc.truncate(f, None, -1.0))
    with pytest.raises(nc.MaxItersExceeded):
        mountain_pass(func, spec.constant_field(-1.0), spec.constant_field(-6.0))


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


@pytest.mark.parametrize("lo, hi, end", [(-1.0, 1.0, 1.0), (None, -1.0, -6.0)],
                         ids=["interval", "below"])
def test_mountain_pass_uncertified_exit(ref5, monkeypatch, lo, hi, end):
    """With the mountain-pass shape check failing at every attempt, no
    refined point ends a pass early, so the reference's interval and below
    passes leave through the exit without the certificate (a node residual
    <= 1e-4, or 50 sweeps without residual progress), 130 and 73 sweeps
    in.  Each returns its
    refined highest node as an "other" record of index 1 with the shape
    check's note, within the sweep budget."""
    spec, f, _ = ref5
    monkeypatch.setattr(solvers, "principal_simple_signdef", lambda *args: False)
    func = nc.EnergyFunctional(spec, nc.truncate(f, lo, hi))
    rec = mountain_pass(func, spec.constant_field(hi if lo is None else lo),
                        spec.constant_field(end))
    assert rec.classification == "other"
    assert rec.morse_index == 1
    assert rec.notes == ("saddle of index 1 failed the mountain-pass shape check",)
    assert rec.residual <= GRAD_TOL
    assert 0 < rec.iterations < solvers.MAX_ITERS


def test_mountain_pass_caches_node_energies(ref5):
    """The reference truncation_below pass evaluates J once per node at the
    start, once per interior node after each redistribution (the endpoints
    never move), once per backtracking trial and once per refined candidate
    outside the basins of the points it dropped, not per node and sweep.
    The start path's node energies are closed-form, one `bump_values` call,
    and those after a redistribution come in one batch; `value_calls`
    counts every row of either as one evaluation.  The pass refines its
    highest node before it redistributes, and this one certifies there, so
    it never redistributes and evaluates no batch."""
    spec, f, _ = ref5

    class Counting(nc.EnergyFunctional):
        value_calls = 0
        batch_calls = 0
        path_calls = 0

        def value(self, u):
            self.value_calls += 1
            return super().value(u)

        def values(self, rows):
            self.batch_calls += 1
            self.value_calls += len(rows)
            return super().values(rows)

        def bump_values(self, c0, amps, bump):
            self.path_calls += 1
            self.value_calls += len(amps)
            return super().bump_values(c0, amps, bump)

    func = Counting(spec, nc.truncate(f, hi=-1.0))
    rec = mountain_pass(func, spec.constant_field(-1.0), spec.constant_field(-6.0))
    assert rec.classification == "mp_type"
    assert rec.iterations == 5
    assert func.value_calls == 50
    assert func.value_calls < PATH_NODES * rec.iterations
    # the start path only, in closed form
    assert (func.path_calls, func.batch_calls) == (1, 0)


@pytest.mark.parametrize("end", ["a", "b"])
def test_mountain_pass_needs_constant_endpoints(ref5, end):
    """Every caller passes constant endpoints, the fields whose first path
    has closed-form energies; any other endpoint raises ValueError."""
    spec, f, _ = ref5
    func = nc.EnergyFunctional(spec, nc.truncate(f, hi=-1.0))
    a, b = spec.constant_field(-1.0), spec.constant_field(-6.0)
    moved = {"a": a, "b": b}[end].copy()
    moved[2] = 1e-3
    with pytest.raises(ValueError, match="constant endpoints"):
        mountain_pass(func, moved if end == "a" else a, moved if end == "b" else b)


def test_mountain_pass_returns_first_certified_saddle(ref5, monkeypatch):
    """A pass tries to certify a saddle from its highest node every
    REDISTRIBUTE_EVERY sweeps, and redistributes its path only when the
    attempt fails.  On the lower well of the k = 3 instance (crossing and
    tail slopes 5) the attempt after sweep 5 lands on an index-2 point,
    which does not end the pass and is dropped; the path is redistributed
    and re-evaluated in one batch, the pass's only one.  The attempt after
    sweep 10 is passed that point's Newton basin, ends outside it at the
    well saddle, and ends the pass before a second redistribution."""
    spec, _, _ = ref5
    knots = [(t, 5.0 if s > 0 else s) for t, s in REF5_KNOTS]
    f = nc.build_nonlinearity(knots, 5.0, 5.0)
    finished = []
    refined = []
    finish_mp = solvers._finish_mp
    refine = solvers.refine_critical

    def kept(*args, **kwargs):
        finished.append(finish_mp(*args, **kwargs))
        return finished[-1]

    def refined_from(functional, start, basins=()):
        refined.append((refine(functional, start, basins), list(basins)))
        return refined[-1][0]

    monkeypatch.setattr(solvers, "_finish_mp", kept)
    monkeypatch.setattr(solvers, "refine_critical", refined_from)

    class Batches(nc.EnergyFunctional):
        batches = 0

        def values(self, rows):
            self.batches += 1
            return super().values(rows)

    func = Batches(spec, nc.truncate(f, hi=-1.0))
    rec = mountain_pass(func, spec.constant_field(-1.0), spec.constant_field(-6.0))
    assert rec.classification == "mp_type" and rec.morse_index == 1
    assert rec.iterations == 10
    # the redistribution after the dropped attempt; the start path's
    # energies are closed-form and take no batch
    assert func.batches == 1
    assert rec.energy == pytest.approx(-3.532030112994267, rel=1e-12)
    assert rec.urange == pytest.approx((-2.5155834, -1.0378406), abs=1e-7)
    dropped, last = finished
    assert last is rec
    assert dropped.iterations == 5
    assert dropped.morse_index == 2 and dropped.classification == "other"
    assert len(refined) == 2
    assert refined[0][1] == []
    ((center, radius),) = refined[1][1]
    assert np.array_equal(center, dropped.coeffs)
    assert radius == nc.newton_radius(func, dropped) > 0
    assert spec.h1_dist(rec.coeffs, center) > radius


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


def test_refine_critical_stays_on_the_constant_line_where_the_hessian_is_singular(ref5):
    """f'(+-1/3) = 1 = lam_1, so the Hessian at those constant fields is
    singular in mode 1; a root solve from there still ends at a constant
    zero of f instead of following rounding in mode 1 to a saddle."""
    spec, f, func = ref5
    for t in (1.0 / 3.0, -1.0 / 3.0):
        assert f.deriv(np.array([t]))[0] == pytest.approx(1.0, abs=1e-15)
        u = nc.refine_critical(func, spec.constant_field(t))
        assert not np.any(u[1:])
        assert min(spec.h1_dist(u, spec.constant_field(z)) for z in (-2, -1, 0, 1, 2)) <= 1e-6


def test_homotopy_bound_gradient_calls(ref5, monkeypatch):
    """The stage builds its own functional, so count at the class.  Only
    f itself is searched, from its seeds alone, and no seed lies on the
    line of constant fields off the zeros of f."""
    spec, f, _ = ref5
    calls = []
    l2_gradient = nc.EnergyFunctional.l2_gradient

    def counted(self, u):
        calls.append(1)
        return l2_gradient(self, u)

    monkeypatch.setattr(nc.EnergyFunctional, "l2_gradient", counted)
    nc.homotopy_bound(f, spec)
    assert len(calls) == 25


def test_homotopy_bound_needs_exactly_equal_tails(ref5):
    """Equal tails means equal slopes, the case in which M is finite; a
    difference of 1e-13 leaves M infinite and no member bound."""
    spec, _, _ = ref5
    near = nc.build_nonlinearity(REF5_KNOTS, 2.5, 2.5 + 1e-13)
    assert near.M == np.inf
    with pytest.raises(nc.AsymmetricSlopes):
        nc.homotopy_bound(near, spec)
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
    recs, outcomes = multistart(func, radius=3.0, budget=15, rng=np.random.default_rng(7))
    assert len(recs) > 0
    assert len(built) == len(recs) == outcomes["new"]


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
    a, outcomes_a = multistart(func, radius=3.0, budget=15, rng=np.random.default_rng(7))
    b, outcomes_b = multistart(func, radius=3.0, budget=15, rng=np.random.default_rng(7))
    assert len(a) == len(b) > 0
    assert outcomes_a == outcomes_b
    assert sum(outcomes_a.values()) == 15
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
    recs, outcomes = multistart(func, radius=3.0, seeds=seeds, budget=0,
                                rng=np.random.default_rng(7))
    assert len(recs) == 5
    assert outcomes == {"new": 5, "basin": 0, "failed": 0}
    assert all(r.classification == "constant" for r in recs)


def test_multistart_one_root_solve_per_start(ref5, monkeypatch):
    """Each start, seed or random, is polished by exactly one root solve."""
    spec, f, func = ref5
    calls = []
    refine = solvers.refine_critical

    def counted(*args):
        calls.append(1)
        return refine(*args)

    monkeypatch.setattr(solvers, "refine_critical", counted)
    seeds = [spec.constant_field(t) for t in (-2.0, -1.0, 0.0, 1.0, 2.0)]
    recs, outcomes = multistart(func, radius=3.0, seeds=seeds, budget=15,
                                rng=np.random.default_rng(7))
    assert len(calls) == 20
    assert len(recs) == 5
    assert outcomes == {"new": 5, "basin": 15, "failed": 0}


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


def test_homotopy_bound_reference(ref5):
    """The base member's widest orbit, norm 7.208, sets max_norm, and
    R = SAFETY_FACTOR x 7.208 = 14.417 exceeds the closed-form bound
    B(0) = 13.211, so no member of [0, 1] reaches the sphere.  B(0) is the
    base's M times C, the constant of the closed form, and each member's
    bound is its own M times C, which is (1 - lam) B(0)."""
    spec, f, func = ref5
    res = nc.homotopy_bound(f, spec)
    assert 7.0 < res.max_norm < 7.5
    assert res.R == SAFETY_FACTOR * res.max_norm
    assert res.M == f.M and res.mode == 2
    assert res.bound == pytest.approx(13.2111, abs=1e-4) and res.bound < res.R
    assert (res.known, res.n_found) == (0, 7)
    assert res.outcomes == {"new": 7, "basin": 4, "failed": 0}
    assert res.to_dict() == vars(res)
    lam_j = spec.eigenvalues
    C = np.sqrt(spec.domain.measure * np.max((1.0 + lam_j) / (lam_j - 2.5) ** 2))
    for lam in (0.0, 0.5, 1.0):
        assert nc.homotopy(f, lam).M * C == pytest.approx((1.0 - lam) * res.bound,
                                                          rel=1e-14, abs=1e-14)


def test_homotopy_bound_preconditions(ref5):
    spec, _, _ = ref5
    resonant = nc.build_nonlinearity([(0.0, -1.0)], 4.0, 4.0)
    with pytest.raises(nc.ResonantSlope):
        nc.homotopy_bound(resonant, spec)
    lopsided = nc.build_nonlinearity([(0.0, -1.0)], 2.5, 3.1)
    with pytest.raises(nc.AsymmetricSlopes):
        nc.homotopy_bound(lopsided, spec)
