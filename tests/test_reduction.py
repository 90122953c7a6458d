import dataclasses
import json

import numpy as np
import pytest

import neucrit as nc
from neucrit import reduction
from neucrit.reduction import (
    local_max_min_at_constant,
    make_reduction_context,
    maximize_reduced,
    monotonicity_certificate,
    psi,
    psi_population,
    reduced_value,
)
from neucrit.records import GRAD_TOL

from conftest import REF5_KNOTS

BIG_ORBIT_J = 6.667327
BIG_ORBIT_NORM = 7.2085
BIG_ORBIT_RANGE = 4.2322


def test_context_constants(ref5_ctx):
    assert ref5_ctx.k == 2
    assert ref5_ctx.m == pytest.approx(0.3, abs=1e-12)
    # certified Lipschitz constant: 1 + max(0, -(1 + min f')) / (1 + lam_min_Y)
    assert ref5_ctx.lam == pytest.approx(1.4, abs=1e-12)


def test_inapplicable_when_gamma_reaches_y(ref5):
    spec, _, _ = ref5
    steep = nc.build_nonlinearity([(0.0, 6.0)], 2.5, 2.5)
    with pytest.raises(nc.ReductionInapplicable):
        make_reduction_context(nc.EnergyFunctional(spec, steep))


def test_requires_split_spectrum():
    spec = nc.build_spectrum(nc.Domain("interval", (np.pi,)), 8)
    f = nc.build_nonlinearity([(0.0, -1.0)], 2.5, 2.5)
    with pytest.raises(ValueError):
        make_reduction_context(nc.EnergyFunctional(spec, f))


def test_psi_vanishes_at_constants(ref5, ref5_ctx):
    spec, _, _ = ref5
    for a in (-2.0, -1.0, 0.0, 1.0, 2.0):
        x = spec.x_projection(spec.constant_field(a))
        y = psi(ref5_ctx, x)
        assert spec.h1_norm(y) == 0.0


def test_psi_vanishes_for_linear_f(ref5):
    spec, _, _ = ref5
    lin = nc.homotopy(nc.build_nonlinearity([(0.0, 2.5)], 2.5, 2.5), 1.0)
    ctx = make_reduction_context(nc.EnergyFunctional(spec, lin))
    rng = np.random.default_rng(31)
    for _ in range(5):
        x = spec.x_projection(rng.standard_normal(spec.n_modes))
        assert spec.h1_norm(psi(ctx, x)) < 1e-9


def test_psi_solves_y_block(ref5, ref5_ctx):
    spec, _, func = ref5
    rng = np.random.default_rng(32)
    x = spec.x_projection(1.5 * rng.standard_normal(spec.n_modes))
    y = psi(ref5_ctx, x)
    assert spec.h1_norm(spec.y_projection(func.gradient(x + y))) <= 1e-9
    assert np.all(spec.x_projection(y) == 0.0)


def test_psi_minimality(ref5, ref5_ctx):
    """psi(x) beats every competitor in the Y block, as strong convexity says."""
    spec, _, func = ref5
    rng = np.random.default_rng(33)
    for _ in range(5):
        x = spec.x_projection(1.5 * rng.standard_normal(spec.n_modes))
        y_star = psi(ref5_ctx, x)
        J_star = func.value(x + y_star)
        for _ in range(20):
            y = spec.y_projection(rng.normal(scale=2.0, size=spec.n_modes))
            dy = spec.h1_dist(y, y_star)
            J_comp = func.value(x + y)
            # quantitative: J(x+y) >= J(x+psi) + m/2 |y - psi|^2
            assert J_comp >= J_star + 0.5 * ref5_ctx.m * dy**2 - 1e-9


def test_psi_warm_start(ref5, ref5_ctx):
    spec, _, _ = ref5
    rng = np.random.default_rng(34)
    x = spec.x_projection(rng.standard_normal(spec.n_modes))
    y1 = psi(ref5_ctx, x)
    y2 = psi(ref5_ctx, x, y0=y1)
    assert spec.h1_dist(y1, y2) < 1e-8


def test_reduced_value_below_full(ref5, ref5_ctx):
    spec, _, func = ref5
    rng = np.random.default_rng(35)
    for _ in range(5):
        u = rng.standard_normal(spec.n_modes)
        assert reduced_value(ref5_ctx, spec.x_projection(u)) <= func.value(u) + 1e-12


def test_monotonicity_certificate(ref5_ctx):
    worst = monotonicity_certificate(ref5_ctx, trials=60,
                                     rng=np.random.default_rng(37))
    assert worst >= -1e-10


def test_forged_modulus_trips_probes(ref5, ref5_ctx):
    spec, _, _ = ref5
    bad = dataclasses.replace(ref5_ctx, m=10.0)
    with pytest.raises(nc.ModulusViolated):
        monotonicity_certificate(bad, trials=20, rng=np.random.default_rng(38))
    x = spec.x_projection(2.0 * np.ones(spec.n_modes))
    with pytest.raises(nc.ModulusViolated):
        psi(bad, x)


def _small_rectangle_ctx(ref5):
    _, f, _ = ref5
    dom = nc.Domain("rectangle", (np.pi, 1.5))
    spec = nc.split_spectrum(nc.build_spectrum(dom, 8), 2.5)
    return make_reduction_context(nc.EnergyFunctional(spec, f))


@pytest.mark.parametrize("domain", ["interval", "rectangle"])
def test_psi_population_matches_psi(ref5, ref5_ctx, domain):
    """Every row's Y-block gradient, from the full functional, is below
    INNER_TOL; by strong convexity y is then within INNER_TOL / m of the
    true minimizer psi(x)."""
    ctx = ref5_ctx if domain == "interval" else _small_rectangle_ctx(ref5)
    spec, func = ctx.spectrum, ctx.functional
    R = 10.0
    rng = np.random.default_rng(39)
    rows = np.zeros((20, spec.n_modes))
    rows[:, spec.x_indices] = rng.uniform(-R, R, size=(20, ctx.k))
    consts = [spec.x_projection(spec.constant_field(t)) for t, _ in func.nonlinearity.knots]
    rows = np.vstack([rows, consts])
    sol = psi_population(ctx, rows)
    assert sol.y.shape == rows.shape
    for x, y, val in zip(rows, sol.y, sol.values):
        assert spec.h1_norm(spec.y_projection(func.gradient(x + y))) <= reduction.INNER_TOL
        assert np.all(spec.x_projection(y) == 0.0)
        assert val == pytest.approx(func.value(x + y), rel=1e-12, abs=1e-12)
    assert sol.newton_steps > 0


def test_psi_population_forged_modulus(ref5, ref5_ctx):
    spec, _, _ = ref5
    bad = dataclasses.replace(ref5_ctx, m=10.0)
    rng = np.random.default_rng(40)
    rows = np.zeros((8, spec.n_modes))
    rows[:, spec.x_indices] = rng.uniform(-5.0, 5.0, size=(8, bad.k))
    with pytest.raises(nc.ModulusViolated):
        psi_population(bad, rows)


def test_psi_population_falls_back_on_rising_steps(ref5, ref5_ctx, monkeypatch):
    """Newton steps turned uphill raise the energy; the certified fixed
    step then takes over and the rows still reach psi."""
    spec, _, _ = ref5
    rng = np.random.default_rng(41)
    rows = np.zeros((6, spec.n_modes))
    rows[:, spec.x_indices] = rng.uniform(-8.0, 8.0, size=(6, ref5_ctx.k))
    expected = [psi(ref5_ctx, x) for x in rows]
    solve = np.linalg.solve

    def uphill_while_far(a, b):
        step = solve(a, b)
        return -step if np.abs(b).max() > 1e-2 else step

    monkeypatch.setattr(np.linalg, "solve", uphill_while_far)
    sol = psi_population(ref5_ctx, rows)
    assert sol.fallback_steps > 0
    for y, ref in zip(sol.y, expected):
        assert spec.h1_dist(y, ref) <= 10 * reduction.INNER_TOL


def test_maximize_reduced_reference(ref5, ref5_ctx):
    rec = maximize_reduced(ref5_ctx)
    assert rec.classification == "reduction_max"
    assert rec.energy == pytest.approx(BIG_ORBIT_J, abs=2e-6)
    assert rec.h1_norm == pytest.approx(BIG_ORBIT_NORM, abs=2e-4)
    assert rec.urange[0] == pytest.approx(-BIG_ORBIT_RANGE, abs=2e-4)
    assert rec.urange[1] == pytest.approx(BIG_ORBIT_RANGE, abs=2e-4)
    # the distinguished point has full index k and clean second-order data
    assert rec.morse_index == 2 and not rec.degenerate
    assert rec.residual <= GRAD_TOL
    assert not any("differs from the block dimension" in n for n in rec.notes)


def test_maximize_reduced_objective(ref5, ref5_ctx, monkeypatch):
    """BFGS gets the reduced value with its true partial derivatives, from
    one psi call per evaluation; the polish adds one more psi call."""
    spec = ref5_ctx.spectrum
    objectives, evals, psi_calls = [], [0], [0]
    scipy_minimize, solve = reduction.scipy_minimize, reduction.psi

    def capture(fun, x0, **kw):
        def counted(xi):
            evals[0] += 1
            return fun(xi)
        objectives.append(fun)
        return scipy_minimize(counted, x0, **kw)

    def counted_psi(*args, **kw):
        psi_calls[0] += 1
        return solve(*args, **kw)

    monkeypatch.setattr(reduction, "scipy_minimize", capture)
    monkeypatch.setattr(reduction, "psi", counted_psi)
    rec = maximize_reduced(ref5_ctx)
    assert psi_calls[0] == evals[0] + 1
    assert rec.energy == pytest.approx(BIG_ORBIT_J, abs=2e-6)

    h = 1e-5
    for xi in ([0.0, -4.807], rec.coeffs[spec.x_indices]):
        xi = np.asarray(xi, dtype=float)
        _, grad = objectives[0](xi)
        for j in range(ref5_ctx.k):
            e = np.zeros(ref5_ctx.k)
            e[j] = h
            fd = (objectives[0](xi + e)[0] - objectives[0](xi - e)[0]) / (2 * h)
            assert grad[j] == pytest.approx(fd, abs=1e-6)


def test_maximize_reduced_counts_repeat(ref5_ctx):
    counts = []
    for _ in range(2):
        prov = maximize_reduced(ref5_ctx).provenance
        counts.append((prov["seeds"], prov["orbits"], prov["ascents"],
                       prov["newton_steps"], prov["fallback_steps"]))
    assert counts[0] == counts[1]
    seeds, orbits, ascents, newton, _ = counts[0]
    assert seeds == 9 ** 2 + 5   # the grid over the seed box and the five constants
    # mirror and negation pair grid index i with 8 - i on either axis (5 x 5
    # orbits) and the constants t with -t (3 orbits); the six best seeds
    # are three mirror pairs
    assert (orbits, ascents) == (5 * 5 + 3, 3)
    assert newton > 0


def _box_bound(ctx):
    """M sqrt(|Omega|) / |s - lambda_j| over the X block."""
    spec, f = ctx.spectrum, ctx.functional.nonlinearity
    lam_x = spec.eigenvalues[spec.x_indices]
    return f.M * np.sqrt(spec.domain.measure) / np.abs(f.slope_plus_inf - lam_x)


def test_maximize_reduced_seed_box(ref5_ctx, monkeypatch):
    """The seed set is 9 x 9 points over the closed-form box plus the five
    constants, and the maximum is found.  The constants are critical
    points, so they lie in the box.  psi is solved for one seed per
    symmetry orbit, 28 of the 86, and every seed is an image of a solved
    row."""
    spec = ref5_ctx.spectrum
    box = _box_bound(ref5_ctx)
    ranked = []
    population = reduction.psi_population

    def capture(ctx, rows, y0=None):
        ranked.append(np.array(rows))
        return population(ctx, rows, y0)

    monkeypatch.setattr(reduction, "psi_population", capture)
    rec = maximize_reduced(ref5_ctx)
    assert (rec.provenance["seeds"], rec.provenance["orbits"]) == (86, 28)
    assert rec.provenance["seed_box"] == pytest.approx(box, rel=1e-15)
    assert rec.energy == pytest.approx(BIG_ORBIT_J, abs=2e-6)
    assert rec.morse_index == 2

    axes = [np.linspace(-b, b, 9) for b in box]
    grid = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
    knots = ref5_ctx.functional.nonlinearity.knots
    constants = np.array([spec.constant_field(t)[spec.x_indices] for t, _ in knots])
    assert np.all(np.abs(constants) <= box * (1 + 1e-12))
    seeds = np.vstack([grid, constants])
    solved = ranked[0][:, spec.x_indices]
    assert len(solved) == 28
    signs = spec.symmetry_signs(odd=True)[:, spec.x_indices]
    images = (signs[:, None, :] * solved[None]).reshape(-1, ref5_ctx.k)
    tol = 1e-12 * np.max(box)
    for row in solved:
        assert np.min(np.max(np.abs(seeds - row), axis=1)) <= tol
    for seed in seeds:
        assert np.min(np.max(np.abs(images - seed), axis=1)) <= tol


def test_seed_box_holds_reference_records(reference_report):
    """The box holds the X coefficients of every critical point: on the
    reference run, 3.54 x 5.91; the constants +-2 sit on its first edge."""
    spec = reference_report.spectrum
    red = reference_report.stages["reduction"]["provenance"]
    box = np.asarray(red["seed_box"])
    assert box == pytest.approx([2.0 * np.sqrt(np.pi), 2.0 * np.sqrt(np.pi) * 5.0 / 3.0],
                                rel=1e-14)
    assert len(reference_report.records) == 13
    for rec in reference_report.records:
        assert np.all(np.abs(rec.coeffs[spec.x_indices]) <= box * (1 + 1e-9))


def test_maximize_reduced_linear(ref5):
    spec, _, _ = ref5
    lin = nc.homotopy(nc.build_nonlinearity([(0.0, 2.5)], 2.5, 2.5), 1.0)
    ctx = make_reduction_context(nc.EnergyFunctional(spec, lin))
    rec = maximize_reduced(ctx)
    assert rec.h1_norm < 1e-7
    assert abs(rec.energy) < 1e-12


def test_maximize_reduced_high_k_random_seeding():
    """No random seeds beyond k = 4: at k = 5 the grid takes 5 points per
    axis, the largest odd count whose grid stays within 9^4 points, plus
    the one constant."""
    spec = nc.split_spectrum(
        nc.build_spectrum(nc.Domain("interval", (np.pi,)), 8), 17.0
    )
    assert spec.k == 5
    lin = nc.build_nonlinearity([(0.0, 17.0)], 17.0, 17.0)
    ctx = make_reduction_context(nc.EnergyFunctional(spec, lin))
    rec = maximize_reduced(ctx)
    assert rec.h1_norm < 1e-7
    assert rec.provenance["seeds"] == 5 ** 5 + 1
    assert rec.notes == ()


def test_maximize_reduced_asymmetric_tails(ref5):
    """Unequal tails leave M, and with it the seed box, unbounded: the
    reduction raises AsymmetricSlopes, and the pipeline records it as the
    reduction stage's error."""
    spec, _, _ = ref5
    f = nc.build_nonlinearity(REF5_KNOTS, 2.0, 2.5)
    ctx = make_reduction_context(nc.EnergyFunctional(spec, f))
    with pytest.raises(nc.AsymmetricSlopes):
        maximize_reduced(ctx)
    cfg = nc.reference_config()
    cfg["nonlinearity"]["slope_minus_inf"] = 2.0
    cfg["stages"] = ["reduction"]
    rep = nc.run_pipeline(cfg)
    assert rep.hypotheses.reduction_applicable
    assert rep.errors["reduction"]["type"] == "AsymmetricSlopes"
    assert "reduction" not in rep.stages


def test_local_max_min_at_reference_well(ref5_ctx):
    rep = local_max_min_at_constant(ref5_ctx, alpha=-1.0, ell=0)
    assert rep.passed
    assert len(rep.directions) == 2
    for row in rep.directions:
        assert row["block"] == "middle"
        assert row["delta_plus"] > 0 and row["delta_minus"] > 0
        assert row["second_difference"] == pytest.approx(
            row["hessian_diagonal"], rel=1e-2
        )
    # frozen diagonal entries lam_j - f'(-1) = lam_j + 3
    assert rep.directions[0]["hessian_diagonal"] == pytest.approx(3.0)
    assert rep.directions[1]["hessian_diagonal"] == pytest.approx(4.0)


def test_local_max_min_report_dumps_as_plain_json(ref5_ctx):
    """The scan's mode indices are plain ints, so json.dumps needs no
    converter."""
    d = json.loads(json.dumps(local_max_min_at_constant(ref5_ctx, alpha=-1.0, ell=0).to_dict()))
    assert [row["mode"] for row in d["directions"]] == [0, 1]


def test_local_max_min_split_blocks(ref5):
    # a crossing with slope between the two X eigenvalues exercises ell = 1
    spec, _, _ = ref5
    f = nc.build_nonlinearity([(0.0, 0.5)], 2.5, 2.5)
    ctx = make_reduction_context(nc.EnergyFunctional(spec, f))
    rep = local_max_min_at_constant(ctx, alpha=0.0, ell=1)
    assert rep.passed
    low = [r for r in rep.directions if r["block"] == "low"]
    mid = [r for r in rep.directions if r["block"] == "middle"]
    assert len(low) == 1 and len(mid) == 1
    assert low[0]["delta_plus"] < 0 and low[0]["delta_minus"] < 0
    assert mid[0]["delta_plus"] > 0 and mid[0]["delta_minus"] > 0
    assert low[0]["hessian_diagonal"] == pytest.approx(-0.5)
    assert mid[0]["hessian_diagonal"] == pytest.approx(0.5)
    d = rep.to_dict()
    assert d["ell"] == 1 and d["passed"]


def test_local_max_min_validation(ref5_ctx):
    with pytest.raises(ValueError, match="not a constant solution"):
        local_max_min_at_constant(ref5_ctx, alpha=0.5, ell=0)
    with pytest.raises(ValueError, match="inconsistent"):
        local_max_min_at_constant(ref5_ctx, alpha=-1.0, ell=1)
    with pytest.raises(ValueError, match="must be < k"):
        local_max_min_at_constant(ref5_ctx, alpha=0.0, ell=2)


def test_local_max_min_resonant_slope(ref5):
    """A crossing slope on an eigenvalue leaves the block split undefined:
    the scan raises ResonantSlope, as every other resonance test does."""
    spec, _, _ = ref5
    knots = [(t, 1.0 if t == 0.0 else s) for t, s in REF5_KNOTS]
    f = nc.build_nonlinearity(knots, 2.5, 2.5)
    ctx = make_reduction_context(nc.EnergyFunctional(spec, f))
    with pytest.raises(nc.ResonantSlope):
        local_max_min_at_constant(ctx, alpha=0.0, ell=1)


def test_maximize_reduced_without_oddness(ref5, monkeypatch):
    """With the top zero moved to 2.25, f is not odd and the group is the
    mirror alone.  It pairs grid index i with 8 - i along the odd mode
    only, 9 x 5 = 45 orbits of the 81 grid seeds, and fixes each of the
    five constants.  The maximum equals that of a run that solves psi for
    every seed and ascends from all six best."""
    spec, _, _ = ref5
    knots = [*REF5_KNOTS[:4], (2.25, 2.5)]
    f = nc.build_nonlinearity(knots, 2.5, 2.5)
    assert not f.odd
    ctx = make_reduction_context(nc.EnergyFunctional(spec, f))
    rec = maximize_reduced(ctx)
    assert (rec.provenance["orbits"], rec.provenance["ascents"]) == (45 + 5, 3)
    monkeypatch.setattr(reduction, "_orbit_representatives",
                        lambda signs, n, zeros: np.arange(n ** 2 + len(zeros)))
    full = maximize_reduced(ctx)
    assert (full.provenance["orbits"], full.provenance["ascents"]) == (86, 6)
    assert rec.energy == pytest.approx(full.energy, rel=1e-12)
    assert rec.morse_index == full.morse_index == 2
