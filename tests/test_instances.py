"""Instances beyond the reference: the five-zero pattern at k = 3 and
k = 5, and the crossing-slope flip.

With the crossing slopes and the tail slope raised from 2.5 to 5, f'
crosses the eigenvalues 0, 1 and 4 of [0, pi], so the reduction works on a
three-dimensional X block and the global degree is (-1)^3.  At slope 20
the X block has five dimensions.  The flip keeps the reference but lowers
the middle crossing slope to 0.5, between the eigenvalues 0 and 1.
"""

import numpy as np
import pytest

import neucrit as nc
import neucrit.solvers as solvers
from neucrit.solvers import _images


def _sloped_config(slope, seed):
    """The reference with crossing and tail slopes `slope`."""
    cfg = nc.reference_config()
    nl = cfg["nonlinearity"]
    nl["knots"] = [[t, slope if s > 0 else s] for t, s in nl["knots"]]
    nl["slope_minus_inf"] = nl["slope_plus_inf"] = slope
    cfg["solver"]["rng_seed"] = seed
    return cfg


def _k3_config(seed):
    return _sloped_config(5.0, seed)


def _flip_config(seed):
    cfg = nc.reference_config()
    cfg["nonlinearity"]["knots"][2][1] = 0.5
    cfg["solver"]["rng_seed"] = seed
    return cfg


def _rectangle_config(seed):
    cfg = nc.reference_config()
    cfg["domain"] = {"kind": "rectangle", "lengths": [np.pi, 1.5]}
    cfg["solver"]["rng_seed"] = seed
    return cfg


@pytest.mark.parametrize("seed", [7, 42, 3])
def test_crossing_slope_flip_balances(seed):
    """With f'(0) = 0.5 the middle zero crosses one eigenvalue, not two, so
    the degree count no longer forces an extra solution.  The run balances
    with 11 records, an index-2 solution among them, and closes the orbits
    without a random start."""
    rep = nc.run_pipeline(_flip_config(seed))
    assert rep.ok, rep.errors
    assert rep.hypotheses.k == 2
    assert rep.hypotheses.extra_solution_condition is False
    assert rep.ledger_report.balanced
    assert rep.ledger_report.degree_sum == 1
    assert sorted(r.morse_index for r in rep.records) == [0, 0, 1, 1, 1, 1, 1, 2, 2, 2, 2]
    assert rep.stages["multistart"]["chunks"] == 0


def test_k5_reduction_grid():
    """At k = 5 the reduction seeds 5 points per axis over the closed-form
    box, 5^5 grid points and the five constants, and solves psi for 822
    orbit representatives.  Its maximizer has full index 5.  The box reads
    nothing but the problem, so a run without the homotopy stage needs no
    fallback radius for it."""
    cfg = _sloped_config(20.0, 7)
    cfg["stages"] = ["constants", "reduction"]
    rep = nc.run_pipeline(cfg)
    assert rep.ok, rep.errors
    assert rep.warnings == []
    spec, f = rep.spectrum, rep.functional.nonlinearity
    assert spec.k == 5
    red = rep.stages["reduction"]
    prov = red["provenance"]
    assert (prov["seeds"], prov["orbits"]) == (5 ** 5 + 5, 822)
    lam = spec.eigenvalues[spec.x_indices]
    assert prov["seed_box"] == pytest.approx(
        f.M * np.sqrt(np.pi) / np.abs(20.0 - lam), rel=1e-15)
    assert red["energy"] == pytest.approx(385.787173947077, rel=1e-9)
    assert red["morse_index"] == 5 and not red["degenerate"]
    assert red["notes"] == []


def test_radius_holds_every_record_found_before_the_homotopy():
    """The homotopy's base member is f itself and holds the records the
    stages before it found, so R is at least SAFETY_FACTOR times the norm
    of each.  At k = 5 the reduction maximizer (norm 65.558) lies farther
    out than anything the base member's seeds find, and a search that did
    not hold it gave R = 117.89 at seed 7 against 131.12 at seed 42; held,
    it sets R at every seed."""
    radii = []
    for seed in (7, 42):
        cfg = _sloped_config(20.0, seed)
        cfg["stages"] = ["constants", "reduction", "homotopy"]
        rep = nc.run_pipeline(cfg)
        assert rep.ok, rep.errors
        R = rep.stages["homotopy"]["R"]
        held = [*rep.stages["constants"], rep.stages["reduction"]]
        assert all(R >= solvers.SAFETY_FACTOR * rec["h1_norm"] for rec in held)
        radii.append(R)
    assert radii[0] == radii[1]


@pytest.mark.parametrize("make", [_flip_config, _k3_config, _rectangle_config])
def test_homotopy_radius_is_the_full_sweep_radius(make):
    """Every member h_lam of the full sweep lam in [0, 1] has its solutions
    within (1 - lam) B(0), so R > B(0) holds them all strictly inside the
    ball, with no member searched but f itself; R is SAFETY_FACTOR times
    the largest norm the base member's seeds find when that lies above
    B(0), and the float just above B(0) otherwise (k = 3, whose seeds reach
    only 5.115 against B(0) = 39.633)."""
    h, recs, _ = _base_member_search(make(7))
    assert h["bound"] < h["R"]
    top = max(r.h1_norm for r in recs)
    assert h["max_norm"] == top
    assert h["R"] == max(solvers.SAFETY_FACTOR * top, np.nextafter(h["bound"], np.inf))


def _middle_slope_config(seed, slope=0.9):
    cfg = nc.reference_config()
    cfg["nonlinearity"]["knots"][2][1] = slope
    cfg["solver"]["rng_seed"] = seed
    return cfg


def _base_member_search(cfg):
    """The homotopy stage of `cfg` run alone, and the records and outcomes
    of one multistart of its base member's seeds, the zeros of f and the
    six first-mode amplitudes, with no random start."""
    calls = []
    search = solvers.multistart

    def spy(func, radius, seeds=(), **kw):
        found = search(func, radius, seeds, **kw)
        calls.append((kw["budget"], found))
        return found

    cfg["stages"] = ["homotopy"]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "multistart", spy)
        h = nc.run_pipeline(cfg).stages["homotopy"]
    ((budget, (recs, outcomes)),) = calls
    assert budget == 0
    return h, recs, outcomes


@pytest.mark.parametrize("make", [nc.reference_config, lambda: _rectangle_config(7),
                                  lambda: _flip_config(7), lambda: _middle_slope_config(7)],
                         ids=["interval", "rectangle", "flip", "slope0.9"])
def test_seeds_alone_give_the_full_search_radius(make):
    """The base member's seeds put SAFETY_FACTOR times their largest norm
    past B(0), so that product is R."""
    h, recs, _ = _base_member_search(make())
    assert h["bound"] < h["R"]
    assert h["R"] == solvers.SAFETY_FACTOR * max(r.h1_norm for r in recs)


def test_k3_radius_is_the_proven_bound():
    """At k = 3 the base member's seeds reach only 5.115 against
    B(0) = 39.633, so R is the float just above B(0), not a sampled radius.
    Without the reduction maximizer (norm 35.553) to raise it, the ledger
    on that ball balances with all 21 records."""
    cfg = _k3_config(7)
    cfg["stages"] = ["homotopy"]
    h = nc.run_pipeline(cfg).stages["homotopy"]
    assert h["R"] == np.nextafter(h["bound"], np.inf)
    assert h["R"] == pytest.approx(39.633, abs=1e-3)
    assert solvers.SAFETY_FACTOR * h["max_norm"] < h["bound"]
    cfg["stages"] = ["homotopy", "ledger", "multistart"]
    rep = nc.run_pipeline(cfg)
    assert rep.ok, rep.errors
    assert rep.ledger.R == h["R"]
    assert rep.ledger_report.balanced
    assert len(rep.records) == 21


@pytest.mark.parametrize("middle, indices", [(0.5, [0, 0, 1, 1, 1]),
                                             (1.5, [0, 0, 1, 1, 1, 1, 2]),
                                             (3.0, [0, 0, 1, 1, 1, 1, 2])])
def test_k1_corner_radius_is_proven(middle, indices):
    """At tail and crossing slopes 0.8 (k = 1) the reduction does not apply,
    and the largest norm held is a constant's, 3.545, so SAFETY_FACTOR
    times it, 7.09, lies below B(0) = 21.1057: R is the float just above
    B(0) instead, and the ledger, which balances, counts on a ball whose
    degree is proven."""
    cfg = _sloped_config(0.8, 7)
    cfg["nonlinearity"]["knots"][2][1] = middle
    rep = nc.run_pipeline(cfg)
    assert rep.ok, rep.errors
    assert rep.hypotheses.k == 1
    h = rep.stages["homotopy"]
    assert h["max_norm"] == pytest.approx(2.0 * np.sqrt(np.pi), rel=1e-12)
    assert rep.ledger.R == h["R"] == np.nextafter(h["bound"], np.inf)
    assert h["R"] > h["bound"] == pytest.approx(21.1057, abs=1e-4)
    assert rep.ledger_report.balanced
    assert sorted(r.morse_index for r in rep.records) == indices


def test_k3_middle_slope_17_balances():
    """At tail and crossing slopes 5 with f'(0) = 17 the reduction does not
    apply and the largest norm held is 5.09, so R is the float just above
    B(0) = 39.633.  On that ball the multistart stage finds the index-4
    pair at E = -3.87329e-4 too: 25 records, balanced."""
    cfg = _k3_config(7)
    cfg["nonlinearity"]["knots"][2][1] = 17.0
    rep = nc.run_pipeline(cfg)
    assert rep.ok, rep.errors
    assert rep.ledger.R == np.nextafter(rep.stages["homotopy"]["bound"], np.inf)
    assert rep.ledger_report.balanced
    assert len(rep.records) == 25
    pair = [r for r in rep.records if r.energy == pytest.approx(-3.87329e-4, rel=1e-5)]
    assert [r.morse_index for r in pair] == [4, 4]


def test_k3_balances():
    rep = nc.run_pipeline(_k3_config(7))
    assert rep.ok, rep.errors
    assert rep.hypotheses.k == 3
    assert rep.hypotheses.extra_solution_condition is True
    red = rep.stages["reduction"]
    assert red["morse_index"] == 3
    assert red["energy"] == pytest.approx(96.3696851582, rel=1e-10)
    assert red["provenance"]["seeds"] == 9 ** 3 + 5
    assert rep.ledger_report.balanced
    assert rep.ledger_report.degree_sum == -1
    assert len(rep.records) == 21
    for r in rep.records:
        assert r.residual <= 1e-9


@pytest.fixture(scope="module")
def k3_seed42():
    return nc.run_pipeline(_k3_config(42))


def test_k3_seed42_balances(k3_seed42):
    """Seed 42 once ended one solution short: the negation -u of an index-2
    solution it had found.  Closing every orbit under the mirrors and
    u -> -u (f is odd) supplies it."""
    rep = k3_seed42
    assert rep.ok, rep.errors
    assert rep.ledger_report.balanced
    assert rep.ledger_report.degree_sum == -1
    assert len(rep.records) == 21
    assert not any("failed qualitative checks" in w for w in rep.warnings)


def test_k3_seed42_multistart_builds_no_known_record(k3_seed42):
    """Every multistart pass holds the Newton basins of the ledger's
    records, so a start that ends at a point the ledger holds counts as
    "basin" and builds no record: each pass reports as new exactly the
    points it adds.  Five of the seven random chunks find nothing new."""
    passes = k3_seed42.stages["multistart"]["passes"]
    assert [p["kind"] for p in passes] == ["orbit", "random", "orbit", *["random"] * 6, "orbit"]
    for p in passes:
        assert p["outcomes"]["new"] == p["added"]
        assert p["outcomes"]["failed"] == 0
    assert [p["added"] for p in passes if p["kind"] == "random"] == [5, 0, 0, 0, 0, 0, 1]
    assert k3_seed42.stages["multistart"]["chunks"] == 7


def test_k3_reports_honest_deficiency():
    """A multistart budget of two chunks leaves seed 42 two solutions short.
    The run must say so: an unbalanced ledger, the deficiency in the
    message, and suggestions where to search."""
    cfg = _k3_config(42)
    cfg["solver"]["multistart_budget"] = 100
    rep = nc.run_pipeline(cfg)
    assert rep.ok, rep.errors
    assert rep.stages["reduction"]["morse_index"] == 3
    lrep = rep.ledger_report
    assert not lrep.balanced
    assert lrep.deficiency == 2
    assert lrep.message.startswith("deficiency 2: at least one undiscovered solution")
    assert lrep.suggestions
    assert rep.stages["multistart"]["chunks"] == 2
    for p in rep.stages["multistart"]["passes"]:
        assert sum(p["outcomes"].values()) == p["starts"]
    assert rep.stages["multistart"]["final_deficiency"] == 2
    assert len(rep.records) == 19
    # a multistart copy of the constant 0 merges into it, not rejected
    assert not any("failed qualitative checks" in w for w in rep.warnings)


@pytest.mark.parametrize("seed", [7, 42, 3])
def test_slope_09_finds_the_fifteen_points(seed):
    """With f'(0) = 0.9 the interval truncation certifies the lower saddle
    at energy -0.0085822.  With it the first ledger balances at 9 records
    while orbits are still open, and the multistart stage, which runs
    whenever it is listed, closes them and draws the rest: 15 records, the
    count exclusion gives, among them the index-1 pair at -0.0085822 and
    the index-2 pair at 3.372e-4, which cancel in the degree sum."""
    rep = nc.run_pipeline(_middle_slope_config(seed))
    assert rep.ok, rep.errors
    assert rep.stages["ledger"]["initial_reconciliation"]["balanced"]
    assert rep.ledger_report.balanced
    assert len(rep.records) == 15
    for energy, index in ((-0.0085822448089, 1), (3.372372418837e-4, 2)):
        pair = [r for r in rep.records if r.energy == pytest.approx(energy, rel=1e-9)]
        assert len(pair) == 2, energy
        assert all(r.morse_index == index for r in pair)
        a, b = (r.coeffs for r in pair)
        assert rep.spectrum.h1_dist(a, b) > 1e-3


@pytest.mark.parametrize("make", [nc.reference_config, lambda: _rectangle_config(7),
                                  lambda: _flip_config(7), lambda: _middle_slope_config(7),
                                  lambda: _middle_slope_config(42, slope=0.99)],
                         ids=["interval", "rectangle", "flip", "slope0.9", "slope0.99"])
def test_orbits_are_closed_whenever_multistart_is_listed(make):
    """Every group image of every record is a record, whether the first
    ledger shows a deficiency (interval, rectangle, flip) or balances with
    orbits still open (slopes 0.9 and 0.99)."""
    rep = nc.run_pipeline(make())
    assert rep.ok, rep.errors
    odd = rep.functional.nonlinearity.odd
    for rec in rep.records:
        for img in _images(rep.spectrum, rec.coeffs, odd):
            assert rep.ledger.match(img) is not None
