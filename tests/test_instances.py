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


@pytest.mark.parametrize("seed", [7, 42, 3])
def test_crossing_slope_flip_balances(seed):
    """With f'(0) = 0.5 the middle zero crosses one eigenvalue, not two, so
    the degree count no longer forces an extra solution.  The run balances
    with 11 records, an index-2 solution among them, and closes the orbits
    without a random start."""
    cfg = nc.reference_config()
    cfg["nonlinearity"]["knots"][2][1] = 0.5
    cfg["solver"]["rng_seed"] = seed
    rep = nc.run_pipeline(cfg)
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
