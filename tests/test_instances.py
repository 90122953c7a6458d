"""Instances beyond the reference: the five-zero pattern at k = 3.

With the crossing slopes and the tail slope raised from 2.5 to 5, f'
crosses the eigenvalues 0, 1 and 4 of [0, pi], so the reduction works on a
three-dimensional X block and the global degree is (-1)^3.
"""

import pytest

import neucrit as nc


def _k3_config(seed):
    cfg = nc.reference_config()
    nl = cfg["nonlinearity"]
    nl["knots"] = [[t, 5.0 if s > 0 else s] for t, s in nl["knots"]]
    nl["slope_minus_inf"] = nl["slope_plus_inf"] = 5.0
    cfg["solver"]["rng_seed"] = seed
    return cfg


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


def test_k3_reports_honest_deficiency():
    """Seed 42 spends the whole multistart budget and still misses one
    solution (the negation -u of an index-2 solution it found).  The run
    must say so: an unbalanced ledger, the deficiency in the message, and
    suggestions where to search."""
    rep = nc.run_pipeline(_k3_config(42))
    assert rep.ok, rep.errors
    assert rep.stages["reduction"]["morse_index"] == 3
    lrep = rep.ledger_report
    assert not lrep.balanced
    assert lrep.deficiency == 1
    assert lrep.message.startswith("deficiency 1: at least one undiscovered solution")
    assert lrep.suggestions
    assert rep.stages["multistart"]["chunks"] == 10
    assert rep.stages["multistart"]["final_deficiency"] == 1
    assert len(rep.records) == 20
