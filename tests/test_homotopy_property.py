"""The skip rule of the homotopy sweep, apart from any solve: the
multistart of every sampled member is replaced by records with drawn
norms, so the property sees only how `homotopy_bound` turns member norms
and closed-form bounds into sampled rows and R."""

from types import SimpleNamespace
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import neucrit as nc
import neucrit.solvers as solvers

# the reference's closed-form bound B(0) is 13.211, so norms up to 10 put
# R = 2 x max norm on either side of every member's bound
NORMS = st.lists(st.floats(0.0, 10.0), max_size=3)
LAMBDAS = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=11, unique=True).map(sorted)


@settings(max_examples=40, deadline=None)
@given(lambdas=LAMBDAS, data=st.data())
def test_skip_rule(ref5, solver_cfg, lambdas, data):
    """The sampled rows form a prefix that starts with the first member,
    every skipped row has bound < R, R is SAFETY_FACTOR times the largest
    norm of the sampled members, and every sampled member after the first
    had a bound reaching the sphere of the ball before it."""
    spec, f, _ = ref5
    draws = data.draw(st.lists(NORMS, min_size=len(lambdas), max_size=len(lambdas)))
    calls = iter(draws)

    def fake_multistart(func, radius, seeds, budget, rng):
        norms = next(calls)
        return [SimpleNamespace(h1_norm=n) for n in norms], {"new": len(norms)}

    with mock.patch.object(solvers, "multistart", fake_multistart):
        res = nc.homotopy_bound(f, spec, lambdas, solver_cfg)

    flags = [row["sampled"] for row in res.per_lambda]
    n = sum(flags)
    assert flags == [True] * n + [False] * (len(flags) - n)
    assert flags[0]
    assert all(row["bound"] < res.R for row in res.per_lambda[n:])
    tops = [max(norms, default=0.0) for norms in draws[:n]]
    assert [row["max_norm"] for row in res.per_lambda[:n]] == tops
    assert res.max_norm == max(tops)
    assert res.R == solvers.SAFETY_FACTOR * max(tops)
    # and no member was sampled whose bound already lay inside the ball
    for i, row in enumerate(res.per_lambda[1:n], start=1):
        assert not row["bound"] < solvers.SAFETY_FACTOR * max(tops[:i])
    assert res.covers_bound == (res.bound < res.R)
    assert np.all(np.diff([row["bound"] for row in res.per_lambda]) <= 0.0)
