"""The skip rules of the homotopy sweep, apart from any solve: both
multistart calls of every sampled member, its seeds and its random chunk,
are replaced by records with drawn norms, so the property sees only how
`homotopy_bound` turns member norms and closed-form bounds into sampled
rows, random chunks and R."""

import itertools
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
    every skipped row has bound < R, and every sampled member after the
    first had a bound reaching the sphere of the ball before it.  A sampled
    member requests its random chunk, with the basins of the points its
    seeds found, exactly when its bound reaches the sphere of the ball its
    seeds and the members before it give; R is SAFETY_FACTOR times the
    largest norm the calls returned."""
    spec, f, _ = ref5
    draws = data.draw(st.lists(st.tuples(NORMS, NORMS), min_size=len(lambdas),
                               max_size=len(lambdas)))
    members = iter(draws)
    # every fake point lies on its own constant field, so no two merge
    fields = itertools.count(1)
    # one entry per sampled member: the chunk norms it returned, or None;
    # and the member in flight: its number of seed points and chunk norms
    chunks, pending = [], []

    def points(norms):
        return [SimpleNamespace(h1_norm=n, energy=0.0, degenerate=True,
                                coeffs=spec.constant_field(float(next(fields))))
                for n in norms]

    def fake_multistart(func, radius, seeds=(), *, budget, rng, basins=()):
        if seeds:
            assert budget == 0 and not basins
            seed_norms, chunk_norms = next(members)
            chunks.append(None)
            found = points(seed_norms)
            pending[:] = [len(found), chunk_norms]
            return found, {"new": len(found), "basin": 0, "failed": 0}
        held, chunk_norms = pending
        assert budget == solvers.HOMOTOPY_BUDGET and len(basins) == held
        chunks[-1] = chunk_norms
        return points(chunk_norms), {"new": len(chunk_norms), "basin": 0, "failed": 0}

    with mock.patch.object(solvers, "multistart", fake_multistart):
        res = nc.homotopy_bound(f, spec, lambdas, solver_cfg)

    flags = [row["sampled"] for row in res.per_lambda]
    n = sum(flags)
    assert flags == [True] * n + [False] * (len(flags) - n)
    assert flags[0] and len(chunks) == n
    assert all(row["bound"] < res.R for row in res.per_lambda[n:])
    returned = 0.0
    for (seed_norms, _), chunk, row in zip(draws, chunks, res.per_lambda):
        # sampled only while the bound reaches the sphere of the ball before it
        assert not row["bound"] < solvers.SAFETY_FACTOR * returned
        seed_top = max(seed_norms, default=0.0)
        wanted = not row["bound"] < solvers.SAFETY_FACTOR * max(returned, seed_top)
        assert (chunk is not None) == wanted
        assert row["random_starts"] == (solvers.HOMOTOPY_BUDGET if wanted else 0)
        top = max(seed_norms + (chunk or []), default=0.0)
        assert row["max_norm"] == top
        assert row["n_found"] == row["outcomes"]["new"] == len(seed_norms) + len(chunk or [])
        returned = max(returned, top)
    assert res.max_norm == returned
    assert res.R == solvers.SAFETY_FACTOR * returned
    assert res.covers_bound == (res.bound < res.R)
    assert np.all(np.diff([row["bound"] for row in res.per_lambda]) <= 0.0)
