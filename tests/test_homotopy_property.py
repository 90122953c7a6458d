"""The radius rule of the homotopy stage, apart from any solve: the one
multistart of the base member is replaced by records with drawn norms, so
the property sees only how `homotopy_bound` turns the norms it holds and
the closed-form bound B(0) into R."""

import itertools
from types import SimpleNamespace
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import neucrit as nc
import neucrit.solvers as solvers

# the reference's closed-form bound B(0) is 13.211, so norms up to 10 put
# SAFETY_FACTOR x the largest norm on either side of it
NORMS = st.lists(st.floats(0.0, 10.0), max_size=4)


@settings(max_examples=40, deadline=None)
@given(norms=NORMS)
def test_radius_rule(ref5, norms):
    """R lies strictly above B(0), is at least SAFETY_FACTOR times every
    norm the search returned, and equals SAFETY_FACTOR times the largest
    whenever that product exceeds B(0).  The search draws no random
    start."""
    spec, f, _ = ref5
    # every fake point lies on its own constant field, so no two merge
    fields = itertools.count(1)
    calls = []

    def fake_multistart(func, radius, seeds=(), *, budget, rng, basins=()):
        calls.append((len(seeds), budget, len(basins)))
        found = [SimpleNamespace(h1_norm=n, energy=0.0, degenerate=True,
                                 coeffs=spec.constant_field(float(next(fields))))
                 for n in norms]
        return found, {"new": len(found), "basin": 0, "failed": 0}

    with mock.patch.object(solvers, "multistart", fake_multistart):
        res = nc.homotopy_bound(f, spec)

    assert calls == [(5 + 6, 0, 0)]
    assert res.R > res.bound
    assert all(res.R >= solvers.SAFETY_FACTOR * n for n in norms)
    product = solvers.SAFETY_FACTOR * max(norms, default=0.0)
    if product > res.bound:
        assert res.R == product
    else:
        assert res.R == np.nextafter(res.bound, np.inf)
    assert res.max_norm == max(norms, default=0.0)
    assert res.n_found == res.outcomes["new"] == len(norms) and res.known == 0
