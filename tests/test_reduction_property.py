"""The closed-form bracket that `maximize_reduced` ranks its seeds by.

y -> J(x + y) is m-strongly convex in the Sobolev metric, so at y = 0

    J(x) >= Jt(x) >= J(x) - |P_Y grad J(x)|_*^2 / (2m),

with |g|_*^2 = sum_Y g_j^2 / (1 + lambda_j).  It is checked on random
points of the seed box against psi_population's reduced values, on the
reference, its k = 3 variant (crossing and tail slopes 5) and the variant
whose top zero moves to 2.25 (f not odd).  Dropping the orbits the bracket
rules out must leave the root solves of a full ranking as they are.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import neucrit as nc
from neucrit import reduction
from neucrit.reduction import maximize_reduced, psi_population

from conftest import REF5_KNOTS

SPEC = nc.build_spectrum(nc.Domain("interval", (np.pi,), 512), 16)
KNOTS = {
    "reference": (REF5_KNOTS, 2.5),
    "k3": ([(t, 5.0 if s > 0 else s) for t, s in REF5_KNOTS], 5.0),
    "not odd": ([*REF5_KNOTS[:4], (2.25, 2.5)], 2.5),
    "flip": ([*REF5_KNOTS[:2], (0.0, 0.5), *REF5_KNOTS[3:]], 2.5),
}


def _context(name):
    knots, tail = KNOTS[name]
    f = nc.build_nonlinearity(knots, tail, tail)
    return nc.make_reduction_context(nc.EnergyFunctional(nc.split_spectrum(SPEC, tail), f))


CONTEXTS = {name: _context(name) for name in KNOTS}


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(["reference", "k3", "not odd"]),
       unit=st.lists(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
                     min_size=1, max_size=6))
def test_bracket_holds_the_reduced_value(name, unit):
    """On points of the seed box, J and its Y-block gradient at y = 0
    bracket the reduced value psi_population finds, to rounding; so does
    `_bracket`, the widened form `maximize_reduced` ranks by."""
    ctx = CONTEXTS[name]
    spec, func = ctx.spectrum, ctx.functional
    rows = np.zeros((len(unit), spec.n_modes))
    rows[:, spec.x_indices] = np.asarray(unit)[:, :ctx.k] * reduction._seed_box(ctx)
    reduced = psi_population(ctx, rows).values
    upper, lower = reduction._bracket(ctx, rows)
    h1_y = 1.0 + spec.eigenvalues[spec.y_indices]
    for x, jt, hi, lo in zip(rows, reduced, upper, lower):
        j = func.value(x)
        g = func.l2_gradient(x)[spec.y_indices]
        margin = 1e-12 * (1.0 + abs(j))
        assert j + margin >= jt >= j - np.sum(g * g / h1_y) / (2.0 * ctx.m) - margin
        assert hi >= jt >= lo


def _refine_starts(ctx, monkeypatch):
    starts = []
    refine = reduction.refine_critical

    def spy(func, start):
        starts.append(ctx.spectrum.x_projection(start))
        return refine(func, start)

    monkeypatch.setattr(reduction, "refine_critical", spy)
    rec = maximize_reduced(ctx)
    monkeypatch.undo()
    return rec, np.array(starts)


@pytest.mark.parametrize("name", ["reference", "k3", "not odd", "flip"])
def test_bracket_keeps_the_refined_orbits(name, monkeypatch):
    """The root solves start from the same seeds, in the same order, as
    when Newton ranks every orbit, and end at the same maximizer."""
    ctx = CONTEXTS[name]
    rec, starts = _refine_starts(ctx, monkeypatch)
    monkeypatch.setattr(reduction, "_bracket",
                        lambda ctx, rows: (np.full(len(rows), np.inf),
                                           np.full(len(rows), -np.inf)))
    full, full_starts = _refine_starts(ctx, monkeypatch)
    prov, full_prov = rec.provenance, full.provenance
    assert full_prov["ranked"] == full_prov["orbits"] == prov["orbits"]
    assert prov["ranked"] < prov["orbits"]
    assert np.array_equal(starts, full_starts)
    assert rec.energy == pytest.approx(full.energy, rel=1e-12)
    assert rec.morse_index == full.morse_index == ctx.k
