"""The bounds that `maximize_reduced` prunes its seed orbits by.

y -> J(x + y) is m-strongly convex in the Sobolev metric, so at y = 0

    J(x) >= Jt(x) >= J(x) - |P_Y grad J(x)|_*^2 / (2m),

with |g|_*^2 = sum_Y g_j^2 / (1 + lambda_j).  It is checked on random
points of the seed box against psi_population's reduced values, on the
reference, its k = 3 variant (crossing and tail slopes 5) and the variant
whose top zero moves to 2.25 (f not odd).  For k <= 2 the upper bound is
the closed form of `bump_values` widened by a derived rounding bound,
checked on the rectangle as well.  Bracketing in two batches must keep
every orbit a bracket of every orbit keeps, and dropping the orbits the
bounds rule out must leave the root solves of a full ranking as they are.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    bracket the reduced value psi_population finds, to rounding; so do
    `_upper_bounds` and `_bracket`'s lower bounds, the widened forms
    `maximize_reduced` prunes by."""
    ctx = CONTEXTS[name]
    spec, func = ctx.spectrum, ctx.functional
    rows = np.zeros((len(unit), spec.n_modes))
    rows[:, spec.x_indices] = np.asarray(unit)[:, :ctx.k] * reduction._seed_box(ctx)
    reduced = psi_population(ctx, rows).values
    upper = reduction._upper_bounds(ctx, rows)
    lower, _ = reduction._bracket(ctx, rows)
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

    def spy(func, start, basins):
        starts.append(ctx.spectrum.x_projection(start))
        return refine(func, start, basins)

    monkeypatch.setattr(reduction, "refine_critical", spy)
    rec = maximize_reduced(ctx)
    monkeypatch.undo()
    return rec, np.array(starts)


@pytest.mark.parametrize("name", ["reference", "k3", "not odd", "flip"])
def test_bracket_keeps_the_refined_orbits(name, monkeypatch):
    """The root solves start from the same seeds, in the same order, as
    when Newton ranks every orbit, and end at the same maximizer.  With
    every upper bound infinite no orbit can be ruled out, so every orbit
    is ranked."""
    ctx = CONTEXTS[name]
    rec, starts = _refine_starts(ctx, monkeypatch)
    monkeypatch.setattr(reduction, "_upper_bounds",
                        lambda ctx, rows: np.full(len(rows), np.inf))
    full, full_starts = _refine_starts(ctx, monkeypatch)
    prov, full_prov = rec.provenance, full.provenance
    assert full_prov["ranked"] == full_prov["orbits"] == prov["orbits"]
    assert prov["ranked"] < prov["orbits"]
    assert np.array_equal(starts, full_starts)
    assert rec.energy == pytest.approx(full.energy, rel=1e-12)
    assert rec.morse_index == full.morse_index == ctx.k


RECTANGLE = nc.make_reduction_context(nc.EnergyFunctional(
    nc.split_spectrum(nc.build_spectrum(nc.Domain("rectangle", (np.pi, 1.5)), 16), 2.5),
    nc.build_nonlinearity(REF5_KNOTS, 2.5, 2.5)))


@pytest.mark.parametrize("name", ["rectangle", "reference", "not odd"])
def test_closed_form_upper_bound(name, monkeypatch):
    """For k <= 2 a seed row is c_0 e_0 + c_j e_j, and `_upper_bounds`
    takes J there from `bump_values` in closed form, widened by
    `_bump_rounding`.  It stays above psi_population's reduced value on
    rows with c_j < 0, c_j > 0 and c_j = 0.  A row with c_j = 0 is a
    constant, whose reduced value is its J on the grid; the closed form
    differs from that by rounding, so on the rectangle the unwidened form
    falls below it on some of them."""
    ctx = RECTANGLE if name == "rectangle" else CONTEXTS[name]
    spec = ctx.spectrum
    j = spec.x_indices[1]
    b0, bj = reduction._seed_box(ctx)
    c0, cj = np.meshgrid(np.linspace(-b0, b0, 41), np.linspace(-bj, bj, 5) * 0.9,
                         indexing="ij")
    rows = np.zeros((c0.size, spec.n_modes))
    rows[:, 0], rows[:, j] = c0.ravel(), cj.ravel()
    assert {np.sign(c) for c in rows[:, j]} == {-1.0, 0.0, 1.0}
    reduced = psi_population(ctx, rows).values
    assert np.all(reduction._upper_bounds(ctx, rows) >= reduced)
    if name == "rectangle":
        monkeypatch.setattr(reduction, "_bump_rounding", lambda ctx, c0, amps, j: 0.0)
        assert np.any(reduction._upper_bounds(ctx, rows) < reduced)


@settings(max_examples=200, deadline=None)
@given(orbits=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 3), st.sampled_from([1, 2, 4])),
                       min_size=1, max_size=12))
@example(orbits=[(3, 0, 1), (3, 2, 2), (1, 1, 1)])
def test_live_orbits_keep_the_contenders(orbits):
    """`_live_orbits`, with `_bracket` faked from drawn bounds, returns
    every orbit whose upper bound reaches the sixth-best lower bound over
    all seeds: every orbit fewer than six seeds certainly beat, which a
    bracket of every orbit would keep.  Bounds tie often here, and the
    orbits may hold fewer than six seeds in all.  It brackets no orbit
    twice, in at most two calls, and hands back the state of the orbits
    it returns, in their order."""
    upper = np.array([u for u, _, _ in orbits], dtype=float)
    lower = upper - np.array([gap for _, gap, _ in orbits])
    weight = np.array([w for _, _, w in orbits])
    rows = np.arange(len(orbits), dtype=float)[:, None]
    calls = []

    def bracket(ctx, rows):
        idx = rows[:, 0].astype(int)
        calls.append(idx.tolist())
        return lower[idx], (idx, idx, idx)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reduction, "_bracket", bracket)
        live, state = reduction._live_orbits(None, rows, upper, weight)
    seeds = np.sort(np.repeat(lower, weight))
    floor = seeds[-reduction._BEST] if seeds.size >= reduction._BEST else -np.inf
    assert set(np.flatnonzero(upper >= floor)) <= set(live.tolist())
    bracketed = [i for call in calls for i in call]
    assert len(calls) <= 2
    assert bracketed == live.tolist()
    assert len(set(bracketed)) == len(bracketed)
    assert all(np.array_equal(s, live) for s in state)
