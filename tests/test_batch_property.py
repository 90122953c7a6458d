"""The array-at-a-time kernels agree with the one-at-a-time ones they
replace in the search loops: `EnergyFunctional.values` with `value` row by
row, `EnergyFunctional.bump_values` with `values` on a mountain pass's
first path, and `SpectrumSlice.h1_dists` with `h1_dist` pair by pair, and
so with the decisions and the first match the old loops made.  Checked on
the interval and rectangle spectra of the benchmark workloads.
"""

from types import SimpleNamespace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import neucrit as nc
from neucrit.energy import BLOCK_ELEMENTS
from neucrit.records import DEDUP_RADIUS
from neucrit.solvers import _near

from conftest import REF5_KNOTS

MODES = 16
SPECTRA = {
    "interval": nc.build_spectrum(nc.Domain("interval", (np.pi,), 512), MODES),
    "rectangle": nc.build_spectrum(nc.Domain("rectangle", (np.pi, 1.5)), MODES),
}
FUNCTIONALS = {kind: nc.EnergyFunctional(spec, nc.build_nonlinearity(REF5_KNOTS, 2.5, 2.5))
               for kind, spec in SPECTRA.items()}


@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(sorted(SPECTRA)), seed=st.integers(0, 2**32 - 1),
       blocks=st.floats(0.0, 2.5), scale=st.sampled_from([1e-3, 1.0, 5.0, 50.0]))
def test_values_match_value_row_by_row(kind, seed, blocks, scale):
    """J of a stack equals J of each row to 1e-13 relative to the size of
    its two terms, for stacks of up to two and a half blocks."""
    func = FUNCTIONALS[kind]
    spec = func.spectrum
    per_block = BLOCK_ELEMENTS // spec.basis.shape[0]
    rows = scale * np.random.default_rng(seed).standard_normal((int(blocks * per_block), MODES))
    batch = func.values(rows)
    assert batch.shape == (len(rows),)
    for row, got in zip(rows, batch):
        want = func.value(row)
        quadratic = 0.5 * np.sum(spec.eigenvalues * row * row)
        size = max(1.0, quadratic + abs(quadratic - want))
        assert abs(got - want) <= 1e-13 * size


def _first_within(dists):
    """The loop the searches used: the first index within DEDUP_RADIUS."""
    return next((i for i, d in enumerate(dists) if d <= DEDUP_RADIUS), None)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(sorted(SPECTRA)), seed=st.integers(0, 2**32 - 1),
       count=st.integers(0, 6), size=st.sampled_from([1.0, 1e-160, 1e-300]),
       spread=st.sampled_from([1.0, 1e-4, 1e-5, 1e-12]),
       boundary=st.one_of(st.none(), st.integers(0, 6)))
@example(kind="interval", seed=0, count=0, size=1.0, spread=1.0, boundary=None)
@example(kind="rectangle", seed=1, count=3, size=1.0, spread=1e-4, boundary=1)
@example(kind="interval", seed=2, count=2, size=1e-160, spread=1.0, boundary=None)
@example(kind="rectangle", seed=3, count=2, size=1e-300, spread=1e-12, boundary=None)
def test_stacked_distances_match_the_pair_loop(kind, seed, count, size, spread, boundary):
    """`h1_dists` of a point and a set is bit for bit the list of `h1_dist`
    of each pair, so `_near`, `DegreeLedger.match` and the other distance-
    to-a-set tests make the loop's decision and find its first index: on an
    empty set, on a set member exactly DEDUP_RADIUS away, and on offsets
    whose squared norms underflow and take `h1_norm`'s rescaled sum."""
    spec = SPECTRA[kind]
    rng = np.random.default_rng(seed)
    u = size * rng.standard_normal(MODES)
    points = [u + size * spread * rng.standard_normal(MODES) for _ in range(count)]
    if boundary is not None:
        # mode 0 has eigenvalue 0, so an offset of DEDUP_RADIUS there from a
        # point whose mode-0 coefficient is 0 is exactly DEDUP_RADIUS away
        u[0] = 0.0
        edge = u.copy()
        edge[0] = DEDUP_RADIUS
        points.insert(min(boundary, count), edge)
        assert spec.h1_dist(u, edge) == DEDUP_RADIUS
    loop = [spec.h1_dist(u, p) for p in points]
    stacked = spec.h1_dists(u, points)
    assert np.array_equal(stacked, loop)
    if size * spread < 1e-150 and count:
        assert min(loop) > 0.0  # the rescue, not an underflow to zero
    ledger = nc.DegreeLedger(2, 10.0, spec)
    ledger.records = [SimpleNamespace(coeffs=p) for p in points]
    assert ledger.match(u) == _first_within(loop)
    assert _near(spec, u, [(p, 0.0) for p in points]) == (_first_within(loop) is not None)


@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(sorted(SPECTRA)), seed=st.integers(0, 2**32 - 1),
       count=st.integers(1, 8))
def test_stacked_distances_of_two_stacks_pair_rows(kind, seed, count):
    """Two stacks of equal length give the distance of each row pair, the
    segment lengths of a polyline among them."""
    spec = SPECTRA[kind]
    path = np.random.default_rng(seed).standard_normal((count + 1, MODES))
    segments = spec.h1_dists(path[1:], path[:-1])
    assert np.array_equal(segments, [spec.h1_dist(b, a) for a, b in zip(path, path[1:])])


@st.composite
def five_zero_members(draw):
    """A spectrum of the benchmark workloads and a member built from a
    random five-zero f: f itself, one of its truncations at its
    minimum-type zeros, or a homotopy member.  The zeros are multiples
    c_k phi_0 of the constant mode's grid value, so a constant field with
    coefficient c_k has its grid value exactly on a breakpoint; the
    multipliers come back with the member."""
    kind = draw(st.sampled_from(sorted(SPECTRA)))
    spec = SPECTRA[kind]
    phi0 = spec.basis[0, 0]
    gaps = draw(st.lists(st.floats(0.3, 2.0), min_size=4, max_size=4))
    start = draw(st.floats(-4.0, -1.0))
    mults = np.cumsum([start / phi0] + [g / phi0 for g in gaps])
    zeros = mults * phi0
    ups = draw(st.lists(st.floats(0.2, 6.0), min_size=3, max_size=3))
    downs = draw(st.lists(st.floats(-6.0, -0.2), min_size=2, max_size=2))
    slopes = [ups[0], downs[0], ups[1], downs[1], ups[2]]
    tail = draw(st.floats(0.2, 6.0))
    f = nc.build_nonlinearity(list(zip(zeros, slopes)), tail, tail,
                              blend_margin=draw(st.floats(0.2, 2.0)))
    member = draw(st.sampled_from(["base", "below", "above", "interval", "homotopy"]))
    if member == "below":
        f = nc.truncate(f, hi=zeros[1])
    elif member == "above":
        f = nc.truncate(f, lo=zeros[3])
    elif member == "interval":
        f = nc.truncate(f, lo=zeros[1], hi=zeros[3])
    elif member == "homotopy":
        f = nc.homotopy(f, draw(st.floats(0.0, 1.0)))
    return nc.EnergyFunctional(spec, f), mults


@settings(max_examples=40, deadline=None)
@given(member=five_zero_members(), seed=st.integers(0, 2**32 - 1),
       c0=st.floats(-20.0, 20.0), on_zero=st.one_of(st.none(), st.integers(0, 4)),
       amps=st.lists(st.floats(0.0, 6.0), min_size=1, max_size=6))
def test_bump_values_match_values(member, seed, c0, on_zero, amps):
    """The closed-form energies of fields c_0 e_0 + d bump, d >= 0, agree
    with the grid batch `values` to 1e-10 (1 + |J|): for random bumps, d = 0
    among the amplitudes, and constants whose grid value sits exactly on a
    breakpoint of F."""
    func, mults = member
    if on_zero is not None:
        # a truncation keeps the zeros of its window as breakpoints
        kept = [c for c in mults if c * func.spectrum.basis[0, 0] in func.nonlinearity.fppoly.x]
        assert len(kept) >= 2
        c0 = kept[on_zero % len(kept)]
    bump = np.random.default_rng(seed).standard_normal(MODES)
    bump /= func.spectrum.h1_norm(bump)
    amps = np.array([0.0, *amps])
    rows = amps[:, None] * bump
    rows[:, 0] += c0
    want = func.values(rows)
    got = func.bump_values(np.full(len(amps), c0), amps, bump)
    assert np.all(np.abs(got - want) <= 1e-10 * (1.0 + np.abs(want)))
