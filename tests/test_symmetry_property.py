"""The invariances the searches skip work on, checked on random inputs.

The reduced map psi is equivariant under the symmetry group
(`SpectrumSlice.symmetry_signs`), so `maximize_reduced` solves it once per
orbit; and the line of constant fields is invariant under the root solve,
so the homotopy stage starts on it only at the zeros of f.  Both are
checked on the interval and rectangle spectra of the benchmark workloads,
the first with an odd and a non-odd f.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import neucrit as nc
from neucrit.reduction import psi_population

from conftest import REF5_KNOTS

MODES = 16
SPECTRA = {
    "interval": nc.split_spectrum(
        nc.build_spectrum(nc.Domain("interval", (np.pi,), 512), MODES), 2.5),
    "rectangle": nc.split_spectrum(
        nc.build_spectrum(nc.Domain("rectangle", (np.pi, 1.5)), MODES), 2.5),
}
# the reference f, and the same with its top zero moved so it is not odd
NONLINEARITIES = {
    "odd": nc.build_nonlinearity(REF5_KNOTS, 2.5, 2.5),
    "not odd": nc.build_nonlinearity([*REF5_KNOTS[:4], (2.25, 2.5)], 2.5, 2.5),
}
CONTEXTS = {
    (kind, name): nc.make_reduction_context(nc.EnergyFunctional(spec, f))
    for kind, spec in SPECTRA.items() for name, f in NONLINEARITIES.items()
}


@settings(max_examples=30, deadline=None)
@given(key=st.sampled_from(sorted(CONTEXTS)),
       xs=st.lists(st.lists(st.floats(-6.0, 6.0), min_size=2, max_size=2),
                   min_size=1, max_size=4).map(np.array))
def test_psi_is_equivariant(key, xs):
    """psi of an image row is the image of psi of the row, with the same
    reduced value, for every element of the group."""
    ctx = CONTEXTS[key]
    spec = ctx.spectrum
    assert ctx.k == xs.shape[1]
    signs = spec.symmetry_signs(ctx.functional.nonlinearity.odd)
    assert len(signs) == (2 if spec.domain.ndim == 1 else 4) * (2 if key[1] == "odd" else 1)
    rows = np.zeros((len(xs), MODES))
    rows[:, spec.x_indices] = xs
    base = psi_population(ctx, rows)
    for sign in signs:
        image = psi_population(ctx, sign * rows)
        assert np.max(np.abs(image.y - sign * base.y)) <= 1e-10
        assert np.max(np.abs(image.values - base.values)) <= 1e-10 * (1.0 + np.max(np.abs(base.values)))


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(sorted(SPECTRA)), lam=st.floats(0.0, 0.4),
       t=st.floats(-8.0, 8.0))
def test_root_solve_stays_on_the_constant_line(kind, lam, t):
    """A root solve from a constant field of a homotopy member fails or
    ends at the constant field of one of the member's zeros, the starts
    the homotopy stage seeds at lam = 0, also where f' meets an
    eigenvalue (t = 1/3 at lam = 0 on the interval).  The solve keeps to
    the line, so only the constant coefficient can differ from the zero's,
    by far less than DEDUP_RADIUS."""
    spec = SPECTRA[kind]
    g = nc.homotopy(NONLINEARITIES["odd"], lam)
    u = nc.refine_critical(nc.EnergyFunctional(spec, g), spec.constant_field(t))
    if u is not None:
        zeros = nc.find_zeros(g, -np.inf, np.inf)
        assert min(spec.h1_dist(u, spec.constant_field(z)) for z in zeros) <= 1e-6
