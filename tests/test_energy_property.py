"""The derivatives the root solve trusts, checked on random coefficients:
`l2_gradient` is the gradient of `value`, and `hessian_pencil(u)[0]` is
the symmetric Jacobian of `l2_gradient`, on the interval and rectangle
spectra of the benchmark workloads."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import neucrit as nc
from conftest import REF5_KNOTS

MODES = 16
F = nc.build_nonlinearity(REF5_KNOTS, 2.5, 2.5)
FUNCTIONALS = {
    "interval": nc.EnergyFunctional(
        nc.split_spectrum(nc.build_spectrum(nc.Domain("interval", (np.pi,), 512), MODES), 2.5),
        F),
    "rectangle": nc.EnergyFunctional(
        nc.split_spectrum(nc.build_spectrum(nc.Domain("rectangle", (np.pi, 1.5)), MODES), 2.5),
        F),
}

# coefficients up to 3 in size put field values past every knot of f and
# into both linear tails
COEFFS = st.lists(st.floats(-3.0, 3.0), min_size=MODES, max_size=MODES).map(np.array)


def _central_differences(fn, c, h):
    """Column j is (fn(c + h e_j) - fn(c - h e_j)) / 2h."""
    cols = []
    for j in range(len(c)):
        e = np.zeros(len(c))
        e[j] = h
        cols.append((np.asarray(fn(c + e)) - np.asarray(fn(c - e))) / (2.0 * h))
    return np.array(cols).T


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(sorted(FUNCTIONALS)), c=COEFFS)
def test_l2_gradient_matches_value_differences(kind, c):
    func = FUNCTIONALS[kind]
    fd = _central_differences(func.value, c, 1e-6)
    g = func.l2_gradient(c)
    assert np.max(np.abs(fd - g)) < 1e-7 * max(1.0, np.max(np.abs(g)))


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(sorted(FUNCTIONALS)), c=COEFFS)
def test_hessian_is_symmetric_jacobian_of_l2_gradient(kind, c):
    func = FUNCTIONALS[kind]
    A = func.hessian_pencil(c)[0]
    scale = max(1.0, np.max(np.abs(A)))
    assert np.max(np.abs(A - A.T)) < 1e-13 * scale
    fd = _central_differences(func.l2_gradient, c, 1e-5)
    assert np.max(np.abs(fd - A)) < 1e-5 * scale
