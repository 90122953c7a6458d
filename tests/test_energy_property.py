"""The derivatives the root solve trusts, checked on random coefficients:
`l2_gradient` is the gradient of `value`, and `hessian_pencil(u)[0]` is
the symmetric Jacobian of `l2_gradient`, on the interval and rectangle
spectra of the benchmark workloads.  At constant fields the closed-form
Morse data of `morse_data` must equal the assembled pencil's, and the
closed-form energy, gradients and range the grid quadrature's."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import neucrit as nc
from conftest import REF5_KNOTS
from neucrit.energy import DEGENERACY_TOL

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


def _numeric_morse_data(func, c):
    """The Morse data of `hessian_spectrum`: the assembled pencil solved by
    `eigh`, with the index and degenerate flag `morse_data` reads off it."""
    evals, evecs = func.hessian_spectrum(c)
    return (evals, evecs, int(np.count_nonzero(evals < -DEGENERACY_TOL)),
            bool(np.min(np.abs(evals)) < DEGENERACY_TOL))


def _assert_same_morse_data(func, c):
    evals, evecs, index, degenerate = func.morse_data(c)
    n_evals, n_evecs, n_index, n_degenerate = _numeric_morse_data(func, c)
    assert np.max(np.abs(evals - n_evals)) < 1e-12
    assert (index, degenerate) == (n_index, n_degenerate)
    B = np.diag(1.0 + func.spectrum.eigenvalues)
    assert np.max(np.abs(evecs.T @ B @ evecs - np.eye(len(evals)))) < 1e-12
    # a simple eigenvalue has one eigenfield up to sign
    gaps = np.diff(n_evals)
    simple = np.minimum(np.append(gaps, np.inf), np.insert(gaps, 0, np.inf)) > 1e-6
    for j in np.flatnonzero(simple):
        sign = np.sign(evecs[:, j] @ B @ n_evecs[:, j])
        assert np.max(np.abs(evecs[:, j] - sign * n_evecs[:, j])) < 1e-8
    return index, degenerate


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(sorted(FUNCTIONALS)),
       t=st.one_of(st.sampled_from([t for t, _ in REF5_KNOTS]), st.floats(-6.0, 6.0)))
def test_constant_morse_data_matches_the_assembled_pencil(kind, t):
    """At a constant field `morse_data` reads its data off the spectrum;
    it must agree with the assembled pencil at the zeros of f and at any
    constant, solution or not."""
    func = FUNCTIONALS[kind]
    _assert_same_morse_data(func, func.spectrum.constant_field(t))


@settings(max_examples=20, deadline=None)
@given(kind=st.sampled_from(sorted(FUNCTIONALS)), j=st.integers(1, 5))
def test_resonant_constant_is_degenerate(kind, j):
    """A constant zero whose slope is an eigenvalue lam_j has an exactly
    zero Hessian eigenvalue; both paths call it degenerate and count only
    the modes below lam_j in the index."""
    spec = FUNCTIONALS[kind].spectrum
    lam = float(spec.eigenvalues[j])
    func = nc.EnergyFunctional(spec, nc.build_nonlinearity([(0.0, lam)], 2.5, 2.5))
    assert func.nonlinearity.deriv(0.0) == lam
    index, degenerate = _assert_same_morse_data(func, spec.constant_field(0.0))
    assert degenerate
    assert index == int(np.count_nonzero(spec.eigenvalues < lam))
    assert 0.0 in func.morse_data(spec.constant_field(0.0))[0]


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(sorted(FUNCTIONALS)),
       t=st.one_of(st.sampled_from([t for t, _ in REF5_KNOTS]), st.floats(-50.0, 50.0)))
def test_constant_field_data_matches_the_grid_quadrature(kind, t):
    """At a constant field `value`, `gradient`, `l2_gradient` and
    `field_range` read their data off its one grid value t.  They agree
    with the grid quadrature, a field transform and a projection over
    every point, to rounding, and the range is the grid's bit for bit:
    every entry of the constant mode's column is the same float."""
    func = FUNCTIONALS[kind]
    spec, f = func.spectrum, func.nonlinearity
    u = spec.constant_field(t)
    vals = spec.evaluate(u)
    assert np.all(vals == spec.grid_constant(u))
    J = 0.5 * np.sum(spec.eigenvalues * u * u) - spec.integrate(f.primitive(vals))
    assert abs(func.value(u) - J) <= 1e-13 * max(1.0, abs(J))
    g = spec.eigenvalues * u - spec.project(f(vals))
    scale = max(1.0, np.max(np.abs(g)))
    assert np.max(np.abs(func.l2_gradient(u) - g)) <= 1e-13 * scale
    assert np.max(np.abs(func.gradient(u) - g / (1.0 + spec.eigenvalues))) <= 1e-13 * scale
    assert spec.field_range(u) == (float(vals.min()), float(vals.max()))
    # one coefficient off mode 0 leaves the closed form
    u[3] = 1e-300
    assert spec.grid_constant(u) is None
