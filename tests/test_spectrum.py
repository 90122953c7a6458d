import itertools

import numpy as np
import pytest

import neucrit as nc
from neucrit.spectrum import Domain, build_spectrum, split_spectrum


def test_interval_eigenvalues_exact():
    # lambda_j = (j pi / L)^2 = j^2 on [0, pi]
    spec = build_spectrum(Domain("interval", (np.pi,)), 16)
    j = np.arange(16)
    assert np.max(np.abs(spec.eigenvalues - j.astype(float) ** 2)) < 1e-12


def test_interval_general_length():
    L = 2.7
    spec = build_spectrum(Domain("interval", (L,)), 8)
    expect = np.array([(j * np.pi / L) ** 2 for j in range(8)])
    assert np.allclose(spec.eigenvalues, expect, rtol=0, atol=1e-13)


def test_rectangle_tensor_sums_sorted():
    spec = build_spectrum(Domain("rectangle", (np.pi, np.pi)), 11)
    # 0, 1, 1, 2, 4, 4, 5, 5, 8, 9, 9 with the (a,b) tie order fixed
    assert np.allclose(spec.eigenvalues, [0, 1, 1, 2, 4, 4, 5, 5, 8, 9, 9], atol=1e-12)
    assert spec.modes[1] == (0, 1) and spec.modes[2] == (1, 0)
    assert spec.modes[4] == (0, 2) and spec.modes[5] == (2, 0)
    assert spec.modes[9] == (0, 3) and spec.modes[10] == (3, 0)
    assert np.all(np.diff(spec.eigenvalues) >= -1e-14)


def test_build_spectrum_keeps_whole_clusters():
    """A mode count that ends inside a cluster of equal eigenvalues is a
    ValueError wherever the spectrum is built, naming the nearest whole
    counts: on the square [0, pi]^2 the 10th and 11th modes, (0, 3) and
    (3, 0), share the eigenvalue 9.  An interval's eigenvalues are simple,
    so every count passes there."""
    square = Domain("rectangle", (np.pi, np.pi))
    with pytest.raises(ValueError, match=r"modes=10 splits the eigenvalue 9 .* use modes=9 or 11"):
        build_spectrum(square, 10)
    with pytest.raises(ValueError, match=r"modes=12 splits .* use modes=11 or 13"):
        build_spectrum(square, 12)
    for modes in (9, 11, 13):
        assert build_spectrum(square, modes).n_modes == modes
    for modes in range(1, 12):
        assert build_spectrum(Domain("interval", (np.pi,)), modes).n_modes == modes


def test_gram_identity():
    """Trapezoid quadrature with the enforced oversampling integrates the
    basis products exactly, so the discrete Gram matrix is the identity."""
    for dom in (Domain("interval", (np.pi,)), Domain("rectangle", (2.0, 1.0))):
        spec = build_spectrum(dom, 6)
        G = spec.basis.T @ (spec.weights[:, None] * spec.basis)
        assert np.max(np.abs(G - np.eye(6))) < 1e-12


def test_project_evaluate_roundtrip():
    spec = build_spectrum(Domain("interval", (np.pi,)), 12)
    rng = np.random.default_rng(3)
    c = rng.standard_normal(12)
    assert np.max(np.abs(spec.project(spec.evaluate(c)) - c)) < 1e-12


def test_h1_norm_matches_gradient_quadrature():
    # |u|_H1^2 = int |grad u|^2 + int u^2, computed two ways; the gradient
    # comes from differentiating the closed-form cosine modes
    spec = build_spectrum(Domain("rectangle", (np.pi, 1.5)), 9)
    rng = np.random.default_rng(4)
    c = rng.standard_normal(9)
    u = spec.evaluate(c)
    norms = np.array([pair.norm_constant for pair in spec.pairs])
    freq = np.pi * np.array(spec.modes) / np.array(spec.domain.lengths)
    arg = spec.points[:, None, :] * freq  # (points, modes, axes)
    cos, dcos = np.cos(arg), -freq * np.sin(arg)
    grads = [(dcos[..., 0] * cos[..., 1] * norms) @ c,
             (cos[..., 0] * dcos[..., 1] * norms) @ c]
    quad = spec.integrate(u**2) + sum(spec.integrate(g**2) for g in grads)
    assert abs(spec.h1_norm(c) ** 2 - quad) < 1e-10 * max(1.0, quad)


def test_constant_field():
    spec = build_spectrum(Domain("interval", (np.pi,)), 5)
    c = spec.constant_field(-1.5)
    vals = spec.evaluate(c)
    assert np.max(np.abs(vals + 1.5)) < 1e-13
    assert abs(spec.h1_norm(c) - 1.5 * np.sqrt(np.pi)) < 1e-13
    assert np.all(c[1:] == 0.0)


def test_quadrature_floor_enforced():
    with pytest.raises(ValueError, match="anti-aliasing"):
        build_spectrum(Domain("interval", (np.pi,), quad_points=32), 16)


def test_split_counts_and_blocks():
    spec = build_spectrum(Domain("interval", (np.pi,)), 16)
    sp = split_spectrum(spec, 2.5)
    assert sp.k == 2
    assert list(sp.x_indices) == [0, 1]
    assert sp.eigenvalues[sp.x_indices].max() == 1.0
    assert sp.lambda_min_y == 4.0
    # multiplicity counts on the square: slope 2.5 crosses 0, 1, 1, 2
    sq = split_spectrum(build_spectrum(Domain("rectangle", (np.pi, np.pi)), 13), 2.5)
    assert sq.k == 4


def test_split_resonant_raises():
    spec = build_spectrum(Domain("interval", (np.pi,)), 16)
    with pytest.raises(nc.ResonantSlope):
        split_spectrum(spec, 4.0)
    with pytest.raises(nc.ResonantSlope):
        split_spectrum(spec, 4.0 + 1e-10)
    # original object unchanged
    assert spec.k is None


def test_projections_decompose():
    sp = split_spectrum(build_spectrum(Domain("interval", (np.pi,)), 10), 2.5)
    rng = np.random.default_rng(0)
    c = rng.standard_normal(10)
    x, y = sp.x_projection(c), sp.y_projection(c)
    assert np.allclose(x + y, c)
    assert abs(sp.h1_inner(x, y)) < 1e-14


_BOXES = (Domain("interval", (np.pi,)), Domain("rectangle", (np.pi, 1.5)))


def test_evaluate_at_matches_grid():
    rng = np.random.default_rng(1)
    for domain in _BOXES:
        spec = build_spectrum(domain, 8)
        c = rng.standard_normal(8)
        pts = spec.points
        assert np.max(np.abs(spec.evaluate_at(c, pts) - spec.evaluate(c))) < 1e-12


def test_evaluate_at_reads_one_point_per_row():
    """`evaluate_at` takes (n, ndim) points and no other layout: a square
    array on the rectangle is two points, not two coordinates, and an
    (ndim, n) array is refused rather than transposed."""
    rng = np.random.default_rng(3)
    for domain in _BOXES:
        spec = build_spectrum(domain, 8)
        c = rng.standard_normal(8)
        pts = rng.uniform(size=(domain.ndim, domain.ndim)) * domain.lengths
        one_by_one = [spec.evaluate_at(c, p[None, :])[0] for p in pts]
        assert np.array_equal(spec.evaluate_at(c, pts), one_by_one)
        with pytest.raises(ValueError, match=rf"\(n, {domain.ndim}\)"):
            spec.evaluate_at(c, np.zeros((domain.ndim, 5)))


def test_mirror_is_reflection():
    """Every row of the sign table reflects the field across the midlines
    of its axes, on the interval and on the rectangle: the identity, the
    mirror across each nonempty set of axes in order, then the same
    elements negated.  Each row is an involution and an H1 isometry."""
    rng = np.random.default_rng(2)
    for domain in _BOXES:
        spec = build_spectrum(domain, 8)
        c = rng.standard_normal(8)
        pts = rng.uniform(size=(33, domain.ndim)) * domain.lengths
        axis_sets = [axes for r in range(domain.ndim + 1)
                     for axes in itertools.combinations(range(domain.ndim), r)]
        signs = spec.symmetry_signs(odd=True)
        assert len(signs) == 2 * len(axis_sets)
        for g, row in enumerate(signs):
            axes = axis_sets[g % len(axis_sets)]
            sign = -1.0 if g >= len(axis_sets) else 1.0
            reflected = pts.copy()
            for ax in axes:
                reflected[:, ax] = domain.lengths[ax] - reflected[:, ax]
            left = spec.evaluate_at(row * c, pts)
            right = sign * spec.evaluate_at(c, reflected)
            assert np.max(np.abs(left - right)) < 1e-12, (axes, sign)
            assert np.array_equal(row * (row * c), c)
            assert spec.h1_norm(row * c) == spec.h1_norm(c)
        assert np.array_equal(spec.symmetry_signs(odd=False), signs[:len(axis_sets)])


def test_domain_validation():
    with pytest.raises(ValueError):
        Domain("interval", (np.pi, 1.0))
    with pytest.raises(ValueError):
        Domain("rectangle", (np.pi,))
    with pytest.raises(ValueError):
        Domain("disk", (1.0,))
    with pytest.raises(ValueError):
        Domain("interval", (-1.0,))
