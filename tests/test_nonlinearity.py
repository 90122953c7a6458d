import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import neucrit as nc
from neucrit.nonlinearity import (
    build_nonlinearity,
    check_hypotheses,
    find_zeros,
    homotopy,
    truncate,
)

from conftest import REF5_KNOTS


@pytest.fixture(scope="module")
def f5():
    return build_nonlinearity(REF5_KNOTS, 2.5, 2.5)


def test_knot_interpolation(f5):
    for t, s in REF5_KNOTS:
        assert abs(f5(t)) < 1e-14
        assert abs(f5.deriv(t) - s) < 1e-12


def test_exact_affine_tails(f5):
    # beyond the blend window the function IS the tail line, not approximately
    for t in (-3.0, -5.0, -40.0):
        assert f5(t) == pytest.approx(2.5 * (t + 2.0), abs=1e-12)
    for t in (3.0, 5.0, 40.0):
        assert f5(t) == pytest.approx(2.5 * (t - 2.0), abs=1e-12)


def test_c1_at_breakpoints(f5):
    eps = 1e-7
    for x in f5.ppoly.x[1:-1]:
        assert abs(f5(x - eps) - f5(x + eps)) < 1e-6
        assert abs(f5.deriv(x - eps) - f5.deriv(x + eps)) < 1e-5


def test_odd_symmetry(f5):
    # symmetric knot pattern makes f odd and its primitive even
    ts = np.linspace(-4.0, 4.0, 401)
    assert np.max(np.abs(f5(ts) + f5(-ts))) < 1e-12
    assert np.max(np.abs(f5.primitive(ts) - f5.primitive(-ts))) < 1e-12


def test_odd_flag_true_on_odd_instances(f5):
    """The reference, the k = 3 instance (crossing and tail slopes 5), a
    wider blend, the homotopy members of an odd base and a symmetric
    interval truncation are odd."""
    k3 = build_nonlinearity([(t, 5.0 if s > 0 else s) for t, s in REF5_KNOTS], 5.0, 5.0)
    assert f5.odd and k3.odd
    assert build_nonlinearity(REF5_KNOTS, 2.5, 2.5, blend_margin=1.5).odd
    for lam in (0.0, 0.3, 1.0):
        assert homotopy(f5, lam).odd and homotopy(k3, lam).odd
    assert truncate(f5, -1.0, 1.0).odd


def test_odd_flag_false_when_a_piece_breaks_the_mirror(f5):
    shifted = [(2.1 if t == 2.0 else t, s) for t, s in REF5_KNOTS]
    steeper = [(t, 2.6 if t == 2.0 else s) for t, s in REF5_KNOTS]
    cases = {
        "asymmetric knots": build_nonlinearity(shifted, 2.5, 2.5),
        "asymmetric knot slopes": build_nonlinearity(steeper, 2.5, 2.5),
        "off-centre shape point": build_nonlinearity(
            REF5_KNOTS, 2.5, 2.5, shape_points=[(0.5, 0.3, 0.0)]),
        "asymmetric tails": build_nonlinearity(REF5_KNOTS, 2.5, 3.0),
        "below(-1)": truncate(f5, hi=-1.0),
        "below(1)": truncate(f5, hi=1.0),
        "above(-1)": truncate(f5, lo=-1.0),
        "above(1)": truncate(f5, lo=1.0),
    }
    for name, g in cases.items():
        assert not g.odd, name


_HALF_KNOTS = st.lists(
    st.tuples(st.floats(0.1, 5.0), st.floats(-6.0, 6.0)),
    min_size=1, max_size=4, unique_by=lambda k: round(k[0], 1),
)


@settings(max_examples=60, deadline=None)
@given(knots=_HALF_KNOTS, centre=st.none() | st.floats(-6.0, 6.0),
       tail=st.floats(-6.0, 6.0), margin=st.floats(0.2, 3.0))
def test_odd_flag_on_mirrored_knots(knots, centre, tail, margin):
    """Knots (t, s) with their mirrors (-t, s), an optional knot at 0 and
    equal tail slopes give an odd f, and the flag says so; f(-t) = -f(t)
    holds at sampled points.  Changing the slope of one mirror breaks it."""
    mirrored = knots + [(-t, s) for t, s in knots]
    full = mirrored + ([] if centre is None else [(0.0, centre)])
    g = build_nonlinearity(full, tail, tail, blend_margin=margin)
    assert g.odd
    ts = np.linspace(0.0, max(t for t, _ in knots) + margin + 2.0, 257)
    assert np.all(np.abs(g(-ts) + g(ts)) <= 1e-10 * (1.0 + np.abs(g(ts))))
    bent = list(full)
    bent[len(knots)] = (-knots[0][0], knots[0][1] + 0.5)
    assert not build_nonlinearity(bent, tail, tail, blend_margin=margin).odd


def test_tail_offset_sup_with_subnormal_quadratic_coefficient():
    """Knot slopes s, -s, s at -1, 0, 1 leave each inner piece with a zero
    cubic and a quadratic coefficient of order s; at s = 5e-324 the vertex
    quotient used to overflow.  M is that of the flat knots."""
    tiny = 5e-324
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = build_nonlinearity([(-1.0, tiny), (0.0, -tiny), (1.0, tiny)], 1.0, 1.0)
    flat = build_nonlinearity([(-1.0, 0.0), (0.0, 0.0), (1.0, 0.0)], 1.0, 1.0)
    assert g.M == pytest.approx(flat.M, rel=1e-15)


@settings(max_examples=60, deadline=None)
@given(knots=_HALF_KNOTS, centre=st.none() | st.floats(-6.0, 6.0),
       tail=st.floats(-6.0, 6.0), margin=st.floats(0.2, 3.0), lam=st.floats(0.0, 1.0))
@example(knots=[(1.0, 1.8612954071127512e-162)], centre=None, tail=0.0, margin=1.0, lam=0.5)
def test_homotopy_member_offset_scales(knots, centre, tail, margin, lam):
    """M of the member h_lam = lam s t + (1 - lam) f is (1 - lam) M of f;
    the homotopy sweep's skip rule rests on it.  The error is taken
    relative to f's M: the blended coefficients carry rounding of order
    eps |s t|, which does not shrink with 1 - lam.  Below the smallest
    normal float values keep only an absolute precision, so a subnormal M
    is measured against that floor.  Building f and h_lam (gamma,
    min_slope and M) raises no numpy warning, subnormal knot slopes
    included.  The example's slopes of order 1e-162 put b * b - 3 a c
    below the normal range, where it used to drop M under sup |f|."""
    mirrored = knots + [(-t, s) for t, s in knots]
    full = mirrored + ([] if centre is None else [(0.0, centre)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = build_nonlinearity(full, tail, tail, blend_margin=margin)
        h = homotopy(g, lam)
    scale = max(g.M, np.finfo(float).tiny)
    assert abs(h.M - (1.0 - lam) * g.M) <= 1e-12 * scale


def test_primitive_values(f5):
    assert f5.primitive(0.0) == 0.0
    assert f5.primitive(1.0) == pytest.approx(11.0 / 24.0, abs=1e-13)
    assert abs(f5.primitive(2.0)) < 1e-13
    assert abs(f5.primitive(-2.0)) < 1e-13
    # derivative of the primitive recovers f
    ts = np.linspace(-3.0, 3.0, 97)
    h = 1e-6
    fd = (f5.primitive(ts + h) - f5.primitive(ts - h)) / (2 * h)
    assert np.max(np.abs(fd - f5(ts))) < 1e-7


def test_deriv_matches_fd(f5):
    rng = np.random.default_rng(5)
    ts = rng.uniform(-4, 4, 50)
    h = 1e-6
    fd = (f5(ts + h) - f5(ts - h)) / (2 * h)
    assert np.max(np.abs(fd - f5.deriv(ts))) < 1e-6


def test_certified_slope_bounds(f5):
    # REF5 blends are exactly the tail lines, so the extremes are the knot slopes
    assert f5.gamma == pytest.approx(2.5, abs=1e-12)
    assert f5.min_slope == pytest.approx(-3.0, abs=1e-12)


def test_certified_bound_beats_knot_sampling():
    """Two minimum-type zeros force an interior hump and steep blends; the
    certified sup f' must pick up the blend vertex 7/3, which no sample at
    the knots would see."""
    g = build_nonlinearity([(0.0, -3.0), (1.0, -3.0)], 1.0, 1.0)
    assert g.gamma == pytest.approx(7.0 / 3.0, abs=1e-12)
    assert g.min_slope == pytest.approx(-3.0, abs=1e-12)
    # the interior hump's own maximum is lower
    ts = np.linspace(0.0, 1.0, 2001)
    assert g.deriv(ts).max() == pytest.approx(1.5, abs=1e-3)


def test_tail_offset_sup_exact(f5):
    """M = sup |f(t) - s t| from the cubic pieces agrees with the
    independent np.roots oracle of acceptance 09, and it is 5 on the
    reference (the offset 2.5 * 2 at the outer crossing zeros)."""
    from test_acceptance import _tail_offset_sup

    assert f5.M == pytest.approx(5.0, abs=1e-12)
    hump = build_nonlinearity([(-1.0, -3.0), (1.0, -3.0)], 2.5, 2.5,
                              shape_points=[(0.0, 1.0, 0.5)])
    for g in (f5, hump, homotopy(f5, 0.3), homotopy(hump, 0.6),
              truncate(f5, -1.0, 1.0)):
        assert np.isfinite(g.M)
        assert g.M == pytest.approx(_tail_offset_sup(g), rel=1e-12, abs=1e-12)
        ts = np.linspace(-8.0, 8.0, 4001)
        assert np.max(np.abs(g(ts) - g.slope_plus_inf * ts)) <= g.M + 1e-12


def test_tail_offset_sup_unbounded_or_zero(f5):
    """M is infinite when the tail slopes differ (one-sided truncations,
    asymmetric tails) and exactly 0 for the linear homotopy end."""
    assert truncate(f5, hi=-1.0).M == np.inf
    assert truncate(f5, lo=1.0).M == np.inf
    assert build_nonlinearity(REF5_KNOTS, 2.5, 3.0).M == np.inf
    assert homotopy(f5, 1.0).M == 0.0


def test_shape_points_interpolated():
    g = build_nonlinearity(
        [(-1.0, -1.0), (1.0, -1.0)], 0.5, 0.5, shape_points=[(0.0, 0.7, 0.0)]
    )
    assert g(0.0) == pytest.approx(0.7, abs=1e-13)
    assert g.deriv(0.0) == pytest.approx(0.0, abs=1e-12)
    assert abs(g(-1.0)) < 1e-13 and abs(g(1.0)) < 1e-13


def test_duplicate_knots_rejected():
    with pytest.raises(nc.DuplicateKnots):
        build_nonlinearity([(0.0, -3.0), (1e-14, 2.0)], 1.0, 1.0)


def test_truncate_below(f5):
    g = truncate(f5, hi=-1.0)
    ts = np.linspace(-5.0, -1.0, 101)
    assert np.max(np.abs(g(ts) - f5(ts))) < 1e-12
    for t in (-0.5, 0.0, 2.0, 10.0):
        assert g(t) == pytest.approx(-3.0 * (t + 1.0), abs=1e-12)
    assert g.untouched == (-np.inf, -1.0)
    assert g.label == "below(-1)"
    assert g.knots == ((-2.0, 2.5), (-1.0, -3.0))
    assert g.gamma == pytest.approx(2.5)
    # primitive of the truncated member at the anchor (transfer offset data)
    assert g.primitive(-1.0) == pytest.approx(1.5, abs=1e-13)


def test_truncate_above(f5):
    g = truncate(f5, lo=1.0)
    ts = np.linspace(1.0, 5.0, 101)
    assert np.max(np.abs(g(ts) - f5(ts))) < 1e-12
    for t in (0.5, 0.0, -2.0):
        assert g(t) == pytest.approx(-3.0 * (t - 1.0), abs=1e-12)
    assert g.untouched == (1.0, np.inf)
    assert g.label == "above(1)"
    assert g.primitive(1.0) == pytest.approx(1.5, abs=1e-13)


def test_truncate_interval(f5):
    g = truncate(f5, -1.0, 1.0)
    ts = np.linspace(-1.0, 1.0, 101)
    assert np.max(np.abs(g(ts) - f5(ts))) < 1e-12
    assert g(-2.0) == pytest.approx(-3.0 * (-2.0 + 1.0), abs=1e-12)
    assert g(2.0) == pytest.approx(-3.0 * (2.0 - 1.0), abs=1e-12)
    assert g.untouched == (-1.0, 1.0)
    assert g.knots == ((-1.0, -3.0), (0.0, 2.5), (1.0, -3.0))


def test_truncations_compose(f5):
    """Truncating at 1 and then at -1 gives the interval member, in every
    field: pieces, knots, window and label."""
    g = truncate(truncate(f5, hi=1.0), lo=-1.0)
    h = truncate(f5, -1.0, 1.0)
    assert np.array_equal(g.ppoly.x, h.ppoly.x)
    assert np.array_equal(g.ppoly.c, h.ppoly.c)
    assert (g.knots, g.untouched, g.label) == (h.knots, h.untouched, h.label)
    assert g.label == "interval(-1,1)"


def test_truncate_errors(f5):
    with pytest.raises(nc.AnchorNotZero):
        truncate(f5, hi=-1.5)
    with pytest.raises(nc.AnchorSlopeNonNegative):
        truncate(f5, hi=0.0)  # crossing-type zero cannot anchor a truncation
    with pytest.raises(ValueError, match="at least one anchor"):
        truncate(f5)
    with pytest.raises(ValueError, match="lo < hi"):
        truncate(f5, 1.0, -1.0)


@settings(max_examples=40, deadline=None)
@given(knots=_HALF_KNOTS, centre=st.none() | st.floats(-6.0, 6.0),
       tail=st.floats(-6.0, 6.0), margin=st.floats(0.2, 3.0))
def test_window_composition_property(knots, centre, tail, margin):
    """On the mirrored knots of the oddness property, every pair of
    minimum-type zeros a < b gives equal composed and direct windows; f is
    unchanged on [a, b] and the tangent line beyond."""
    full = knots + [(-t, s) for t, s in knots]
    full += [] if centre is None else [(0.0, centre)]
    f = build_nonlinearity(full, tail, tail, blend_margin=margin)
    wells = sorted((t, s) for t, s in f.knots if s < 0)
    for i, (a, sa) in enumerate(wells):
        for b, sb in wells[i + 1:]:
            g = truncate(truncate(f, hi=b), lo=a)
            h = truncate(f, a, b)
            assert np.array_equal(g.ppoly.x, h.ppoly.x)
            assert np.array_equal(g.ppoly.c, h.ppoly.c)
            assert (g.knots, g.untouched, g.label) == (h.knots, h.untouched, h.label)
            assert h.untouched == (a, b)
            inside = np.linspace(a, b, 65)
            assert np.array_equal(h(inside), f(inside))
            left = a - np.linspace(0.0, 4.0, 17)[1:]
            right = b + np.linspace(0.0, 4.0, 17)[1:]
            scale = 1.0 + np.abs(sa) + np.abs(sb)
            assert np.allclose(h(left), sa * (left - a), rtol=0, atol=1e-12 * scale)
            assert np.allclose(h(right), sb * (right - b), rtol=0, atol=1e-12 * scale)


def test_homotopy_blend(f5):
    lam = 0.35
    h = homotopy(f5, lam)
    ts = np.linspace(-6.0, 6.0, 301)
    expect = lam * 2.5 * ts + (1 - lam) * f5(ts)
    assert np.max(np.abs(h(ts) - expect)) < 1e-12
    assert h.knots == ()
    assert h.untouched is None
    # slope certificates blend linearly for this family
    assert h.gamma == pytest.approx(2.5, abs=1e-12)
    assert h.min_slope == pytest.approx(lam * 2.5 - (1 - lam) * 3.0, abs=1e-12)


def test_homotopy_endpoints(f5):
    h0 = homotopy(f5, 0.0)
    ts = np.linspace(-6.0, 6.0, 301)
    assert np.max(np.abs(h0(ts) - f5(ts))) < 1e-14
    assert h0.knots == f5.knots
    h1 = homotopy(f5, 1.0)
    assert np.max(np.abs(h1(ts) - 2.5 * ts)) < 1e-12
    assert np.max(np.abs(h1(np.array([-50.0, 50.0])) - 2.5 * np.array([-50.0, 50.0]))) < 1e-10


def test_homotopy_requires_symmetric_tails():
    g = build_nonlinearity([(0.0, -1.0)], 2.5, 3.0)
    with pytest.raises(nc.AsymmetricSlopes):
        homotopy(g, 0.5)
    with pytest.raises(ValueError):
        homotopy(g, 1.5)


def test_find_zeros(f5):
    zs = find_zeros(f5, -4.0, 4.0)
    assert len(zs) == 5
    assert np.allclose(zs, [-2.0, -1.0, 0.0, 1.0, 2.0], atol=1e-9)


def test_find_zeros_off_the_knots():
    """A homotopy member's zeros move off the knots; the exact roots of
    its pieces match brentq on the sign changes of a fine scan."""
    from scipy.optimize import brentq

    hump = build_nonlinearity([(-1.0, -3.0), (1.0, -3.0)], 2.5, 2.5,
                              shape_points=[(0.0, 1.0, 0.5)])
    g = homotopy(hump, 0.3)
    ts = np.linspace(-5.0, 5.0, 4001)
    vals = g(ts)
    expect = [brentq(g, a, b, xtol=1e-14)
              for a, b, va, vb in zip(ts, ts[1:], vals, vals[1:]) if va * vb < 0]
    zs = find_zeros(g, -5.0, 5.0)
    assert expect and len(zs) == len(expect)
    assert np.max(np.abs(np.array(zs) - expect)) < 1e-12
    assert min(abs(z - t) for z in zs for t, _ in hump.knots) > 0.5


def test_check_hypotheses_reference(f5, ref5):
    spec, _, _ = ref5
    rep = check_hypotheses(f5, spec)
    assert rep.symmetric_slopes and rep.nonresonant
    assert rep.k == 2
    assert rep.crossed_eigenvalues == (0.0, 1.0)
    assert rep.reduction_applicable
    assert rep.modulus == pytest.approx(0.3, abs=1e-12)
    assert rep.five_pattern
    # three crossings, each above two eigenvalues: sign sum 3 != 1
    assert rep.extra_solution_condition is True
    assert rep.crossing_matches_k
    kinds = [z.kind for z in rep.zeros]
    assert kinds == ["crossing", "minimum", "crossing", "minimum", "crossing"]
    d = rep.to_dict()
    assert d["k"] == 2 and len(d["zeros"]) == 5


def test_check_hypotheses_inapplicable(ref5):
    spec, _, _ = ref5
    g = build_nonlinearity([(0.0, 6.0)], 2.5, 2.5)
    rep = check_hypotheses(g, spec)
    assert rep.gamma >= 6.0
    assert not rep.reduction_applicable
    assert rep.modulus is None
    assert not rep.five_pattern
    assert any("complement spectrum" in n for n in rep.notes)


def test_check_hypotheses_empty_y_block(f5):
    spec = nc.build_spectrum(nc.Domain("interval", (np.pi,)), 2)
    rep = check_hypotheses(f5, spec)
    assert rep.k == 2
    assert not rep.reduction_applicable
    assert np.isnan(rep.lambda_min_y)
