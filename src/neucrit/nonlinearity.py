"""Piecewise-cubic nonlinearities with prescribed zeros and affine tails.

A nonlinearity is built from a list of zeros (t_i, s_i), meaning f(t_i) = 0
with f'(t_i) = s_i, joined by C1 cubic Hermite pieces, plus affine tails of
prescribed asymptotic slope.  Each tail is attached through a single cubic
blend piece of configurable width, so the whole function is C1 by
construction and exactly affine outside a bounded window.  The primitive F
(with F(0) = 0) is the exact piecewise antiderivative.  One exact
routine, not sampling, gives the certified sup f', inf f', sup |f''| and
M = sup |f(t) - s t| for a common tail slope s: the extremes of f', f''
and f - s t over the pieces (f - s t is constant on the affine tails).
`coefficient_bound` turns M into the a-priori bound on the coefficients
of every Galerkin solution.
Oddness, f(-t) = -f(t), is read off the pieces the same way: breakpoints
symmetric about 0 and each cubic piece the negated mirror of its partner.

A truncation keeps f on a window [lo, hi] whose given ends are zeros of
negative slope and follows the tangent line at each end beyond it, the
standard device for confining solutions to one side of a minimum-type zero.
One builder covers every case: an open end leaves that side alone, and
truncations compose, so a window is the intersection of the ones applied.
The homotopy member blends f toward the linear function with the asymptotic
slope.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.interpolate import PPoly

from .errors import (
    AnchorNotZero,
    AnchorSlopeNonNegative,
    AsymmetricSlopes,
    DuplicateKnots,
    NonC1Blend,
    ReductionInapplicable,
)
from .spectrum import resonance_margin

__all__ = [
    "Nonlinearity",
    "build_nonlinearity",
    "truncate",
    "homotopy",
    "find_zeros",
    "ZeroReport",
    "HypothesisReport",
    "check_hypotheses",
    "reduction_modulus",
    "coefficient_bound",
]

_ANCHOR_TOL = 1e-12
# widest window [t0 - margin, t1 + margin] the cubic pieces may span.  The
# C1 audit of `_finish` checks each piece's end value to 1e-6 (1 + S), S
# the largest |f'|.  Every node value is within S x span of a zero, and
# each term of a piece's Horner sum is at most a few S x span, so the
# rounding of that sum stays under about 45 eps S span; at span 1e8 that is
# 1e-6 S.  Measured, the audit first fails at spans of 1.7e9 (one knot of
# the reference moved out to 1e10, 1e12 or 1e15 fails it).
_MAX_SPAN = 1e8


def _hermite_coeffs(h, y0, d0, y1, d1):
    # cubic on [0, h] in PPoly order (descending powers)
    c3 = (2.0 * (y0 - y1) + h * (d0 + d1)) / h**3
    c2 = (3.0 * (y1 - y0) - h * (2.0 * d0 + d1)) / h**2
    return [c3, c2, d0, y0]


def _value_range(c, x):
    """Exact (least, greatest) value of the piecewise polynomial of degree
    at most 3 with PPoly coefficients `c` and breakpoints `x`: each piece
    at its ends and at the real roots of its derivative inside it, by
    Horner's rule.  Python floats, as numpy's scalar calls per piece cost
    more than the arithmetic."""
    c = [[0.0] * c.shape[1]] * (4 - len(c)) + c.tolist()
    lo, hi = math.inf, -math.inf
    for a, b, cc, d, h in zip(*c, np.diff(x).tolist()):
        ts = [0.0, h]
        # the derivative's roots are those of the coefficients scaled by a
        # power of two, which is exact and keeps b * b - 3 a c from
        # underflowing when the coefficients are tiny
        e = -math.frexp(max(abs(a), abs(b), abs(cc)))[1]
        p, q, r = math.ldexp(a, e), math.ldexp(b, e), math.ldexp(cc, e)
        if p != 0.0:
            disc = q * q - 3.0 * p * r
            if disc >= 0.0:
                z = math.sqrt(disc)
                ts += [(-q + z) / (3.0 * p), (-q - z) / (3.0 * p)]
        elif q != 0.0 and 0.0 <= (-r if q > 0.0 else r) <= 2.0 * abs(q) * h:
            # the vertex lies in [0, h]; testing that before dividing keeps
            # a subnormal b from overflowing the quotient
            ts.append(-r / (2.0 * q))
        for t in ts:
            if 0.0 <= t <= h:
                v = ((a * t + b) * t + cc) * t + d
                lo, hi = min(lo, v), max(hi, v)
    return lo, hi


# relative tolerance of the piecewise oddness test
_ODD_TOL = 1e-12


def _is_odd(pp: PPoly) -> bool:
    """Exact test of f(-t) = -f(t) for f with equal tail slopes:
    breakpoints symmetric about 0 and each cubic piece equal to minus its
    mirrored partner at four points of the piece, which pins two cubics
    down.  The outer pieces are the affine tails, so the test covers the
    whole line."""
    x = pp.x
    if np.any(np.abs(x + x[::-1]) > _ODD_TOL * (1.0 + np.max(np.abs(x)))):
        return False
    h = np.diff(x)
    # piece i at local offsets tau is t = x_i + tau; its partner, piece
    # n - 1 - i, holds -t at local offset h_i - tau
    tau = np.linspace(0.0, 1.0, 4)[:, None] * h
    mirrored = h[::-1] - tau
    ci, cj = pp.c, pp.c[:, ::-1]
    vi = ((ci[0] * tau + ci[1]) * tau + ci[2]) * tau + ci[3]
    vj = ((cj[0] * mirrored + cj[1]) * mirrored + cj[2]) * mirrored + cj[3]
    return bool(np.all(np.abs(vi + vj) <= _ODD_TOL * (1.0 + np.abs(vi) + np.abs(vj))))


@dataclass(frozen=True)
class Nonlinearity:
    """Callable piecewise-cubic nonlinearity.  Use the module builders."""

    ppoly: PPoly
    knots: tuple  # ((t, slope), ...) prescribed zeros still valid for this member
    slope_minus_inf: float
    slope_plus_inf: float
    blend_margin: float
    gamma: float  # certified sup f'
    min_slope: float  # certified inf f'
    curvature: float  # certified sup |f''|
    # certified sup |f(t) - s t| for the common tail slope s; finite exactly
    # when the two tail slopes are equal, which is what "equal tails" means
    M: float
    odd: bool  # f(-t) = -f(t) for every t, decided from the pieces
    untouched: tuple | None  # (lo, hi) where this member coincides with its base
    label: str = "base"
    dppoly: PPoly = field(repr=False, default=None)
    fppoly: PPoly = field(repr=False, default=None)
    _f0: float = 0.0

    def __call__(self, t):
        return self.ppoly(t)

    def deriv(self, t):
        return self.dppoly(t)

    def primitive(self, t):
        """Exact antiderivative with primitive(0) = 0."""
        return self.fppoly(t) - self._f0


def _finish(ppoly, knots, s_minus, s_plus, margin, untouched, label):
    """The member of `ppoly`, its certified constants from `_value_range`:
    gamma and min_slope off f', curvature off f'' and, for equal tail
    slopes s, M off f - s t."""
    dpp = ppoly.derivative()
    fpp = ppoly.antiderivative()
    x, c = ppoly.x, ppoly.c
    lo, gamma = _value_range(dpp.c, x)
    curvature = max(map(abs, _value_range(dpp.derivative().c, x)))
    offset = np.vstack([c[:2], c[2] - s_plus, c[3] - s_plus * x[:-1]])  # f - s t
    M = max(map(abs, _value_range(offset, x))) if s_minus == s_plus else np.inf
    odd = bool(np.isfinite(M)) and _is_odd(ppoly)
    # defensive C1 audit: every piece ends with the value and the slope the
    # next one starts with; exact construction never trips this.  Each end
    # is the piece's own polynomial at its width (Horner), not a difference
    # of samples, which would step across a piece narrower than the step
    h = np.diff(ppoly.x)[:-1]
    ends = np.zeros(h.size)
    end_slopes = np.zeros(h.size)
    for coeff in ppoly.c[:, :-1]:
        end_slopes = end_slopes * h + ends
        ends = ends * h + coeff
    scale = 1.0 + max(abs(gamma), abs(lo))
    if (np.any(np.abs(ends - ppoly.c[-1, 1:]) > 1e-6 * scale)
            or np.any(np.abs(end_slopes - ppoly.c[-2, 1:]) > 1e-5 * scale)):
        raise NonC1Blend("value or slope mismatch at a breakpoint")
    return Nonlinearity(
        ppoly=ppoly,
        knots=tuple(knots),
        slope_minus_inf=float(s_minus),
        slope_plus_inf=float(s_plus),
        blend_margin=float(margin),
        gamma=gamma,
        min_slope=lo,
        curvature=curvature,
        M=M,
        odd=odd,
        untouched=untouched,
        label=label,
        dppoly=dpp,
        fppoly=fpp,
        _f0=float(fpp(0.0)),
    )


def node_layout(knots, shape_points=(), blend_margin: float = 1.0):
    """The nodes (t, value, slope) of `build_nonlinearity`, sorted by t, and
    the outer ends t0 - blend_margin and t1 + blend_margin of its two blend
    pieces.

    Every cubic piece divides by the cube of its width, the difference of
    its two float breakpoints.  Two nodes closer than _ANCHOR_TOL raise
    DuplicateKnots.  A blend margin below _ANCHOR_TOL raises ValueError (a
    margin of 1e-110 cubes to 0), and so does one that the float sum with
    the outermost node swallows (1e-12 beside a node at 1e5); any other
    margin leaves each blend piece at least half of _ANCHOR_TOL wide.  A
    window wider than _MAX_SPAN raises ValueError: rounding would break the
    C1 joins of its pieces.
    """
    nodes = [(float(t), 0.0, float(s)) for t, s in knots]
    nodes += [(float(t), float(v), float(s)) for t, v, s in shape_points]
    if not nodes:
        raise ValueError("need at least one knot")
    nodes.sort(key=lambda n: n[0])
    ts = np.array([n[0] for n in nodes])
    if np.any(np.diff(ts) < _ANCHOR_TOL):
        raise DuplicateKnots(f"coincident nodes near t={ts[np.argmin(np.diff(ts))]}")
    m = float(blend_margin)
    if not m >= _ANCHOR_TOL:
        raise ValueError(f"blend_margin must be at least {_ANCHOR_TOL:g}, got {blend_margin!r}")
    lo_end, hi_end = float(ts[0] - m), float(ts[-1] + m)
    for t, end in ((ts[0], lo_end), (ts[-1], hi_end)):
        if end == t:
            raise ValueError(f"blend_margin {m!r} vanishes beside the node at t={t}")
    if not hi_end - lo_end <= _MAX_SPAN:
        raise ValueError(f"the nodes and blend margins span {hi_end - lo_end!r}, more than "
                         f"{_MAX_SPAN:g}; rounding would break the C1 joins")
    return nodes, lo_end, hi_end


def build_nonlinearity(
    knots,
    slope_minus_inf: float,
    slope_plus_inf: float,
    shape_points=(),
    blend_margin: float = 1.0,
) -> Nonlinearity:
    """Assemble a C1 piecewise-cubic nonlinearity.

    Parameters
    ----------
    knots : sequence of (t, slope)
        Prescribed zeros: f(t) = 0, f'(t) = slope.  At least one.
    slope_minus_inf, slope_plus_inf : float
        Exact slopes of the affine tails.
    shape_points : sequence of (t, value, slope), optional
        Extra Hermite data between or around the zeros.
    blend_margin : float
        Width of the single cubic piece joining the outermost node to each
        affine tail.

    Raises
    ------
    DuplicateKnots
        If two nodes lie closer than _ANCHOR_TOL.
    ValueError
        If a blend piece is narrower than _ANCHOR_TOL, or the window wider
        than _MAX_SPAN (`node_layout`).
    NonC1Blend
        If the assembled function fails the C1 audit (defensive; the
        construction is exact).
    """
    nodes, lo_end, hi_end = node_layout(knots, shape_points, blend_margin)
    s_minus = float(slope_minus_inf)
    s_plus = float(slope_plus_inf)
    t0, y0, d0 = nodes[0]
    t1, y1, d1 = nodes[-1]
    # each blend spans the float difference of its breakpoints, which the
    # piece is evaluated across, rather than the margin itself
    m_lo, m_hi = t0 - lo_end, hi_end - t1

    # breakpoints: [tail unit, lower blend, nodes ..., upper blend, tail unit]
    xs = [lo_end - 1.0, lo_end] + [n[0] for n in nodes] + [hi_end, hi_end + 1.0]
    pieces = []
    lo_val = y0 - s_minus * m_lo  # lower blend left-end value, on the tail line
    pieces.append([0.0, 0.0, s_minus, lo_val - s_minus])  # affine tail piece
    pieces.append(_hermite_coeffs(m_lo, lo_val, s_minus, y0, d0))
    for (ta, ya, da), (tb, yb, db) in zip(nodes[:-1], nodes[1:]):
        pieces.append(_hermite_coeffs(tb - ta, ya, da, yb, db))
    hi_val = y1 + s_plus * m_hi
    pieces.append(_hermite_coeffs(m_hi, y1, d1, hi_val, s_plus))
    pieces.append([0.0, 0.0, s_plus, hi_val])  # affine tail piece

    pp = PPoly(np.array(pieces).T, np.array(xs), extrapolate=True)
    zero_knots = tuple((float(t), float(s)) for t, s in sorted(knots))
    return _finish(pp, zero_knots, s_minus, s_plus, float(blend_margin), (-np.inf, np.inf),
                   "base")


def _anchor(f: Nonlinearity, alpha: float):
    for t, s in f.knots:
        if abs(t - alpha) <= _ANCHOR_TOL:
            if s >= 0:
                raise AnchorSlopeNonNegative(
                    f"anchor t={t} has slope {s}; need a minimum-type zero"
                )
            return t, s
    raise AnchorNotZero(f"t={alpha} is not a prescribed zero of {f.label}")


def _breakpoint_index(pp: PPoly, t: float) -> int:
    idx = np.nonzero(np.abs(pp.x - t) <= 1e-10)[0]
    if idx.size != 1:
        raise AnchorNotZero(f"anchor t={t} does not sit on a breakpoint")
    return int(idx[0])


def truncate(f: Nonlinearity, lo: float | None = None,
             hi: float | None = None) -> Nonlinearity:
    """f on the window [lo, hi], the tangent line at each given anchor
    beyond it.

    Each anchor must be a minimum-type zero of f; an open side (None) keeps
    f, and so the window of f, on that side.  The label is read off the
    window: below(hi) when it is open below, above(lo) when it is open
    above, interval(lo,hi) otherwise.  So truncating f at hi and the result
    at lo gives the same member as truncating f at both.
    """
    if lo is None and hi is None:
        raise ValueError("need at least one anchor")
    if lo is not None and hi is not None and not lo < hi:
        raise ValueError("need lo < hi")
    s_minus, s_plus = f.slope_minus_inf, f.slope_plus_inf
    win_lo, win_hi = f.untouched or (-np.inf, np.inf)
    x, c = f.ppoly.x, f.ppoly.c
    i, j = 0, x.size - 1  # f keeps the breakpoints x[i..j] and pieces c[:, i:j]
    if lo is not None:
        win_lo, s_minus = _anchor(f, lo)
        i = _breakpoint_index(f.ppoly, win_lo)
    if hi is not None:
        win_hi, s_plus = _anchor(f, hi)
        j = _breakpoint_index(f.ppoly, win_hi)
    xs, cs = [x[i : j + 1]], [c[:, i:j]]
    # a tangent piece spans one unit beyond its anchor
    if lo is not None:
        xs.insert(0, [win_lo - 1.0])
        cs.insert(0, np.array([[0.0, 0.0, s_minus, -s_minus]]).T)
    if hi is not None:
        xs.append([win_hi + 1.0])
        cs.append(np.array([[0.0, 0.0, s_plus, 0.0]]).T)
    pp = PPoly(np.concatenate(cs, axis=1), np.concatenate(xs), extrapolate=True)
    knots = tuple(z for z in f.knots
                  if win_lo - _ANCHOR_TOL <= z[0] <= win_hi + _ANCHOR_TOL)
    if win_lo == -np.inf:
        label = f"below({win_hi:g})"
    elif win_hi == np.inf:
        label = f"above({win_lo:g})"
    else:
        label = f"interval({win_lo:g},{win_hi:g})"
    return _finish(pp, knots, s_minus, s_plus, f.blend_margin,
                   (win_lo, win_hi), label)


def homotopy(f: Nonlinearity, lam: float) -> Nonlinearity:
    """The blend lam * f'(inf) * t + (1 - lam) * f(t).

    Requires equal asymptotic slopes (finite f.M); at lam = 1 the result is
    the exact linear function with that slope.  At lam = 0 the blend is f
    itself, exactly, and f is returned as it is.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lam must lie in [0, 1]")
    if not np.isfinite(f.M):
        raise AsymmetricSlopes(
            f"slopes {f.slope_minus_inf} / {f.slope_plus_inf} differ; "
            "the linear homotopy needs one asymptotic slope"
        )
    if lam == 0.0:
        return f
    s = f.slope_plus_inf
    cs = (1.0 - lam) * f.ppoly.c.copy()
    xs = f.ppoly.x
    cs[-2, :] += lam * s
    cs[-1, :] += lam * s * xs[:-1]
    pp = PPoly(cs, xs.copy(), extrapolate=True)
    return _finish(pp, (), s, s, f.blend_margin, None, f"homotopy({lam:g})")


def find_zeros(f: Nonlinearity, lo: float, hi: float) -> list:
    """The real zeros of f in [lo, hi], ascending.

    They are the exact roots of the cubic pieces (`PPoly.roots`), so a
    zero is found whether or not f changes sign there.  Roots within 1e-9
    of each other are one zero, the first of them kept, as where a zero
    sits on a breakpoint shared by two pieces.
    """
    out = []
    for t in f.ppoly.roots():
        if lo <= t <= hi and (not out or t - out[-1] > 1e-9):
            out.append(float(t))
    return out


@dataclass(frozen=True)
class ZeroReport:
    t: float
    slope: float
    kind: str  # "minimum" for slope < 0, "crossing" for slope > 0
    crossing_count: int | None  # eigenvalues strictly below the slope, crossings only


@dataclass(frozen=True)
class HypothesisReport:
    """Structural checks of a nonlinearity against a split spectrum."""

    slope_minus_inf: float
    slope_plus_inf: float
    symmetric_slopes: bool
    resonance_margin: float
    k: int
    crossed_eigenvalues: tuple
    gamma: float
    min_slope: float
    lambda_min_y: float
    reduction_applicable: bool
    modulus: float | None
    zeros: tuple  # ZeroReport per knot
    five_pattern: bool
    extra_solution_condition: bool | None
    crossing_matches_k: bool
    notes: tuple

    def to_dict(self) -> dict:
        return asdict(self)


def reduction_modulus(gamma: float, lam_min_y: float) -> float:
    """The strong-convexity modulus of the Y block, the one test of whether
    the reduction applies.

    With f' <= gamma everywhere and gamma below the least Y eigenvalue
    lambda_min(Y), the map y -> J(x + y) is strongly convex on Y with
    modulus m = (lambda_min(Y) - gamma) / (1 + lambda_min(Y)) in the Sobolev
    metric.  `lam_min_y` is NaN when Y is empty.  Raises
    ReductionInapplicable, with the reason, when Y is empty or gamma
    reaches lambda_min(Y).
    """
    if np.isnan(lam_min_y):
        raise ReductionInapplicable("the Y block is empty: every mode lies in X")
    if gamma >= lam_min_y:
        raise ReductionInapplicable(
            f"gamma={gamma:g} reaches the complement spectrum (min {lam_min_y:g})"
        )
    return (lam_min_y - gamma) / (1.0 + lam_min_y)


def coefficient_bound(f: Nonlinearity, spec) -> np.ndarray:
    """Bounds b_j on the coefficients of every Galerkin critical point, one
    per mode of `spec`.

    With f(t) = s t + g(t) and M = sup |g|, a critical point has
    (lambda_j - s) u_j = P_j g(u).  Gram = I and quadrature weights that
    sum to |Omega| give, by Cauchy-Schwarz,
    |u_j| <= M sqrt(|Omega|) / |s - lambda_j| = b_j.  Raises ResonantSlope
    (`spectrum.resonance_margin`), or AsymmetricSlopes when the tails
    differ and M is infinite.
    """
    resonance_margin(spec, f.slope_plus_inf)
    if not np.isfinite(f.M):
        raise AsymmetricSlopes("unequal tail slopes leave the coefficients unbounded")
    return f.M * np.sqrt(spec.domain.measure) / np.abs(f.slope_plus_inf - spec.eigenvalues)


def check_hypotheses(f: Nonlinearity, spec) -> HypothesisReport:
    """Audit the structural hypotheses the solver stages rely on.

    Counts crossed eigenvalues, classifies each prescribed zero, certifies
    the reduction modulus, and tests the alternating five-zero pattern
    together with the degree-count condition that forces an extra solution.
    The tails are symmetric when they are equal, that is when f.M is
    finite.  The Y block holds the eigenvalues above the tail slope, so the
    spectrum need not be split.  A resonant asymptotic slope raises
    ResonantSlope from `spectrum.resonance_margin`, as in `split_spectrum`.
    """
    notes = []
    s_plus = f.slope_plus_inf
    s_minus = f.slope_minus_inf
    symmetric = bool(np.isfinite(f.M))
    if not symmetric:
        notes.append("asymmetric tails: homotopy bound, reduction seed box and global "
                     "degree unavailable")

    eigs = spec.eigenvalues
    margin = resonance_margin(spec, s_plus)
    k = int(np.count_nonzero(eigs < s_plus))
    crossed = tuple(float(v) for v in eigs[eigs < s_plus])

    lam_min_y = float(np.min(eigs[eigs >= s_plus])) if k < len(eigs) else float("nan")
    try:
        m = reduction_modulus(f.gamma, lam_min_y)
    except ReductionInapplicable as exc:
        m = None
        notes.append(str(exc))

    zreports = []
    for t, s in f.knots:
        if s < 0:
            zreports.append(ZeroReport(t, s, "minimum", None))
        else:
            ki = int(np.count_nonzero(eigs < s))
            zreports.append(ZeroReport(t, s, "crossing", ki))

    slopes = [s for _, s in f.knots]
    five = len(slopes) == 5 and all(
        (s > 0) == (i % 2 == 0) for i, s in enumerate(slopes)
    )
    extra = None
    if five:
        sgn = sum((-1) ** z.crossing_count for z in zreports if z.kind == "crossing")
        extra = sgn != 1
    matches = any(
        z.kind == "crossing" and z.crossing_count == k for z in zreports
    )

    return HypothesisReport(
        slope_minus_inf=s_minus,
        slope_plus_inf=s_plus,
        symmetric_slopes=symmetric,
        resonance_margin=margin,
        k=k,
        crossed_eigenvalues=crossed,
        gamma=f.gamma,
        min_slope=f.min_slope,
        lambda_min_y=lam_min_y,
        reduction_applicable=m is not None,
        modulus=m,
        zeros=tuple(zreports),
        five_pattern=five,
        extra_solution_condition=extra,
        crossing_matches_k=matches,
        notes=tuple(notes),
    )
