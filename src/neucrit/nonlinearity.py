"""Piecewise-cubic nonlinearities with prescribed zeros and affine tails.

A nonlinearity is built from a list of zeros (t_i, s_i), meaning f(t_i) = 0
with f'(t_i) = s_i, joined by C1 cubic Hermite pieces, plus affine tails of
prescribed asymptotic slope.  Each tail is attached through a single cubic
blend piece of configurable width, so the whole function is C1 by
construction and exactly affine outside a bounded window.  The primitive F
(with F(0) = 0) is the exact piecewise antiderivative, and the certified
bounds sup f' / inf f' are computed from the quadratic derivative pieces,
not sampled; sup |f''| is read off their linear derivatives.  So is
M = sup |f(t) - s t| for a common tail slope s: the tails are affine with
slope s, so f - s t is constant beyond the window.
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

from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.interpolate import PPoly

from .errors import (
    AnchorNotZero,
    AnchorSlopeNonNegative,
    AsymmetricSlopes,
    DuplicateKnots,
    NonC1Blend,
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
]

_ANCHOR_TOL = 1e-12


def _hermite_coeffs(h, y0, d0, y1, d1):
    # cubic on [0, h] in PPoly order (descending powers)
    c3 = (2.0 * (y0 - y1) + h * (d0 + d1)) / h**3
    c2 = (3.0 * (y1 - y0) - h * (2.0 * d0 + d1)) / h**2
    return [c3, c2, d0, y0]


def _extreme_slopes(dpp: PPoly):
    """Exact sup and inf of a piecewise-quadratic derivative, tails included."""
    hi = -np.inf
    lo = np.inf
    x = dpp.x
    c = dpp.c
    for i in range(c.shape[1]):
        a, b, cc = c[0, i], c[1, i], c[2, i]
        h = x[i + 1] - x[i]
        vals = [cc, a * h * h + b * h + cc]
        if abs(a) > 0:
            s = -b / (2.0 * a)
            if 0.0 < s < h:
                vals.append(a * s * s + b * s + cc)
        hi = max(hi, max(vals))
        lo = min(lo, min(vals))
    return float(hi), float(lo)


def _curvature_sup(dpp: PPoly) -> float:
    """Exact sup |f''|: on each piece f'' = 2 a t + b is linear, so its
    sup is at an end of the piece."""
    a, b = dpp.c[0], dpp.c[1]
    return float(np.max(np.maximum(np.abs(b), np.abs(2.0 * a * np.diff(dpp.x) + b))))


def _tail_offset_sup(pp: PPoly, s: float) -> float:
    """Exact sup |f(t) - s t| when both affine tails have slope s: the
    cubic pieces' extremes are at their ends or at the real roots of the
    quadratic derivative, and g = f - s t is constant on the tails."""
    top = 0.0
    for i in range(pp.c.shape[1]):
        a, b, c, d = pp.c[:, i]
        x0, h = pp.x[i], pp.x[i + 1] - pp.x[i]
        c = c - s
        ts = [0.0, h]
        # the derivative's roots are those of the coefficients scaled by a
        # power of two, which is exact and keeps b * b - 3 a c from
        # underflowing when the coefficients are tiny
        p, q, r = np.ldexp([a, b, c], -np.frexp(max(abs(a), abs(b), abs(c)))[1])
        if p != 0.0:
            disc = q * q - 3.0 * p * r
            if disc >= 0.0:
                ts += [(-q + z) / (3.0 * p) for z in (np.sqrt(disc), -np.sqrt(disc))]
        elif q != 0.0 and 0.0 <= -r * np.sign(q) <= 2.0 * abs(q) * h:
            # the vertex lies in [0, h]; testing that before dividing keeps
            # a subnormal b from overflowing the quotient
            ts.append(-r / (2.0 * q))
        for t in ts:
            if 0.0 <= t <= h:
                top = max(top, abs(((a * t + b) * t + c) * t + d - s * x0))
    return float(top)


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
    dpp = ppoly.derivative()
    fpp = ppoly.antiderivative()
    gamma, lo = _extreme_slopes(dpp)
    M = _tail_offset_sup(ppoly, s_plus) if s_minus == s_plus else np.inf
    odd = bool(np.isfinite(M)) and _is_odd(ppoly)
    # defensive C1 audit at the breakpoints; exact construction never trips this
    xb = ppoly.x[1:-1]
    if xb.size:
        eps = 1e-9 * max(1.0, np.max(np.abs(xb)))
        jump_v = np.abs(ppoly(xb - eps) - ppoly(xb + eps))
        jump_d = np.abs(dpp(xb - eps) - dpp(xb + eps))
        scale = 1.0 + max(abs(gamma), abs(lo))
        if np.any(jump_v > 1e-6 * scale) or np.any(jump_d > 1e-5 * scale):
            raise NonC1Blend("value or slope mismatch at a breakpoint")
    return Nonlinearity(
        ppoly=ppoly,
        knots=tuple(knots),
        slope_minus_inf=float(s_minus),
        slope_plus_inf=float(s_plus),
        blend_margin=float(margin),
        gamma=gamma,
        min_slope=lo,
        curvature=_curvature_sup(dpp),
        M=M,
        odd=odd,
        untouched=untouched,
        label=label,
        dppoly=dpp,
        fppoly=fpp,
        _f0=float(fpp(0.0)),
    )


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
        If two nodes share an abscissa.
    NonC1Blend
        If the assembled function fails the C1 audit (defensive; the
        construction is exact).
    """
    if blend_margin <= 0:
        raise ValueError("blend_margin must be positive")
    nodes = [(float(t), 0.0, float(s)) for t, s in knots]
    nodes += [(float(t), float(v), float(s)) for t, v, s in shape_points]
    if not nodes:
        raise ValueError("need at least one knot")
    nodes.sort(key=lambda n: n[0])
    ts = np.array([n[0] for n in nodes])
    if np.any(np.diff(ts) < _ANCHOR_TOL):
        raise DuplicateKnots(f"coincident nodes near t={ts[np.argmin(np.diff(ts))]}")

    s_minus = float(slope_minus_inf)
    s_plus = float(slope_plus_inf)
    m = float(blend_margin)
    t0, y0, d0 = nodes[0]
    t1, y1, d1 = nodes[-1]

    # breakpoints: [tail unit, lower blend, nodes ..., upper blend, tail unit]
    xs = [t0 - m - 1.0, t0 - m] + [n[0] for n in nodes] + [t1 + m, t1 + m + 1.0]
    pieces = []
    lo_val = y0 - s_minus * m  # lower blend left-end value, on the tail line
    pieces.append([0.0, 0.0, s_minus, lo_val - s_minus])  # affine tail piece
    pieces.append(_hermite_coeffs(m, lo_val, s_minus, y0, d0))
    for (ta, ya, da), (tb, yb, db) in zip(nodes[:-1], nodes[1:]):
        pieces.append(_hermite_coeffs(tb - ta, ya, da, yb, db))
    hi_val = y1 + s_plus * m
    pieces.append(_hermite_coeffs(m, y1, d1, hi_val, s_plus))
    pieces.append([0.0, 0.0, s_plus, hi_val])  # affine tail piece

    pp = PPoly(np.array(pieces).T, np.array(xs), extrapolate=True)
    zero_knots = tuple((float(t), float(s)) for t, s in sorted(knots))
    return _finish(pp, zero_knots, s_minus, s_plus, m, (-np.inf, np.inf), "base")


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
    the exact linear function with that slope.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lam must lie in [0, 1]")
    if not np.isfinite(f.M):
        raise AsymmetricSlopes(
            f"slopes {f.slope_minus_inf} / {f.slope_plus_inf} differ; "
            "the linear homotopy needs one asymptotic slope"
        )
    s = f.slope_plus_inf
    cs = (1.0 - lam) * f.ppoly.c.copy()
    xs = f.ppoly.x
    cs[-2, :] += lam * s
    cs[-1, :] += lam * s * xs[:-1]
    pp = PPoly(cs, xs.copy(), extrapolate=True)
    knots = f.knots if lam == 0.0 else ()
    untouched = f.untouched if lam == 0.0 else None
    label = f.label if lam == 0.0 else f"homotopy({lam:g})"
    return _finish(pp, knots, s, s, f.blend_margin, untouched, label)


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
    nonresonant: bool  # always True: a resonant slope raises instead
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


def check_hypotheses(f: Nonlinearity, spec) -> HypothesisReport:
    """Audit the structural hypotheses the solver stages rely on.

    Counts crossed eigenvalues, classifies each prescribed zero, certifies
    the reduction modulus, and tests the alternating five-zero pattern
    together with the degree-count condition that forces an extra solution.
    The tails are symmetric when they are equal, that is when f.M is
    finite.  A resonant asymptotic slope raises ResonantSlope from
    `spectrum.resonance_margin`, as in `split_spectrum`, so a returned
    report is always nonresonant.
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
    applicable = k < len(eigs) and f.gamma < lam_min_y
    m = (lam_min_y - f.gamma) / (1.0 + lam_min_y) if applicable else None
    if not applicable:
        notes.append(
            f"gamma={f.gamma:g} reaches the complement spectrum (min {lam_min_y:g})"
        )

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
        nonresonant=True,
        resonance_margin=margin,
        k=k,
        crossed_eigenvalues=crossed,
        gamma=f.gamma,
        min_slope=f.min_slope,
        lambda_min_y=lam_min_y,
        reduction_applicable=applicable,
        modulus=m,
        zeros=tuple(zreports),
        five_pattern=five,
        extra_solution_condition=extra,
        crossing_matches_k=matches,
        notes=tuple(notes),
    )
