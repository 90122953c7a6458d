"""Piecewise-cubic nonlinearities with prescribed zeros and affine tails.

A nonlinearity is built from a list of zeros (t_i, s_i), meaning f(t_i) = 0
with f'(t_i) = s_i, joined by C1 cubic Hermite pieces, plus affine tails of
prescribed asymptotic slope.  Each tail is attached through a single cubic
blend piece of configurable width, so the whole function is C1 by
construction and exactly affine outside a bounded window.  The primitive F
(with F(0) = 0) is the exact piecewise antiderivative, and the certified
bounds sup f' / inf f' are computed from the quadratic derivative pieces,
not sampled.  So is M = sup |f(t) - s t| for a common tail slope s: the
tails are affine with slope s, so f - s t is constant beyond the window.

Truncations flatten the function to its tangent line beyond an anchor zero
of negative slope; they are the standard device for confining solutions to
one side of a minimum-type zero.  The homotopy member blends f toward the
linear function with the asymptotic slope.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import PPoly
from scipy.optimize import brentq

from .errors import (
    AnchorNotZero,
    AnchorSlopeNonNegative,
    AsymmetricSlopes,
    DuplicateKnots,
    NonC1Blend,
    ResonantSlope,
)
from .spectrum import RESONANCE_TOL

__all__ = [
    "Nonlinearity",
    "build_nonlinearity",
    "truncate_below",
    "truncate_above",
    "truncate_interval",
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
        if a != 0.0:
            disc = b * b - 3.0 * a * c
            if disc >= 0.0:
                ts += [(-b + r) / (3.0 * a) for r in (np.sqrt(disc), -np.sqrt(disc))]
        elif b != 0.0:
            ts.append(-c / (2.0 * b))
        for t in ts:
            if 0.0 <= t <= h:
                top = max(top, abs(((a * t + b) * t + c) * t + d - s * x0))
    return float(top)


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
    M: float  # certified sup |f(t) - s t| for the common tail slope s; inf if the tails differ
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

    def zeros(self) -> tuple:
        return self.knots


def _finish(ppoly, knots, s_minus, s_plus, margin, untouched, label):
    dpp = ppoly.derivative()
    fpp = ppoly.antiderivative()
    gamma, lo = _extreme_slopes(dpp)
    M = _tail_offset_sup(ppoly, s_plus) if s_minus == s_plus else np.inf
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
        M=M,
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


def truncate_below(f: Nonlinearity, alpha: float) -> Nonlinearity:
    """f on (-inf, alpha], the tangent line f'(alpha)(t - alpha) beyond."""
    a, s = _anchor(f, alpha)
    i = _breakpoint_index(f.ppoly, a)
    xs = np.concatenate([f.ppoly.x[: i + 1], [a + 1.0]])
    cs = np.concatenate([f.ppoly.c[:, :i], np.array([[0.0, 0.0, s, 0.0]]).T], axis=1)
    pp = PPoly(cs, xs, extrapolate=True)
    knots = tuple(z for z in f.knots if z[0] <= a + _ANCHOR_TOL)
    lo = f.untouched[0] if f.untouched else -np.inf
    return _finish(pp, knots, f.slope_minus_inf, s, f.blend_margin,
                   (lo, a), f"below({a:g})")


def truncate_above(f: Nonlinearity, alpha: float) -> Nonlinearity:
    """The tangent line f'(alpha)(t - alpha) below alpha, f on [alpha, inf)."""
    a, s = _anchor(f, alpha)
    i = _breakpoint_index(f.ppoly, a)
    xs = np.concatenate([[a - 1.0], f.ppoly.x[i:]])
    cs = np.concatenate([np.array([[0.0, 0.0, s, -s]]).T, f.ppoly.c[:, i:]], axis=1)
    pp = PPoly(cs, xs, extrapolate=True)
    knots = tuple(z for z in f.knots if z[0] >= a - _ANCHOR_TOL)
    hi = f.untouched[1] if f.untouched else np.inf
    return _finish(pp, knots, s, f.slope_plus_inf, f.blend_margin,
                   (a, hi), f"above({a:g})")


def truncate_interval(f: Nonlinearity, alpha: float, beta: float) -> Nonlinearity:
    """Tangent lines outside [alpha, beta], f inside.  Anchors must be
    minimum-type zeros with alpha < beta."""
    if not alpha < beta:
        raise ValueError("need alpha < beta")
    a, sa = _anchor(f, alpha)
    b, sb = _anchor(f, beta)
    ia = _breakpoint_index(f.ppoly, a)
    ib = _breakpoint_index(f.ppoly, b)
    xs = np.concatenate([[a - 1.0], f.ppoly.x[ia : ib + 1], [b + 1.0]])
    cs = np.concatenate(
        [
            np.array([[0.0, 0.0, sa, -sa]]).T,
            f.ppoly.c[:, ia:ib],
            np.array([[0.0, 0.0, sb, 0.0]]).T,
        ],
        axis=1,
    )
    pp = PPoly(cs, xs, extrapolate=True)
    knots = tuple(z for z in f.knots if a - _ANCHOR_TOL <= z[0] <= b + _ANCHOR_TOL)
    return _finish(pp, knots, sa, sb, f.blend_margin, (a, b),
                   f"interval({a:g},{b:g})")


def truncate(f: Nonlinearity, kind: str, *anchors) -> Nonlinearity:
    """Dispatch by kind: "below", "above" or "interval"."""
    if kind == "below":
        return truncate_below(f, *anchors)
    if kind == "above":
        return truncate_above(f, *anchors)
    if kind == "interval":
        return truncate_interval(f, *anchors)
    raise ValueError(f"unknown truncation kind {kind!r}")


def homotopy(f: Nonlinearity, lam: float) -> Nonlinearity:
    """The blend lam * f'(inf) * t + (1 - lam) * f(t).

    Requires equal asymptotic slopes; at lam = 1 the result is the exact
    linear function with that slope.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lam must lie in [0, 1]")
    if abs(f.slope_plus_inf - f.slope_minus_inf) > 1e-12:
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


def find_zeros(f, lo: float, hi: float, samples: int = 2001) -> list:
    """Numeric zeros of a scalar callable on [lo, hi], knots included if any."""
    ts = np.linspace(lo, hi, samples)
    vals = np.asarray(f(ts), dtype=float)
    out = []
    for i in range(samples - 1):
        a, b = vals[i], vals[i + 1]
        if a == 0.0:
            out.append(float(ts[i]))
        elif a * b < 0:
            out.append(float(brentq(lambda t: float(f(t)), ts[i], ts[i + 1], xtol=1e-13)))
    if vals[-1] == 0.0:
        out.append(float(ts[-1]))
    if isinstance(f, Nonlinearity):
        out.extend(t for t, _ in f.knots if lo <= t <= hi)
    out.sort()
    dedup = []
    for t in out:
        if not dedup or abs(t - dedup[-1]) > 1e-9:
            dedup.append(t)
    return dedup


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
    nonresonant: bool
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
        out = {
            "slope_minus_inf": self.slope_minus_inf,
            "slope_plus_inf": self.slope_plus_inf,
            "symmetric_slopes": self.symmetric_slopes,
            "nonresonant": self.nonresonant,
            "resonance_margin": self.resonance_margin,
            "k": self.k,
            "crossed_eigenvalues": list(self.crossed_eigenvalues),
            "gamma": self.gamma,
            "min_slope": self.min_slope,
            "lambda_min_y": self.lambda_min_y,
            "reduction_applicable": self.reduction_applicable,
            "modulus": self.modulus,
            "zeros": [
                {"t": z.t, "slope": z.slope, "kind": z.kind,
                 "crossing_count": z.crossing_count}
                for z in self.zeros
            ],
            "five_pattern": self.five_pattern,
            "extra_solution_condition": self.extra_solution_condition,
            "crossing_matches_k": self.crossing_matches_k,
            "notes": list(self.notes),
        }
        return out


def check_hypotheses(f: Nonlinearity, spec) -> HypothesisReport:
    """Audit the structural hypotheses the solver stages rely on.

    Checks nonresonance of the asymptotic slope, counts crossed eigenvalues,
    classifies each prescribed zero, certifies the reduction modulus, and
    tests the alternating five-zero pattern together with the degree-count
    condition that forces an extra solution.
    """
    notes = []
    s_plus = f.slope_plus_inf
    s_minus = f.slope_minus_inf
    symmetric = abs(s_plus - s_minus) <= 1e-12
    if not symmetric:
        notes.append("asymmetric tails: homotopy bound and global degree unavailable")

    eigs = spec.eigenvalues
    margin = float(np.min(np.abs(eigs - s_plus)))
    nonresonant = margin > RESONANCE_TOL
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
        nonresonant=nonresonant,
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


def require_nonresonant(f: Nonlinearity, spec):
    """Raise ResonantSlope unless the asymptotic slope clears every
    eigenvalue by RESONANCE_TOL."""
    gaps = np.abs(spec.eigenvalues - f.slope_plus_inf)
    if np.any(gaps < RESONANCE_TOL):
        j = int(np.argmin(gaps))
        raise ResonantSlope(
            f"asymptotic slope {f.slope_plus_inf} within {RESONANCE_TOL} of eigenvalue "
            f"{spec.eigenvalues[j]}"
        )
