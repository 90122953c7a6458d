"""Standalone SVG profile plots, no rendering dependencies.

Interval domains only: each record becomes one polyline u(x) over [0, L].
All coordinates are formatted with a fixed precision so that a given report
always renders to the identical file, byte for byte.
"""

from __future__ import annotations

import numpy as np

__all__ = ["render_profiles"]

_W, _H = 760, 500
_ML, _MR, _MT, _MB = 64, 168, 28, 44  # margins: right one holds the legend

_COLORS = {
    "constant": "#888888",
    "minimizer": "#2166ac",
    "mp_type": "#b2182b",
    "reduction_max": "#762a83",
    "other": "#1b7837",
}


def _fmt(v: float) -> str:
    return f"{v:.2f}"


_POINT = "{:.2f},{:.2f}".format


def _ticks(lo: float, hi: float, n: int = 5):
    if hi <= lo:
        hi = lo + 1.0
    raw = np.linspace(lo, hi, n)
    return [float(t) for t in raw]


# points per profile polyline
PROFILE_SAMPLES = 401
PROFILE_TITLE = "solution profiles"


def render_profiles(spectrum, records) -> str:
    """SVG text for the profiles u(x) of the given records."""
    if spectrum.domain.ndim != 1:
        raise ValueError("profile plots are defined for interval domains only")
    L = spectrum.domain.lengths[0]
    xs = np.linspace(0.0, L, PROFILE_SAMPLES)
    curves = []
    for rec in records:
        ys = spectrum.evaluate_at(rec.coeffs, xs[:, None])
        curves.append((rec, ys))

    ylo = min((float(y.min()) for _, y in curves), default=-1.0)
    yhi = max((float(y.max()) for _, y in curves), default=1.0)
    pad = 0.05 * max(yhi - ylo, 1e-9)
    ylo, yhi = ylo - pad, yhi + pad

    pw = _W - _ML - _MR
    ph = _H - _MT - _MB

    def sx(x):
        return _ML + pw * (x / L)

    def sy(y):
        return _MT + ph * (1.0 - (y - ylo) / (yhi - ylo))

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">'
    )
    out.append(f'<rect width="{_W}" height="{_H}" fill="#ffffff"/>')
    out.append(
        f'<text x="{_ML}" y="18" font-family="sans-serif" font-size="13" '
        f'fill="#333333">{PROFILE_TITLE}</text>'
    )
    # frame
    out.append(
        f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" fill="none" '
        f'stroke="#333333" stroke-width="1"/>'
    )
    # zero line
    if ylo < 0.0 < yhi:
        y0 = _fmt(sy(0.0))
        out.append(
            f'<line x1="{_ML}" y1="{y0}" x2="{_ML + pw}" y2="{y0}" '
            f'stroke="#bbbbbb" stroke-width="1" stroke-dasharray="4 3"/>'
        )
    # ticks
    for t in _ticks(0.0, L):
        x = _fmt(sx(t))
        out.append(
            f'<line x1="{x}" y1="{_MT + ph}" x2="{x}" y2="{_MT + ph + 5}" '
            f'stroke="#333333" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{x}" y="{_MT + ph + 18}" font-family="sans-serif" '
            f'font-size="11" fill="#333333" text-anchor="middle">{t:.3g}</text>'
        )
    for t in _ticks(ylo, yhi):
        y = _fmt(sy(t))
        out.append(
            f'<line x1="{_ML - 5}" y1="{y}" x2="{_ML}" y2="{y}" '
            f'stroke="#333333" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_ML - 8}" y="{y}" font-family="sans-serif" font-size="11" '
            f'fill="#333333" text-anchor="end" dominant-baseline="middle">{t:.3g}</text>'
        )
    # curves: the pixel coordinates of a polyline come from one array
    # operation and its points from one formatting pass
    px = sx(xs).tolist()
    for rec, ys in curves:
        color = _COLORS.get(rec.classification, "#000000")
        pts = " ".join(map(_POINT, px, sy(ys).tolist()))
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
    # legend
    lx = _ML + pw + 12
    ly = _MT + 8
    for i, (rec, _) in enumerate(curves):
        color = _COLORS.get(rec.classification, "#000000")
        y = ly + 16 * i
        out.append(
            f'<line x1="{lx}" y1="{y}" x2="{lx + 18}" y2="{y}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{lx + 24}" y="{y + 4}" font-family="sans-serif" '
            f'font-size="10" fill="#333333">{rec.classification} '
            f'J={rec.energy:.4g}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
