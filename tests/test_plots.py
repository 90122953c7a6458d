import xml.etree.ElementTree as ET

import numpy as np
import pytest

import neucrit as nc


def test_render_profiles_structure(ref5):
    spec, f, func = ref5
    recs = nc.find_constants(func)
    svg = nc.render_profiles(spec, recs)
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    polys = [e for e in root.iter() if e.tag.endswith("polyline")]
    assert len(polys) == 5  # one curve per record; axes are line elements
    texts = [e.text for e in root.iter() if e.tag.endswith("text") and e.text]
    assert any("constant" in t for t in texts)
    assert any("J=" in t for t in texts)


def test_render_profiles_deterministic(ref5):
    spec, f, func = ref5
    recs = nc.find_constants(func)
    assert nc.render_profiles(spec, recs) == nc.render_profiles(spec, recs)


def test_render_profiles_interval_only():
    spec = nc.build_spectrum(nc.Domain("rectangle", (np.pi, np.pi)), 6)
    f = nc.build_nonlinearity([(0.0, -1.0)], 2.5, 2.5)
    func = nc.EnergyFunctional(spec, f)
    rec = nc.make_record(func, np.zeros(6), "constant", {"stage": "t"})
    with pytest.raises(ValueError, match="interval"):
        nc.render_profiles(spec, [rec])


def test_reference_profiles_match_the_per_coordinate_rendering(reference_report):
    """The reference report's SVG is byte for byte the file that formats
    every pixel coordinate on its own: only the polylines' points are
    formatted in one pass, and each coordinate is the same float."""
    from neucrit.plots import PROFILE_SAMPLES, _H, _MB, _ML, _MR, _MT, _W, _fmt

    spec, recs = reference_report.spectrum, reference_report.records
    svg = nc.render_profiles(spec, recs)
    L = spec.domain.lengths[0]
    xs = np.linspace(0.0, L, PROFILE_SAMPLES)
    curves = [spec.evaluate_at(r.coeffs, xs[:, None]) for r in recs]
    ylo = min(float(y.min()) for y in curves)
    yhi = max(float(y.max()) for y in curves)
    pad = 0.05 * max(yhi - ylo, 1e-9)
    ylo, yhi = ylo - pad, yhi + pad
    pw, ph = _W - _ML - _MR, _H - _MT - _MB

    def point(x, y):
        px = _ML + pw * (x / L)
        py = _MT + ph * (1.0 - (y - ylo) / (yhi - ylo))
        return f"{_fmt(px)},{_fmt(py)}"

    polylines = [line for line in svg.splitlines() if line.startswith("<polyline ")]
    assert len(polylines) == len(recs)
    for line, ys in zip(polylines, curves):
        pts = " ".join(point(x, y) for x, y in zip(xs, ys))
        assert line.startswith(f'<polyline points="{pts}" fill="none" ')
