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
