"""validate_config is total: whatever JSON value lands in a config key, it
either accepts the config or raises ConfigError."""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

import neucrit as nc
from conftest import REMOVED_SETTINGS
from neucrit.pipeline import reference_config, validate_config


def _key_paths(cfg, prefix=()):
    for key, value in cfg.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


PATHS = sorted(
    set(_key_paths(reference_config()))
    | {("solver", f.name) for f in dataclasses.fields(nc.SolverConfig)}
    | set(REMOVED_SETTINGS)
)

JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
JSON_VALUES = st.recursive(JSON_SCALARS, lambda inner: st.lists(inner, max_size=3),
                           max_leaves=6)


@settings(max_examples=400, deadline=None)
@given(path=st.sampled_from(PATHS), value=JSON_VALUES)
def test_validate_config_accepts_or_raises_config_error(path, value):
    cfg = reference_config()
    section = cfg
    for key in path[:-1]:
        section = section.setdefault(key, {})
    section[path[-1]] = value
    try:
        validate_config(cfg)
    except nc.ConfigError:
        pass


# node abscissae on a coarse grid, so that knots and shape points often
# coincide, one of them far enough out that a float sum swallows 1e-12 and
# two so far out that a window holding them and the others is wider than
# _MAX_SPAN = 1e8; blend margins on both sides of the narrowest piece,
# _ANCHOR_TOL = 1e-12, and two that alone make the window too wide
ABSCISSAE = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 1e5, 1e10, 1e15])
SLOPES = st.floats(-5.0, 5.0)
MARGINS = (st.sampled_from([1e-300, 1e-110, 1e-13, 1e-12, 1e-6, 1.0, 1e9, 1e12])
           | st.floats(1e-12, 3.0))


@settings(max_examples=200, deadline=None)
@given(knots=st.lists(st.tuples(ABSCISSAE, SLOPES), min_size=1, max_size=5),
       shape_points=st.lists(st.tuples(ABSCISSAE, SLOPES, SLOPES), max_size=2),
       margin=MARGINS)
def test_accepted_nodes_build(knots, shape_points, margin):
    """A nonlinearity section that validate_config accepts builds.  Exactly
    these are ConfigError before any stage runs: nodes closer than 1e-12
    (duplicate knots, a shape point on a knot), a blend margin below 1e-12,
    a margin that vanishes in its float sum with the outermost node, and
    nodes and margins that span more than 1e8, where rounding would break
    the C1 joins."""
    cfg = reference_config()
    cfg["nonlinearity"].update(knots=[list(k) for k in knots],
                               shape_points=[list(p) for p in shape_points],
                               blend_margin=margin)
    ts = sorted(t for t, *_ in knots + shape_points)
    faulty = (len(set(ts)) < len(ts) or margin < 1e-12
              or ts[0] - margin == ts[0] or ts[-1] + margin == ts[-1]
              or (ts[-1] + margin) - (ts[0] - margin) > 1e8)
    try:
        validate_config(cfg)
    except nc.ConfigError as e:
        assert faulty, e
        return
    assert not faulty
    nc.build_nonlinearity(knots, 2.5, 2.5, shape_points=shape_points, blend_margin=margin)
