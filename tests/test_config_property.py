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
