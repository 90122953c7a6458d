"""Every exported name resolves, so a deleted function cannot leave a stale
entry in an `__all__` list behind."""

import importlib
import pkgutil

import pytest

import neucrit

MODULES = ["neucrit"] + [
    f"neucrit.{m.name}" for m in pkgutil.iter_modules(neucrit.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"


def test_star_import():
    namespace = {}
    exec("from neucrit import *", namespace)
    assert set(neucrit.__all__) <= set(namespace)
    assert "truncate" in namespace
    for gone in ("truncate_below", "truncate_above", "truncate_interval",
                 "minimize", "DivergingIterates", "reduced_gradient",
                 "monotonicity_certificate", "local_max_min_at_constant",
                 "LocalMaxMinReport", "reduced_value"):
        assert gone not in namespace
    assert not hasattr(neucrit.reduction, "reduced_gradient")
    assert not hasattr(neucrit.SpectrumSlice, "mirror")
