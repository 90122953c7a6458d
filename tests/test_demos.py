"""Demos 01-04 run in-process and finish cleanly.  Demo 05 is left out: it
writes the committed `demos/out` artifacts."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", [
    "01_spectrum_basics.py",
    "02_nonlinearity_gallery.py",
    "03_mountain_pass.py",
    "04_reduction_landscape.py",
])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out.strip()
