"""Every function the benchmark tracer wraps is still called on `interval`.

The tracer in `perfbench/tracer.py` wraps package functions where the
package looks them up: module globals for names imported into a module,
class attributes for methods.  A name that is still imported but no longer
called is an idle site, and `perfbench/run.py --trace 1` marks a run on the
`interval` workload not correct when it sees one.  Sites the package no
longer has are absent, not idle, and stay allowed.  The tracer and the
workload list are loaded from their files and only read.
"""

import importlib.util
from pathlib import Path

import neucrit as nc

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_no_traced_site_is_idle_on_interval(tmp_path):
    tracer = _load("tracer")
    workloads = _load("workloads")
    trace = tracer.Tracer()
    trace.install()
    try:
        report = nc.run_pipeline(workloads.config("interval", 7))
        report.write(tmp_path)
    finally:
        trace.uninstall()
    assert report.ok, report.errors
    calls = tracer.site_calls(trace.spans())
    idle = [name for name in trace.installed if calls.get(name, 0) == 0]
    assert not idle, f"wrapped sites saw no call: {idle}"
