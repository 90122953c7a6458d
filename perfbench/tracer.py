"""Outside-in tracer for neucrit.

The package has no instrumentation of its own, so the benchmark wraps its
functions where the package looks them up: a module global for a function
imported by name (`refine_critical` in both `solvers` and `reduction`), a
class attribute for a method.  Each call records a span (name, start, end,
parent) and, for some sites, one measured number such as grid points or
`nfev`.  Spans stay in flat arrays in memory until the run writes them.

A span's self time is its duration minus the durations of its child spans.
A site that no longer exists in the package is reported as absent and
skipped; `install` never fails on it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

import numpy as np

ROOT = "solve"


def _points(fn):
    return lambda args, kwargs, result: float(np.size(args[1]))


def _basis_bytes(fn):
    return lambda args, kwargs, result: float(args[0].basis.nbytes)


def _nfev(fn):
    return lambda args, kwargs, result: float(result.nfev)


def _not_none(fn):
    return lambda args, kwargs, result: float(result is not None)


def _iterations(fn):
    return lambda args, kwargs, result: float(result.iterations)


def _length(fn):
    return lambda args, kwargs, result: float(len(result))


def _starts(fn):
    """Starts of one multistart call: the seeds plus the random budget."""
    sig = inspect.signature(fn)

    def measure(args, kwargs, result):
        a = sig.bind(*args, **kwargs)
        a.apply_defaults()
        budget = a.arguments["budget"]
        if budget is None:
            budget = a.arguments["cfg"].multistart_budget
        return float(len(a.arguments["seeds"]) + budget)

    return measure


# (module, attribute path, measure factory).  The span name is
# "<module>.<attribute path>".  Every site is called on `interval`.
SITES = (
    # stage entry points as run_pipeline looks them up
    ("pipeline", "build_spectrum", None),
    ("pipeline", "split_spectrum", None),
    ("pipeline", "build_nonlinearity", None),
    ("pipeline", "check_hypotheses", None),
    ("pipeline", "find_constants", None),
    ("pipeline", "_truncation_stage", None),
    ("pipeline", "mountain_pass", _iterations),
    ("pipeline", "homotopy_bound", None),
    ("pipeline", "make_reduction_context", None),
    ("pipeline", "maximize_reduced", None),
    ("pipeline", "qualitative_classify", None),
    ("pipeline", "multistart", _starts),
    ("pipeline", "RunReport.write", None),
    ("plots", "render_profiles", None),
    # inner solvers, under the names their callers use
    ("solvers", "multistart", _starts),
    ("solvers", "dedup_records", _length),
    ("solvers", "refine_critical", _not_none),
    ("reduction", "refine_critical", _not_none),
    ("solvers", "root", _nfev),
    ("solvers", "_descend", None),
    ("reduction", "psi", None),
    ("solvers", "make_record", None),
    ("ledger", "make_record", None),
    ("reduction", "make_record", None),
    ("ledger", "DegreeLedger.add", None),
    ("ledger", "DegreeLedger.reconcile", None),
    # kernels
    ("energy", "EnergyFunctional.value", None),
    ("energy", "EnergyFunctional.gradient", None),
    ("energy", "EnergyFunctional.l2_gradient", None),
    ("energy", "EnergyFunctional.hessian_pencil", None),
    ("energy", "EnergyFunctional.morse_data", None),
    ("spectrum", "SpectrumSlice.evaluate", _basis_bytes),
    ("spectrum", "SpectrumSlice.project", _basis_bytes),
    ("spectrum", "SpectrumSlice.h1_norm", None),
    ("spectrum", "SpectrumSlice.h1_inner", None),
    ("spectrum", "SpectrumSlice.h1_dist", None),
    ("nonlinearity", "Nonlinearity.__call__", _points),
    ("nonlinearity", "Nonlinearity.deriv", _points),
    ("nonlinearity", "Nonlinearity.primitive", _points),
)

# direct children of the solve span, by pipeline stage
STAGES = {
    "spectrum": ("pipeline.build_spectrum", "pipeline.split_spectrum",
                 "pipeline.build_nonlinearity", "pipeline.check_hypotheses"),
    "constants": ("pipeline.find_constants",),
    "truncations": ("pipeline._truncation_stage",),
    "homotopy": ("pipeline.homotopy_bound",),
    "reduction": ("pipeline.make_reduction_context", "pipeline.maximize_reduced"),
    "ledger": ("pipeline.qualitative_classify", "ledger.DegreeLedger.add",
               "ledger.DegreeLedger.reconcile"),
    "multistart": ("pipeline.multistart",),
}

_MULTISTART = ("pipeline.multistart", "solvers.multistart")
_REFINE = ("solvers.refine_critical", "reduction.refine_critical")
_MAKE_RECORD = ("solvers.make_record", "ledger.make_record", "reduction.make_record")
_GRADIENT = ("energy.EnergyFunctional.gradient", "energy.EnergyFunctional.l2_gradient")
_NORMS = ("spectrum.SpectrumSlice.h1_norm", "spectrum.SpectrumSlice.h1_inner",
          "spectrum.SpectrumSlice.h1_dist")
_TRANSFORMS = ("spectrum.SpectrumSlice.evaluate", "spectrum.SpectrumSlice.project")
_NONLINEARITY = ("nonlinearity.Nonlinearity.__call__", "nonlinearity.Nonlinearity.deriv",
                 "nonlinearity.Nonlinearity.primitive")


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")
        self._stack = [-1]
        self._patches = []
        self.absent = []
        self.installed = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, measure=None):
        """`fn` with a span named `name` around every call."""
        nid = self._id(name)
        name_id, parent, start, end, value = (
            self.name_id, self.parent, self.start, self.end, self.value)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            value.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if measure is not None:
                value[i] = measure(args, kwargs, result)
            return result

        return traced

    def install(self, sites=SITES):
        """Patch every site that exists; remember the absent ones."""
        for module, path, factory in sites:
            name = f"{module}.{path}"
            try:
                owner = importlib.import_module(f"neucrit.{module}")
            except ModuleNotFoundError:
                owner = None
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                if name not in self.absent:
                    self.absent.append(name)
                continue
            measure = factory(fn) if factory is not None else None
            setattr(owner, attr, self.wrap(fn, name, measure))
            self._patches.append((owner, attr, fn))
            if name not in self.installed:
                self.installed.append(name)

    def uninstall(self):
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    def __len__(self):
        return len(self.name_id)

    def spans(self, lo: int = 0, hi: int | None = None) -> "Spans":
        hi = len(self) if hi is None else hi
        return Spans(self.names, *(
            np.asarray(a[lo:hi]) for a in
            (self.name_id, self.parent, self.start, self.end, self.value)), offset=lo)

    def save(self, path):
        """Write every recorded span as a compressed npz file."""
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.asarray(self.name_id),
            parent=np.asarray(self.parent), start=np.asarray(self.start),
            end=np.asarray(self.end), value=np.asarray(self.value))


class Spans:
    """A contiguous slice of recorded spans with per-name aggregates."""

    def __init__(self, names, name_id, parent, start, end, value, offset=0):
        self.names = list(names)
        self.name_id = name_id
        # parent index within the slice; -1 for spans whose parent is outside
        local = parent - offset
        self.parent = np.where((local >= 0) & (local < len(name_id)), local, -1)
        self.duration = end - start
        self.value = value
        child = np.zeros(len(name_id))
        has = self.parent >= 0
        np.add.at(child, self.parent[has], self.duration[has])
        self.self_time = self.duration - child

    def _mask(self, names) -> np.ndarray:
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name_id, ids)

    def calls(self, *names) -> int:
        return int(np.count_nonzero(self._mask(names)))

    def total(self, *names) -> float:
        return float(self.duration[self._mask(names)].sum())

    def self_s(self, *names) -> float:
        return float(self.self_time[self._mask(names)].sum())

    def measured(self, *names) -> float:
        return float(self.value[self._mask(names)].sum())

    def under(self, ancestors) -> np.ndarray:
        """Mask of spans that have an ancestor named in `ancestors`."""
        flag = self._mask(ancestors)
        out = np.zeros(len(flag), dtype=bool)
        cur = self.parent.copy()
        while np.any(cur >= 0):
            live = cur >= 0
            out[live] |= flag[cur[live]]
            cur[live] = self.parent[cur[live]]
        return out

    def calls_under(self, names, ancestors) -> int:
        return int(np.count_nonzero(self._mask(names) & self.under(ancestors)))

    def measured_under(self, names, ancestors) -> float:
        return float(self.value[self._mask(names) & self.under(ancestors)].sum())

    def stage_seconds(self, stage: str) -> float:
        """Time in the stage's entry points called directly by the solve."""
        top = np.isin(self.parent, np.flatnonzero(self._mask((ROOT,))))
        return float(self.duration[top & self._mask(STAGES[stage])].sum())


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def solve_metrics(sp: Spans) -> dict:
    """Per-layer metrics of one traced solve, keyed by metric name."""
    m = {f"pipeline.{stage}_s": sp.stage_seconds(stage)
         for stage in STAGES if stage != "spectrum"}
    stage_total = sum(sp.stage_seconds(stage) for stage in STAGES)
    m["spectrum.build_s"] = sp.total("pipeline.build_spectrum", "pipeline.split_spectrum")
    m["spectrum.evaluate.calls"] = sp.calls("spectrum.SpectrumSlice.evaluate")
    m["spectrum.evaluate.self_s"] = sp.self_s("spectrum.SpectrumSlice.evaluate")
    m["spectrum.project.calls"] = sp.calls("spectrum.SpectrumSlice.project")
    m["spectrum.project.self_s"] = sp.self_s("spectrum.SpectrumSlice.project")
    m["spectrum.norms.calls"] = sp.calls(*_NORMS)
    m["spectrum.norms.self_s"] = sp.self_s(*_NORMS)
    m["spectrum.bytes_computed"] = sp.measured(*_TRANSFORMS)
    m["nonlinearity.f.calls"] = sp.calls(_NONLINEARITY[0])
    m["nonlinearity.deriv.calls"] = sp.calls(_NONLINEARITY[1])
    m["nonlinearity.primitive.calls"] = sp.calls(_NONLINEARITY[2])
    points = sp.measured(*_NONLINEARITY)
    m["nonlinearity.points"] = points
    m["nonlinearity.self_s"] = sp.self_s(*_NONLINEARITY)
    m["nonlinearity.us_per_point"] = 1e6 * _ratio(m["nonlinearity.self_s"], points)
    for short, names in (("value", ("energy.EnergyFunctional.value",)),
                         ("gradient", _GRADIENT),
                         ("hessian_pencil", ("energy.EnergyFunctional.hessian_pencil",)),
                         ("morse_data", ("energy.EnergyFunctional.morse_data",))):
        m[f"energy.{short}.calls"] = sp.calls(*names)
        m[f"energy.{short}.self_s"] = sp.self_s(*names)
    refine_calls = sp.calls(*_REFINE)
    m["solvers.refine_critical.calls"] = refine_calls
    m["solvers.refine_critical.ok_ratio"] = _ratio(sp.measured(*_REFINE), refine_calls)
    m["solvers.refine_critical.self_s"] = sp.self_s(*_REFINE)
    m["solvers.hybr.nfev"] = sp.measured("solvers.root")
    m["solvers.mountain_pass.sweeps"] = sp.measured("pipeline.mountain_pass")
    m["solvers.mountain_pass.value_calls"] = sp.calls_under(
        ("energy.EnergyFunctional.value",), ("pipeline.mountain_pass",))
    starts = sp.measured(*_MULTISTART)
    found = sp.measured_under(("solvers.dedup_records",), _MULTISTART)
    m["solvers.multistart.starts"] = starts
    m["solvers.multistart.yield"] = _ratio(found, starts)
    m["solvers.descend.calls"] = sp.calls("solvers._descend")
    m["reduction.psi.calls"] = sp.calls("reduction.psi")
    m["reduction.psi.self_s"] = sp.self_s("reduction.psi")
    m["reduction.psi.gradient_calls"] = sp.calls_under(_GRADIENT, ("reduction.psi",))
    m["records.make_record.calls"] = sp.calls(*_MAKE_RECORD)
    m["records.make_record.self_s"] = sp.self_s(*_MAKE_RECORD)
    m["ledger.add.calls"] = sp.calls("ledger.DegreeLedger.add")
    m["ledger.reconcile.calls"] = sp.calls("ledger.DegreeLedger.reconcile")
    m["trace.solve_s"] = sp.total(ROOT)
    m["trace.stage_coverage"] = _ratio(stage_total, m["trace.solve_s"])
    return m


def site_calls(sp: Spans) -> dict:
    """Calls seen at every recorded span name."""
    counts = np.bincount(sp.name_id, minlength=len(sp.names))
    return {name: int(counts[i]) for i, name in enumerate(sp.names)}
