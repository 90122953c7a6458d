"""End-to-end orchestration: spectrum, constants, three truncated mountain
pass stages (two passes when f is odd: the above saddle is the negated
below one), reduction, homotopy bound, degree ledger, and a multistart stage
that first closes the symmetry orbits of the records the ledger holds and
spends random starts only while a deficiency remains.  The orbits are
closed even when the first ledger balances: missing points whose degrees
cancel leave the sum unchanged.

Reports are plain dicts assembled from per-stage outputs, JSON-ready and
deterministic for a fixed config + seed (timings excluded, they are wall
clock).  Stage failures are recorded and the run continues wherever later
stages can still make sense; config errors abort.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import sys
import time
import typing
from numbers import Integral, Real

import numpy as np

from ._version import __version__
from .energy import EnergyFunctional
from .errors import ConfigError, DuplicateKnots, NeucritError, ReductionInapplicable
from .ledger import RANGE_MARGIN, DegreeLedger, qualitative_classify, transfer_to_original
from .nonlinearity import build_nonlinearity, check_hypotheses, node_layout, truncate
from .records import GRAD_TOL, SolverConfig, image_record, newton_radius
from .reduction import make_reduction_context, maximize_reduced
from .solvers import (
    SAFETY_FACTOR,
    _distinct_points,
    find_constants,
    homotopy_bound,
    mountain_pass,
    multistart,
    proven_bound,
    search_radius,
)
from .spectrum import (
    Domain,
    build_spectrum,
    check_whole_clusters,
    quad_points_per_axis,
    split_spectrum,
)

__all__ = [
    "SCHEMA_VERSION",
    "STAGES",
    "reference_config",
    "validate_config",
    "build_problem",
    "run_pipeline",
    "RunReport",
]

SCHEMA_VERSION = 1

STAGES = (
    "constants",
    "truncation_below",
    "truncation_above",
    "truncation_interval",
    "reduction",
    "homotopy",
    "ledger",
    "multistart",
)

_MULTISTART_CHUNK = 50
# the outer endpoint of the one-sided truncated mountain passes lies this
# many units past the anchor zero
MP_OFFSET = 5.0


def reference_config() -> dict:
    """The five-zero instance on [0, pi]: slopes 2.5 at the crossing zeros
    -2, 0, 2 and -3 at the wells -1, 1, asymptotically linear with slope
    2.5 (between the second and third eigenvalues, so k = 2)."""
    return {
        "schema_version": SCHEMA_VERSION,
        "modes": 16,
        "domain": {"kind": "interval", "lengths": [math.pi], "quad_points": 512},
        "nonlinearity": {
            "knots": [[-2.0, 2.5], [-1.0, -3.0], [0.0, 2.5], [1.0, -3.0], [2.0, 2.5]],
            "slope_minus_inf": 2.5,
            "slope_plus_inf": 2.5,
            "blend_margin": 1.0,
        },
        "solver": {"rng_seed": 7},
        "stages": "all",
    }


def _fields(cls) -> dict:
    """Setting name -> annotated type, read off a config dataclass."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


# settable keys of each section with their types
_SECTIONS = {
    "domain": _fields(Domain),
    "nonlinearity": {"knots": list, "slope_minus_inf": float, "slope_plus_inf": float,
                     "shape_points": list, "blend_margin": float},
    "solver": _fields(SolverConfig),
}
# the budget and the seed may not be negative
_NONNEGATIVE = ("solver",)
_TYPE_NAMES = {int: "an integer", float: "a number", list: "a list", tuple: "a list",
               str: "a string", type(None): "null"}


def _conforms(value, hint) -> bool:
    """Does a config value have the annotated type?  Lists and tuples both
    stand for JSON arrays, integers pass as numbers, booleans pass as
    neither, and numbers must be finite floats (an integer past the largest
    float would overflow the first float() that reads it)."""
    allowed = typing.get_args(hint) or (hint,)
    if value is None:
        return type(None) in allowed
    if isinstance(value, bool):
        return False
    if float in allowed:
        return isinstance(value, Real) and abs(value) <= sys.float_info.max
    if int in allowed:
        return isinstance(value, Integral)
    if list in allowed or tuple in allowed:
        return isinstance(value, (list, tuple))
    return isinstance(value, allowed)


def _check_section(name: str, section, schema: dict):
    if not isinstance(section, dict):
        raise ConfigError(f"section {name!r} must be an object")
    bad = set(section) - set(schema)
    if bad:
        raise ConfigError(f"unknown keys in section {name!r}: {sorted(bad, key=str)}")
    for key, value in section.items():
        hint = schema[key]
        if not _conforms(value, hint):
            names = " or ".join(_TYPE_NAMES[t] for t in typing.get_args(hint) or (hint,))
            raise ConfigError(f"{name}.{key} must be {names}, got {value!r}")
        if name in _NONNEGATIVE and value is not None and value < 0:
            raise ConfigError(f"{name}.{key} must not be negative, got {value!r}")


def _check_points(name: str, points, size: int):
    for p in points:
        if not (isinstance(p, (list, tuple)) and len(p) == size
                and all(_conforms(v, float) for v in p)):
            raise ConfigError(f"bad {name} entry {p!r}")


def validate_config(config: dict) -> dict:
    """Check a config dict; raises ConfigError on the first fault.

    Returns a deep copy with `schema_version` and `modes` filled in when
    absent and `stages` spelled out as a list.  Every value it accepts comes
    back as given.
    """
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(config) - {"schema_version", "modes", "stages", *_SECTIONS}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown, key=str)}")
    cfg = copy.deepcopy(config)
    version = cfg.setdefault("schema_version", SCHEMA_VERSION)
    if not _conforms(version, int) or version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version!r}")
    modes = cfg.setdefault("modes", 16)
    if not _conforms(modes, int):
        raise ConfigError(f"modes must be an integer, got {modes!r}")
    if modes < 2:
        raise ConfigError("modes must be at least 2")

    for name in ("domain", "nonlinearity"):
        if not isinstance(cfg.get(name), dict):
            raise ConfigError(f"missing required section {name!r}")
    for name, schema in _SECTIONS.items():
        _check_section(name, cfg.get(name, {}), schema)

    try:
        domain = Domain(**cfg["domain"])
        quad_points_per_axis(domain, modes)
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"bad domain: {e}")
    try:
        check_whole_clusters(domain.lengths, modes)
    except ValueError as e:
        raise ConfigError(str(e))

    nl = cfg["nonlinearity"]
    for key in ("knots", "slope_minus_inf", "slope_plus_inf"):
        if key not in nl:
            raise ConfigError(f"nonlinearity.{key} is required")
    if not nl["knots"]:
        raise ConfigError("nonlinearity.knots must be a non-empty list of [t, slope]")
    _check_points("knot", nl["knots"], 2)
    _check_points("shape point", nl.get("shape_points", []), 3)
    try:
        node_layout(nl["knots"], nl.get("shape_points", []), nl.get("blend_margin", 1.0))
    except (ValueError, DuplicateKnots) as e:
        raise ConfigError(f"nonlinearity: {e}")

    stages = cfg.get("stages", "all")
    if stages == "all":
        cfg["stages"] = list(STAGES)
    else:
        if not isinstance(stages, (list, tuple)):
            raise ConfigError("stages must be 'all' or a list of stage names")
        bad = [s for s in stages if s not in STAGES]
        if bad:
            raise ConfigError(f"unknown stages: {bad}; known: {list(STAGES)}")
        cfg["stages"] = list(stages)
    return cfg


def build_problem(config: dict):
    """The split spectrum and the nonlinearity of a validated config."""
    spec = build_spectrum(Domain(**config["domain"]), config["modes"])
    nl = config["nonlinearity"]
    f = build_nonlinearity(
        [tuple(kn) for kn in nl["knots"]],
        nl["slope_minus_inf"], nl["slope_plus_inf"],
        shape_points=[tuple(sp) for sp in nl.get("shape_points", ())],
        blend_margin=nl.get("blend_margin", 1.0),
    )
    return split_spectrum(spec, f.slope_plus_inf), f


def _jsonable(obj):
    """Deep-copy into JSON-safe types; non-finite floats become None."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


class RunReport:
    """Structured pipeline output with JSON/CSV/SVG emission."""

    def __init__(self, config):
        self.config = config
        self.hypotheses = None
        self.stages = {}
        self.skips = {}
        self.errors = {}
        self.timings = {}
        self.warnings = []
        self.ledger = None          # DegreeLedger instance
        self.ledger_report = None   # LedgerReport after the last reconcile
        self.spectrum = None
        self.functional = None
        self.records = []           # live CriticalPointRecord objects

    @property
    def ok(self) -> bool:
        return not self.errors

    @property
    def deficiency(self):
        return None if self.ledger_report is None else self.ledger_report.deficiency

    def run(self, name, fn, *args):
        """Call one stage and time it under `name`.  A NeucritError or
        ValueError it raises is recorded under `name`; the stage then
        yields None."""
        t0 = time.perf_counter()
        try:
            return fn(*args)
        except (NeucritError, ValueError) as e:
            self.errors[name] = {"type": type(e).__name__, "message": str(e)}
        finally:
            self.timings[name] = time.perf_counter() - t0

    def to_dict(self) -> dict:
        out = {
            "schema_version": SCHEMA_VERSION,
            "version": __version__,
            "config": self.config,
            "hypotheses": self.hypotheses.to_dict() if self.hypotheses else None,
            "stages": self.stages,
            "skips": self.skips,
            "errors": self.errors,
            "warnings": list(self.warnings),
            "ledger": None,
            "timings": self.timings,
        }
        if self.ledger is not None:
            out["ledger"] = self.ledger.to_json_dict(self.ledger_report)
        return _jsonable(out)

    def to_json(self) -> str:
        # no indent: json.dumps keeps its C encoder only without one
        return json.dumps(self.to_dict(), sort_keys=True)

    def write(self, out_dir) -> list:
        """Emit report.json, summary.csv and (intervals only) profiles.svg.
        Returns the paths written."""
        import os

        from .plots import render_profiles

        os.makedirs(out_dir, exist_ok=True)
        paths = []
        p = os.path.join(out_dir, "report.json")
        with open(p, "w") as fh:
            fh.write(self.to_json())
        paths.append(p)
        if self.ledger is not None:
            p = os.path.join(out_dir, "summary.csv")
            with open(p, "w") as fh:
                fh.write(self.ledger.to_csv())
            paths.append(p)
        if self.spectrum is not None and self.spectrum.domain.ndim == 1 and self.records:
            p = os.path.join(out_dir, "profiles.svg")
            with open(p, "w") as fh:
                fh.write(render_profiles(self.spectrum, self.records))
            paths.append(p)
        return paths


def _min_type_zeros(f):
    return sorted(t for t, s in f.knots if s < 0)


def _truncation_stage(report, kind, mins, below=None):
    """One truncated mountain pass plus the transfer back, on the window
    of stage `kind` between the sorted minimum-type zeros `mins`.  Returns
    the transferred record.

    With an odd f, J(-u) = J(u) and the above truncation is the negation
    of the below one, so the negation of a saddle of one is a saddle of the
    other, of the same Morse index (Palais, Comm. Math. Phys. 69, 1979).
    The above stage, given the below stage's transferred record `below`,
    therefore takes the record of its negation on the original functional
    (`records.image_record`, no evaluation but one residual) and keeps it,
    with no pass, when its residual meets GRAD_TOL, it lies in the above
    window with the transfer's RANGE_MARGIN and it is "mp_type"; its stage
    entry then holds `image_of` in place of the truncated record.  The
    residual is evaluated because oddness is decided to a tolerance
    (`nonlinearity._ODD_TOL`), not exactly.  Otherwise the pass runs as for
    any stage.
    """
    stage = f"truncation_{kind}"
    lo, hi = {"below": (None, mins[0]), "above": (mins[-1], None),
              "interval": (mins[0], mins[-1])}[kind]
    anchors = [float(x) for x in (lo, hi) if x is not None]
    func = report.functional
    if kind == "above" and below is not None and func.nonlinearity.odd:
        image = dataclasses.replace(
            image_record(below, -np.ones(report.spectrum.n_modes)),
            provenance={"stage": stage, "kind": kind, "anchors": anchors,
                        "image_of": "truncation_below"},
            iterations=0)
        if (func.residual(image.coeffs) <= GRAD_TOL and image.urange[0] >= lo + RANGE_MARGIN
                and image.classification == "mp_type"):
            report.stages[stage] = {
                "anchors": anchors,
                "image_of": "truncation_below",
                "transferred_record": image.to_dict(),
            }
            return image
    # the path runs from the first anchor to the second, or MP_OFFSET past
    # the anchor on the open side
    if len(anchors) == 2:
        end = anchors[1]
    else:
        end = anchors[0] + (MP_OFFSET if hi is None else -MP_OFFSET)
    spec = report.spectrum
    tfunc = EnergyFunctional(spec, truncate(func.nonlinearity, lo, hi))
    rec = mountain_pass(tfunc, spec.constant_field(anchors[0]), spec.constant_field(end))
    rec.provenance.update({"stage": stage, "kind": kind, "anchors": anchors})
    transferred = transfer_to_original(rec, func, tfunc)
    report.stages[stage] = {
        "anchors": anchors,
        "truncated_record": rec.to_dict(),
        "transferred_record": transferred.to_dict(),
    }
    return transferred


def run_pipeline(config: dict) -> RunReport:
    """Run the staged experiment described by `config` and return the report.

    Stage order: spectrum and hypothesis audit, constants, the three
    truncation stages below, above and between the minimum-type zeros,
    reduction, homotopy bound, ledger with reconciliation, orbit closure,
    and, while the deficiency is nonzero, random multistart chunks.  Each
    truncation stage runs a mountain pass, except the above stage when f
    is odd and the below stage found its saddle: it then keeps the
    negation of that saddle once its record passes the pass's own checks
    (see `_truncation_stage`).  The homotopy stage searches f itself
    holding the records the stages before it found, the constants, the
    transferred saddles and the reduction maximizer: they and their
    distinct group images count among its solutions, so no start of it
    builds their records again.  R is `solvers.search_radius`: above the
    closed-form bound B(0) on every member's solutions, and at least
    SAFETY_FACTOR times each norm held.  Without a homotopy result the
    ledger takes the same rule over the records found, or, when the tails
    differ and there is no B(0), SAFETY_FACTOR times their largest norm.
    """
    config = validate_config(config)
    report = RunReport(config)
    t_start = time.perf_counter()

    # spectrum, split and hypotheses; nothing runs without them
    def problem():
        spec, f = build_problem(config)
        report.spectrum = spec
        report.functional = EnergyFunctional(spec, f)
        report.hypotheses = check_hypotheses(f, spec)
        report.stages["spectrum"] = spec.summary()
        return f

    f = report.run("spectrum", problem)
    if f is None:
        return report
    spec = report.spectrum
    func = report.functional
    scfg = SolverConfig(**config.get("solver", {}))
    stages = set(config["stages"])

    def constants_stage():
        found = find_constants(func)
        report.stages["constants"] = [r.to_dict() for r in found]
        return found

    constants = []
    if "constants" in stages:
        constants = report.run("constants", constants_stage) or []

    mins = _min_type_zeros(f)
    saddles = {}
    for kind in ("below", "above", "interval"):
        stage = f"truncation_{kind}"
        if stage not in stages:
            continue
        if kind in ("below", "above") and not mins:
            report.skips[stage] = "no minimum-type zero to anchor the truncation"
        elif kind == "interval" and len(mins) < 2:
            report.skips[stage] = "interval truncation needs two minimum-type zeros"
        else:
            rec = report.run(stage, _truncation_stage, report, kind, mins,
                             saddles.get("below"))
            if rec is not None:
                saddles[kind] = rec
    transferred = list(saddles.values())

    def reduction_stage():
        try:
            ctx = make_reduction_context(func)
        except ReductionInapplicable as exc:
            report.skips["reduction"] = f"ReductionInapplicable: {exc}"
            return None
        rec = maximize_reduced(ctx)
        report.stages["reduction"] = rec.to_dict()
        return rec

    reduction_rec = report.run("reduction", reduction_stage) if "reduction" in stages else None
    base = [r for r in (*constants, *transferred, reduction_rec) if r is not None]

    def homotopy_stage():
        hres = homotopy_bound(f, spec, base)
        report.stages["homotopy"] = hres.to_dict()
        return hres.R

    R = report.run("homotopy", homotopy_stage) if "homotopy" in stages else None

    if "ledger" not in stages:
        return report
    if R is None:
        top = max((r.h1_norm for r in base), default=0.0)
        # unequal tails leave M infinite and no closed-form bound
        if np.isfinite(f.M):
            R = search_radius(proven_bound(f, spec)[0], top)
        else:
            R = SAFETY_FACTOR * max(top, 1.0)
        report.warnings.append(f"homotopy stage gave no radius; fallback R={R:.6g}")

    ledger = DegreeLedger(spec.k, R, spec)
    report.ledger = ledger
    qual = {}

    def qualifies(rec):
        # the ledger asks this of a new point only: a point it already
        # holds merges without the qualitative checks
        rep = qualitative_classify(rec, func)
        if not rep.passed:
            report.warnings.append(
                f"record from stage {rec.provenance.get('stage')} failed "
                f"qualitative checks: {[n for n, ok, _ in rep.checks if not ok]}"
            )
            return False
        qual[len(ledger.records)] = rep.to_dict()
        return True

    def ledger_stage():
        for rec in base:
            ledger.add(rec, qualifies)
        lrep = ledger.reconcile(func)
        report.ledger_report = lrep
        report.stages["ledger"] = {"initial_reconciliation": lrep.to_dict()}
        return lrep

    def orbit_seeds(recs):
        # the records of the group images of the given records, which the
        # ledger holds, that the ledger does not hold: one seed per
        # distinct point, and a record only for the kept ones
        held = [r.coeffs for r in ledger.records]
        return [image_record(recs[i], signs)
                for i, signs in _distinct_points(spec, f.odd, recs, held)]

    def multistart_stage():
        # the problem is equivariant under the domain mirrors, and under
        # u -> -u when f is odd, so the images of a critical point are
        # critical points with its energy and Morse index.  Orbits are
        # closed first, whatever the first ledger reads, by seeded passes
        # that draw nothing from the random stream: a balanced ledger can
        # still miss points whose degrees cancel.  A random chunk runs only
        # while the deficiency stays nonzero, and the orbits of what it
        # finds are closed in turn.  Every pass holds the Newton basins of
        # the ledger's records, so a start that ends at a point the ledger
        # holds builds no record.
        lrep = report.ledger_report
        passes = []
        found = []
        budget_left = scfg.multistart_budget
        rng = np.random.default_rng(scfg.rng_seed + 10_000)
        fresh = list(ledger.records)
        # the Newton basins of the ledger's records; a merge keeps a
        # record's coefficients and Hessian spectrum, so only the records a
        # pass adds extend it
        known = []
        while True:
            seeds = orbit_seeds(fresh)
            if seeds:
                kind, n = "orbit", 0
            elif budget_left > 0 and lrep.deficiency != 0:
                kind, n = "random", min(_MULTISTART_CHUNK, budget_left)
                budget_left -= n
            else:
                break
            held = len(ledger.records)
            known += [(r.coeffs, newton_radius(func, r)) for r in fresh]
            found, outcomes = multistart(func, R, seeds=seeds, budget=n, rng=rng,
                                         basins=known)
            for rec in found:
                ledger.add(rec, qualifies)
            lrep = ledger.reconcile(func)
            report.ledger_report = lrep
            fresh = ledger.records[held:]
            passes.append({"kind": kind, "starts": len(seeds) + n, "outcomes": outcomes,
                           "added": len(fresh), "deficiency": lrep.deficiency})
        report.stages["multistart"] = {
            "passes": passes,
            "chunks": sum(p["kind"] == "random" for p in passes),
            "last_chunk_found": [r.to_dict() for r in found],
            "final_deficiency": lrep.deficiency,
        }
        report.stages["ledger"]["final_reconciliation"] = lrep.to_dict()

    if report.run("ledger", ledger_stage) is None:
        return report
    if "multistart" in stages:
        report.run("multistart", multistart_stage)

    report.records = list(ledger.records)
    report.stages["ledger"]["qualitative"] = qual
    report.timings["total"] = time.perf_counter() - t_start
    return report
