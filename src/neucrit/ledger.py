"""Degree bookkeeping: local degrees from Morse data, qualitative checks,
transfer of truncated solutions to the original functional, and the global
count (-1)^k = sum of local degrees on the ball of radius R.

The ledger never forces the books to balance.  A nonzero deficiency is a
statement: at least one critical point inside the ball has not been found.
Degenerate records without a verified saddle signature carry no degree at
all; they are flagged and left out of the sum.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import RangeEscape, UnclassifiedDegenerate
from .records import DEDUP_RADIUS

__all__ = [
    "DegreeLedger",
    "LedgerReport",
    "QualReport",
    "local_degree",
    "qualitative_classify",
    "transfer_to_original",
]


# sign margin of the qualitative checks: f must be this far from zero at
# the extremes of a nonconstant record's range
QUAL_TOL = 1e-8
# how far inside the coincidence region a transferred truncation record's
# grid range must stay, against the continuum range poking past it
RANGE_MARGIN = 1e-3


# classification priority when two stages land on the same point: keep the
# label that carries the stronger degree information
_PRIORITY = {"reduction_max": 4, "mp_type": 3, "constant": 2, "minimizer": 1, "other": 0}


def local_degree(record, k: int) -> int:
    """Local topological degree of an isolated critical point.

    Nondegenerate: (-1)^morse_index.  Degenerate records still get a degree
    when their critical-group signature is known: a verified mountain-pass
    point contributes -1 and the reduction maximizer (-1)^k.  Anything else
    raises UnclassifiedDegenerate.
    """
    if not record.degenerate:
        return (-1) ** record.morse_index
    if record.classification == "mp_type":
        return -1
    if record.classification == "reduction_max":
        return (-1) ** k
    raise UnclassifiedDegenerate(
        f"degenerate record at energy {record.energy:.6g} has no degree recipe"
    )


@dataclass
class QualReport:
    checks: list = field(default_factory=list)  # (name, passed, detail)

    @property
    def passed(self):
        return all(ok for _, ok, _ in self.checks)

    def add(self, name, ok, detail=""):
        self.checks.append((name, bool(ok), detail))

    def to_dict(self):
        return {"passed": self.passed,
                "checks": [{"name": n, "passed": p, "detail": d} for n, p, d in self.checks]}


def qualitative_classify(record, functional) -> QualReport:
    """Sign and ordering checks a genuine solution must satisfy.

    Nonconstant records: f(max u) > QUAL_TOL and f(min u) < -QUAL_TOL (a
    touching extremum would force constancy).  Truncation provenance adds
    the strict ordering against the anchors: below -> max u < anchor,
    above -> min u > anchor, interval -> anchor_lo < min <= max < anchor_hi.
    Constants pass vacuously.
    """
    f = functional.nonlinearity
    rep = QualReport()
    lo, hi = record.urange
    if record.is_constant():
        rep.add("constant", True, "nonconstant checks vacuous")
        return rep
    fmax, fmin = f(hi), f(lo)
    rep.add("f_at_max_positive", fmax > QUAL_TOL, f"f({hi:.6g}) = {fmax:.3e}")
    rep.add("f_at_min_negative", fmin < -QUAL_TOL, f"f({lo:.6g}) = {fmin:.3e}")
    kind = record.provenance.get("kind")
    anchors = record.provenance.get("anchors", ())
    if kind == "below" and anchors:
        rep.add("below_ordering", hi < anchors[0], f"max u = {hi:.6g} vs {anchors[0]}")
    elif kind == "above" and anchors:
        rep.add("above_ordering", lo > anchors[0], f"min u = {lo:.6g} vs {anchors[0]}")
    elif kind == "interval" and len(anchors) == 2:
        ok = anchors[0] < lo <= hi < anchors[1]
        rep.add("interval_ordering", ok,
                f"range ({lo:.6g}, {hi:.6g}) vs ({anchors[0]}, {anchors[1]})")
    return rep


def transfer_to_original(record, functional_original, functional_truncated):
    """Re-express a truncated-functional record under the original one.

    Valid only when the record's grid range stays at least RANGE_MARGIN
    inside the region where the two nonlinearities coincide.  There f and
    f' agree, so the residual, norm, range, Hessian eigenvalues and
    principal vector are those of the truncated record, bit for bit; only
    the energy shifts, since the primitives differ by a constant on that
    region.  The result is the truncated record with the original energy
    and `transferred_from` added to its provenance; classification,
    iterations and notes carry over.  Raises RangeEscape otherwise.
    """
    region = functional_truncated.nonlinearity.untouched
    if region is None:
        raise RangeEscape("the truncated nonlinearity reports no coincidence region")
    a, b = region
    lo, hi = record.urange
    # constants need only closed containment up to roundoff (both
    # nonlinearities agree at an anchor to first order)
    if record.is_constant():
        margin = -1e-12 * (1.0 + max(abs(lo), abs(hi)))
    else:
        margin = RANGE_MARGIN
    if not (lo >= a + margin and hi <= b - margin):
        raise RangeEscape(
            f"record range ({lo:.6g}, {hi:.6g}) is not inside "
            f"({a:.6g}, {b:.6g}) with margin {margin:g}"
        )
    prov = dict(record.provenance)
    prov["transferred_from"] = functional_truncated.nonlinearity.label
    return replace(record, energy=functional_original.value(record.coeffs), provenance=prov)


def _suggest_regions(ledger, functional):
    """Low-energy basins with no nonconstant representative yet: the wells
    between consecutive minimum-type zeros and the two tails."""
    mins = [t for t, s in functional.nonlinearity.knots if s < 0]
    edges = [-np.inf] + sorted(mins) + [np.inf]
    covered = []
    for rec in ledger.records:
        if not rec.is_constant() and rec.in_ball:
            covered.append(rec.urange)
    out = []
    for i in range(len(edges) - 1):
        a, b = edges[i], edges[i + 1]
        if any(lo < b and hi > a for lo, hi in covered):
            continue
        name_a = "-inf" if not np.isfinite(a) else f"{a:g}"
        name_b = "+inf" if not np.isfinite(b) else f"{b:g}"
        out.append(f"no nonconstant record ranges into ({name_a}, {name_b}); "
                   f"seed multistart there")
    if not out:
        out.append(f"all wells represented; widen multistart within the ball R={ledger.R:.4g}")
    return out


@dataclass
class LedgerReport:
    k: int
    R: float
    global_degree: int
    degree_sum: int
    deficiency: int
    balanced: bool
    counted: int
    excluded_out_of_ball: list
    flagged: list
    message: str
    suggestions: list

    def to_dict(self):
        # shallow: the report's `_jsonable` copies it on the way out
        return dict(vars(self))


class DegreeLedger:
    """Deduplicated record store plus the degree arithmetic.

    Records whose Sobolev norm exceeds R are kept (they are solutions) but
    excluded from the global count, which the degree identity only states
    on the ball of radius R.
    """

    def __init__(self, k, R, spectrum):
        self.k = int(k)
        self.R = float(R)
        self.spectrum = spectrum
        self.records = []
        self.flags = []

    def __len__(self):
        return len(self.records)

    def match(self, coeffs) -> int | None:
        """Index of the first held record within DEDUP_RADIUS of the point
        `coeffs` in the Sobolev distance, or None when it is a new point."""
        dists = self.spectrum.h1_dists(coeffs, [r.coeffs for r in self.records])
        hits = np.flatnonzero(dists <= DEDUP_RADIUS)
        return int(hits[0]) if hits.size else None

    def add(self, record, check=None) -> str:
        """Insert with Sobolev-ball dedup (`match`).  A coincidence keeps the
        incumbent coefficients and upgrades the classification if the
        newcomer's label carries more degree information.  A new point is
        inserted only when `check`, if given, accepts it (`check(record)`
        is true), and is in the ball when the norm `make_record` stored,
        `record.h1_norm`, is at most R.  Returns a short disposition."""
        i = self.match(record.coeffs)
        if i is not None:
            old = self.records[i]
            stage = record.provenance.get("stage", "?")
            merged = old.with_notes(f"also reached by stage {stage}")
            if _PRIORITY.get(record.classification, 0) > _PRIORITY.get(old.classification, 0):
                merged.classification = record.classification
                merged.provenance = dict(record.provenance)
                merged = merged.with_notes(
                    f"classification upgraded to {record.classification}")
            self.records[i] = merged
            return f"merged into record {i}"
        if check is not None and not check(record):
            return "rejected"
        record.in_ball = bool(record.h1_norm <= self.R + 1e-9)
        self.records.append(record)
        i = len(self.records) - 1
        if not record.in_ball:
            self.flags.append((i, f"norm {record.h1_norm:.6g} outside the ball R={self.R:.6g}"))
        return f"added as record {i}"

    def reconcile(self, functional) -> LedgerReport:
        global_degree = (-1) ** self.k
        total = 0
        counted = 0
        excluded = []
        flagged = []
        for i, rec in enumerate(self.records):
            if not rec.in_ball:
                excluded.append(i)
                continue
            try:
                d = local_degree(rec, self.k)
            except UnclassifiedDegenerate as e:
                flagged.append((i, str(e)))
                flag = (i, "degenerate without signature; no degree")
                if flag not in self.flags:
                    self.flags.append(flag)
                continue
            rec.local_degree = d
            total += d
            counted += 1
        deficiency = global_degree - total
        balanced = deficiency == 0 and not flagged
        if balanced:
            msg = (f"balanced: sum of {counted} local degrees = {total} "
                   f"= (-1)^{self.k}")
            suggestions = []
        else:
            msg = (f"deficiency {deficiency}: at least one undiscovered solution "
                   f"inside the ball of radius {self.R:.6g}")
            suggestions = _suggest_regions(self, functional)
        return LedgerReport(self.k, self.R, global_degree, total, deficiency,
                            balanced, counted, excluded, flagged, msg, suggestions)

    # report emission -----------------------------------------------------

    def to_json_dict(self, report: LedgerReport | None = None):
        out = {
            "k": self.k,
            "R": self.R,
            "records": [r.to_dict() for r in self.records],
            "flags": [{"record": i, "reason": s} for i, s in self.flags],
        }
        if report is not None:
            out["reconciliation"] = report.to_dict()
        return out

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["index", "classification", "energy", "h1_norm", "residual",
                    "morse_index", "degenerate", "degree", "in_ball",
                    "u_min", "u_max", "stage"])
        for i, r in enumerate(self.records):
            w.writerow([
                i, r.classification, f"{r.energy:.12g}", f"{r.h1_norm:.12g}",
                f"{r.residual:.3e}", r.morse_index, int(r.degenerate),
                "" if r.local_degree is None else r.local_degree, int(r.in_ball),
                f"{r.urange[0]:.12g}", f"{r.urange[1]:.12g}",
                r.provenance.get("stage", ""),
            ])
        return buf.getvalue()
