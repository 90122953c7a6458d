"""Critical point records and solver configuration shared by the solver,
reduction and ledger modules."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

__all__ = ["SolverConfig", "CriticalPointRecord", "make_record", "principal_simple_signdef"]


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and budgets for the search stages.

    grad_tol is the Sobolev residual every returned record must meet; it is
    also where every root solve stops (see `refine_critical`).
    dedup_radius is the Sobolev distance below which two records are the
    same point, in the searches and in the ledger alike.
    path_nodes counts the mountain-pass polyline nodes, endpoints included.
    mp_offset places the outer mountain-pass endpoint that many units past
    the anchor zero.  safety_factor scales the homotopy bound into the
    search radius R.
    """

    grad_tol: float = 1e-9
    max_iters: int = 4000
    path_nodes: int = 41
    dedup_radius: float = 1e-4
    multistart_budget: int = 500
    rng_seed: int = 0
    mp_offset: float = 5.0
    safety_factor: float = 2.0
    degeneracy_tol: float = 1e-7
    simplicity_tol: float = 1e-6
    lambda_count: int = 11
    homotopy_budget: int = 32
    homotopy_start_radius: float | None = None


@dataclass
class CriticalPointRecord:
    """One converged critical point with its Morse data.

    classification is one of "constant", "minimizer", "mp_type",
    "reduction_max", "other".  provenance is a JSON-friendly dict recording
    which stage produced the point and under which functional.
    """

    coeffs: np.ndarray
    energy: float
    residual: float
    h1_norm: float
    urange: tuple
    hessian_eigs: np.ndarray
    morse_index: int
    degenerate: bool
    classification: str
    provenance: dict
    principal_vec: np.ndarray = field(repr=False, default=None)
    iterations: int = 0
    notes: tuple = ()
    # ledger bookkeeping, filled in once a DegreeLedger accepts the record
    in_ball: bool = True
    local_degree: int | None = None

    def is_constant(self, tol: float = 1e-9) -> bool:
        lo, hi = self.urange
        return hi - lo <= tol * (1.0 + max(abs(lo), abs(hi)))

    def with_notes(self, *extra) -> "CriticalPointRecord":
        return replace(self, notes=self.notes + tuple(extra))

    def to_dict(self, coeffs: bool = True) -> dict:
        out = {
            "energy": self.energy,
            "residual": self.residual,
            "h1_norm": self.h1_norm,
            "range": [self.urange[0], self.urange[1]],
            "hessian_eigs": [float(v) for v in self.hessian_eigs],
            "morse_index": self.morse_index,
            "degenerate": self.degenerate,
            "classification": self.classification,
            "provenance": self.provenance,
            "iterations": self.iterations,
            "notes": list(self.notes),
            "in_ball": self.in_ball,
            "local_degree": self.local_degree,
        }
        if coeffs:
            out["coeffs"] = [float(c) for c in self.coeffs]
        return out


def make_record(functional, coeffs, cfg: SolverConfig, classification: str,
                provenance: dict, iterations: int = 0, notes: tuple = ()) -> CriticalPointRecord:
    """Assemble a record: energy, residual, range and full Morse data."""
    coeffs = np.asarray(coeffs, dtype=float).copy()
    spec = functional.spectrum
    evals, evecs, index, degenerate = functional.morse_data(coeffs, cfg.degeneracy_tol)
    return CriticalPointRecord(
        coeffs=coeffs,
        energy=functional.value(coeffs),
        residual=functional.residual(coeffs),
        h1_norm=spec.h1_norm(coeffs),
        urange=spec.field_range(coeffs),
        hessian_eigs=evals,
        morse_index=index,
        degenerate=degenerate,
        classification=classification,
        provenance=dict(provenance),
        principal_vec=evecs[:, 0].copy(),
        iterations=iterations,
        notes=tuple(notes),
    )


def principal_simple_signdef(functional, record, simplicity_tol: float = 1e-6) -> bool:
    """Is the smallest Hessian eigenvalue simple with a sign-definite
    eigenfield?  The relative gap to the next eigenvalue must clear
    simplicity_tol and the eigenfield must not change sign on the grid."""
    evals = record.hessian_eigs
    if evals[0] >= 0:
        return False
    if len(evals) > 1:
        gap = evals[1] - evals[0]
        if gap < simplicity_tol * max(1.0, abs(evals[0])):
            return False
    vals = functional.spectrum.evaluate(record.principal_vec)
    vmin, vmax = float(vals.min()), float(vals.max())
    return vmin > 0.0 or vmax < 0.0
