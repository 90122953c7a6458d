"""Critical point records, solver configuration and the tolerances shared by
the solver, reduction and ledger modules."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

__all__ = ["SolverConfig", "CriticalPointRecord", "make_record", "image_record",
           "newton_radius", "principal_simple_signdef"]

# the Sobolev residual every returned record must meet; it is also where
# every root solve stops (see `solvers.refine_critical`)
GRAD_TOL = 1e-9
# the Sobolev distance below which two records are the same point, in the
# searches and in the ledger alike
DEDUP_RADIUS = 1e-4
# relative grid-range width up to which a record counts as a constant field
CONSTANT_TOL = 1e-9
# relative gap the smallest Hessian eigenvalue must keep from the next one
# to count as simple
SIMPLICITY_TOL = 1e-6


@dataclass(frozen=True)
class SolverConfig:
    """The two search settings a run may choose.

    rng_seed seeds the random stream of the multistart stage; no other
    stage draws a random number.  multistart_budget caps the
    random starts the multistart stage spends while the ledger is
    unbalanced.  Tolerances, iteration budgets and path sizes are module
    constants next to the code that reads them: GRAD_TOL and DEDUP_RADIUS
    here, the rest in `solvers`, `energy`, `reduction`, `ledger`, `spectrum`
    and `pipeline`.
    """

    multistart_budget: int = 500
    rng_seed: int = 0


@dataclass
class CriticalPointRecord:
    """One converged critical point with its Morse data.

    classification is one of "constant", "minimizer", "mp_type",
    "reduction_max", "other".  provenance is a JSON-friendly dict recording
    which stage produced the point and under which functional.
    newton_radius is the Sobolev radius of the point's certified Newton
    basin under the record's functional (`newton_radius` below), set once
    by `make_record`: a search holds the records of the points it has found
    and stops a root solve that enters one of their basins.
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
    newton_radius: float = 0.0
    # ledger bookkeeping, filled in once a DegreeLedger reconciles the record
    local_degree: int | None = None

    def is_constant(self) -> bool:
        lo, hi = self.urange
        return hi - lo <= CONSTANT_TOL * (1.0 + max(abs(lo), abs(hi)))

    def with_notes(self, *extra) -> "CriticalPointRecord":
        return replace(self, notes=self.notes + tuple(extra))

    def to_dict(self) -> dict:
        return {
            "energy": self.energy,
            "residual": self.residual,
            "h1_norm": self.h1_norm,
            "range": [self.urange[0], self.urange[1]],
            "hessian_eigs": np.asarray(self.hessian_eigs, dtype=float).tolist(),
            "morse_index": self.morse_index,
            "degenerate": self.degenerate,
            "classification": self.classification,
            "provenance": self.provenance,
            "iterations": self.iterations,
            "notes": list(self.notes),
            "local_degree": self.local_degree,
            "coeffs": np.asarray(self.coeffs, dtype=float).tolist(),
        }


def make_record(functional, coeffs, classification: str, provenance: dict,
                iterations: int = 0, notes: tuple = ()) -> CriticalPointRecord:
    """Assemble a record: energy, residual, range, full Morse data and the
    Newton radius they give."""
    coeffs = np.asarray(coeffs, dtype=float).copy()
    spec = functional.spectrum
    evals, evecs, index, degenerate = functional.morse_data(coeffs)
    rec = CriticalPointRecord(
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
    rec.newton_radius = newton_radius(functional, rec)
    return rec


def image_record(record, signs) -> CriticalPointRecord:
    """The record of the group image signs * record.coeffs, with no
    evaluation.

    `signs` is a row of `SpectrumSlice.symmetry_signs`.  J is invariant
    under the group and the Hessian at the image is S H S, S = diag(signs),
    so the image keeps the energy, residual, norm, Hessian spectrum, Morse
    index, degenerate flag and Newton radius, and its principal eigenfield
    is signs * principal_vec.  A mirror permutes the grid values, so the range
    stays; a sign -1 on mode 0 belongs to u -> -u, which negates the range
    and swaps its ends.  Classification, provenance, iterations and notes
    are the source's, and the ledger bookkeeping starts afresh.
    """
    signs = np.asarray(signs, dtype=float)
    lo, hi = record.urange
    return replace(
        record,
        coeffs=signs * record.coeffs,
        urange=(lo, hi) if signs[0] > 0 else (-hi, -lo),
        principal_vec=signs * record.principal_vec,
        provenance=dict(record.provenance),
        local_degree=None,
    )


def newton_radius(functional, record) -> float:
    """Sobolev radius of the certified Newton basin of a record's zero.

    Plain Newton converges to a zero x* from every point within
    2 / (3 beta L) of it, beta a bound on the inverse Hessian at x* and L
    the Lipschitz constant of the Hessian (Rall, SIAM J. Numer. Anal. 11,
    1974).  In the Sobolev metric beta = 1 / min |nu| over the record's
    `hessian_eigs`, the eigenvalues of the pencil.  Gram = I and positive
    quadrature weights give |<(A(u) - A(v)) h, k>| <= sup |f''|
    max_i |u(x_i) - v(x_i)| ||h|| ||k||, so L = sup |f''| C with C the
    spectrum's `embedding_constant`.  An affine f has L = 0 and an infinite
    radius; a degenerate record has no certified basin, radius 0.
    """
    if record.degenerate:
        return 0.0
    L = functional.nonlinearity.curvature * functional.spectrum.embedding_constant
    if L == 0.0:
        return np.inf
    return 2.0 * float(np.min(np.abs(record.hessian_eigs))) / (3.0 * L)


def principal_simple_signdef(functional, record) -> bool:
    """Is the smallest Hessian eigenvalue simple with a sign-definite
    eigenfield?  The relative gap to the next eigenvalue must clear
    SIMPLICITY_TOL and the eigenfield must not change sign on the grid."""
    evals = record.hessian_eigs
    if evals[0] >= 0:
        return False
    if len(evals) > 1:
        gap = evals[1] - evals[0]
        if gap < SIMPLICITY_TOL * max(1.0, abs(evals[0])):
            return False
    vals = functional.spectrum.evaluate(record.principal_vec)
    vmin, vmax = float(vals.min()), float(vals.max())
    return vmin > 0.0 or vmax < 0.0
