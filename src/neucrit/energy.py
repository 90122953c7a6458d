"""The Galerkin energy functional and its derivatives in the eigenbasis.

For a field u with coefficients u_j,

    J(u) = 1/2 sum_j lam_j u_j^2 - int F(u),

with the nonlinear integral taken by the spectrum's quadrature.  The
gradient is represented in the Sobolev metric, where it takes the
identity-minus-compact form

    grad_j = u_j - p_j / (1 + lam_j),      p = L2-projection of f(u) + u,

so the map behaves like a compact perturbation of the identity; the
coefficients p_j / (1 + lam_j) decay like 1 / (1 + lam_j).  The Hessian is
kept in two forms: the row-scaled Sobolev representation matching the
gradient, and the symmetric pencil (A, B) with

    A = diag(lam) - int f'(u) phi_j phi_l,      B = diag(1 + lam),

whose generalized eigenproblem A v = nu B v yields the Morse data with
B-orthonormal (that is, Sobolev-orthonormal) eigenfields.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import eigh

__all__ = ["EnergyFunctional"]

# Hessian eigenvalues within this of zero count as degenerate; only those
# below -DEGENERACY_TOL count toward the Morse index
DEGENERACY_TOL = 1e-7
# float64 grid values per batched array of J evaluations, in `values` and
# in the reduction's population solve (256 KB); at 1 MB the population
# solve's temporaries raised the peak memory of a run by 7 MB
BLOCK_ELEMENTS = 1 << 15


class EnergyFunctional:
    def __init__(self, spectrum, nonlinearity):
        self.spectrum = spectrum
        self.nonlinearity = nonlinearity
        self._lam = spectrum.eigenvalues
        self._one_plus_lam = 1.0 + spectrum.eigenvalues

    def value(self, u) -> float:
        u = np.asarray(u, dtype=float)
        vals = self.spectrum.evaluate(u)
        quad = self.spectrum.integrate(self.nonlinearity.primitive(vals))
        return float(0.5 * np.sum(self._lam * u * u) - quad)

    def values(self, rows) -> np.ndarray:
        """J of every row of a stack of coefficient rows.

        The rows go through in blocks of at most BLOCK_ELEMENTS grid values
        (one row per block when a single field has more), each with one
        field transform and one primitive call.  Each entry agrees with
        `value` of its row to rounding: the batched transform may sum in
        another order.
        """
        rows = np.asarray(rows, dtype=float).reshape(-1, self.spectrum.n_modes)
        basis, weights = self.spectrum.basis, self.spectrum.weights
        block = max(1, BLOCK_ELEMENTS // basis.shape[0])
        quad = np.empty(len(rows))
        for lo in range(0, len(rows), block):
            vals = rows[lo:lo + block] @ basis.T
            quad[lo:lo + block] = self.nonlinearity.primitive(vals) @ weights
        return 0.5 * np.sum(self._lam * rows * rows, axis=1) - quad

    def gradient(self, u) -> np.ndarray:
        """Sobolev-metric gradient coefficients."""
        u = np.asarray(u, dtype=float)
        vals = self.spectrum.evaluate(u)
        p = self.spectrum.project(self.nonlinearity(vals)) + u
        return u - p / self._one_plus_lam

    def l2_gradient(self, u) -> np.ndarray:
        """Partial derivatives of J with respect to the coefficients."""
        u = np.asarray(u, dtype=float)
        vals = self.spectrum.evaluate(u)
        return self._lam * u - self.spectrum.project(self.nonlinearity(vals))

    def residual(self, u) -> float:
        return self.spectrum.h1_norm(self.gradient(u))

    def _weighted_gram(self, u) -> np.ndarray:
        # q_jl = int (f'(u) + 1) phi_j phi_l under quadrature
        vals = self.spectrum.evaluate(u)
        w = self.spectrum.weights * (self.nonlinearity.deriv(vals) + 1.0)
        return self.spectrum.basis.T @ (w[:, None] * self.spectrum.basis)

    def hessian(self, u) -> np.ndarray:
        """Sobolev representation: H_jl = delta_jl - q_jl / (1 + lam_j).

        Self-adjoint in the Sobolev inner product, not elementwise
        symmetric; use `hessian_pencil` or `hessian_spectrum` for
        eigenproblems.
        """
        q = self._weighted_gram(np.asarray(u, dtype=float))
        return np.eye(self.spectrum.n_modes) - q / self._one_plus_lam[:, None]

    def hessian_pencil(self, u):
        """(A, B) with A = diag(1 + lam) - q symmetric and B = diag(1 + lam).

        A is also the plain coefficient-space Hessian plus nothing: A equals
        d^2 J / dc^2 since diag(1 + lam) - q = diag(lam) - int f'(u) phi phi.
        """
        q = self._weighted_gram(np.asarray(u, dtype=float))
        A = np.diag(self._one_plus_lam) - q
        B = np.diag(self._one_plus_lam)
        return A, B

    def hessian_spectrum(self, u):
        """Ascending eigenvalues and Sobolev-orthonormal eigenfields."""
        A, B = self.hessian_pencil(u)
        evals, evecs = eigh(A, B)
        return evals, evecs

    def morse_data(self, u):
        """(eigenvalues, eigenfields, morse index, degenerate flag).

        At a constant field t (every coefficient off mode 0 exactly 0) the
        data is read off the spectrum: Gram = I makes the pencil diagonal,
        A = diag(lam_j - f'(t)) and B = diag(1 + lam_j), so the eigenvalues
        are (lam_j - f'(t)) / (1 + lam_j) in ascending stable order and the
        eigenfields are e_j / sqrt(1 + lam_j).  A root solve from a constant
        start stays exactly on that line (`solvers.refine_critical`), so the
        constants it finds take this path too.  Everywhere else the pencil
        is assembled and solved (`hessian_spectrum`).
        """
        u = np.asarray(u, dtype=float)
        if np.any(u[1:]):
            evals, evecs = self.hessian_spectrum(u)
        else:
            # f' at the field's grid value, the one the quadrature would see
            slope = float(self.nonlinearity.deriv(u[0] * self.spectrum.basis[0, 0]))
            nu = (self._lam - slope) / self._one_plus_lam
            order = np.argsort(nu, kind="stable")
            evals = nu[order]
            evecs = np.zeros((len(nu), len(nu)))
            evecs[order, np.arange(len(nu))] = 1.0 / np.sqrt(self._one_plus_lam[order])
        index = int(np.count_nonzero(evals < -DEGENERACY_TOL))
        degenerate = bool(np.min(np.abs(evals)) < DEGENERACY_TOL)
        return evals, evecs, index, degenerate
