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

A constant field, one whose every coefficient off mode 0 is exactly 0, has
the single grid value t = c_0 phi_0 (`SpectrumSlice.grid_constant`), so its
data is read off one scalar with no field transform:

    J = 1/2 lam_0 c_0^2 - F(t) sum_i w_i,
    L2 gradient = (lam_0 c_0 - f(t) sum_i w_i phi_0(x_i), 0, ..., 0),

and the Morse data of `morse_data`.  `value`, `gradient`, `l2_gradient`
(and so `residual`) and `morse_data` take that path; they agree with the
quadrature to rounding.  `bump_values` gives J along a constant plus
multiples of one field, the first path of a mountain pass, in closed form
as well.
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
        # the quadrature masses of a constant field: sum_i w_i and
        # sum_i w_i phi_0(x_i)
        self._mass = float(np.sum(spectrum.weights))
        self._mode0_mass = float(spectrum.weights @ spectrum.basis[:, 0])

    def value(self, u) -> float:
        u = np.asarray(u, dtype=float)
        t = self.spectrum.grid_constant(u)
        if t is not None:
            # J = 1/2 lam_0 c_0^2 - F(t) sum_i w_i at a constant field
            quad = self.nonlinearity.primitive(t) * self._mass
            return float(0.5 * self._lam[0] * u[0] * u[0] - quad)
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

    def bump_values(self, c0, amps, bump) -> np.ndarray:
        """J of every field c0[s] e_0 + amps[s] bump, amps >= 0: a constant
        plus a nonnegative multiple of one field, as on the first path of a
        mountain pass between constant endpoints.

        Field s takes the grid values t_s + d_s beta_i, with t_s = c0[s]
        phi_0, d_s = amps[s] and beta the grid values of `bump`, so on each
        polynomial piece p of F the quadrature is a Taylor sum about t_s,

            sum_{i in p} w_i F(t_s + d_s beta_i)
                = sum_m F_p^(m)(t_s) / m! d_s^m sum_{i in p} w_i beta_i^m.

        beta is sorted once and the moments sum w beta^m, m up to the
        degree of F (4), become prefix sums, so a field costs one
        `searchsorted` for its piece boundaries and no grid pass.  Expanding
        about t_s, not about the piece's left end, keeps the cancellation to
        the size of d_s beta.  Each entry agrees with `values` of the same
        row to rounding.
        """
        c0 = np.asarray(c0, dtype=float)
        amps = np.asarray(amps, dtype=float)
        bump = np.asarray(bump, dtype=float)
        if np.any(amps < 0):
            raise ValueError("bump_values needs nonnegative amplitudes")
        rows = amps[:, None] * bump
        rows[:, 0] += c0
        quadratic = 0.5 * np.sum(self._lam * rows * rows, axis=1)

        spec, fpp = self.spectrum, self.nonlinearity.fppoly
        beta = spec.evaluate(bump)
        order = np.argsort(beta)
        beta = beta[order]
        deg = len(fpp.c) - 1
        moments = np.zeros((deg + 1, beta.size + 1))
        moments[0, 1:] = spec.weights[order]
        for m in range(1, deg + 1):
            np.multiply(moments[m - 1, 1:], beta, out=moments[m, 1:])
        np.cumsum(moments[:, 1:], axis=1, out=moments[:, 1:])

        # the grid points of field s on piece p are the sorted indices
        # edges[s, p] .. edges[s, p + 1]; PPoly puts a point on a breakpoint
        # into the piece to its right, as searchsorted's "left" side does
        t = c0 * spec.basis[0, 0]
        x = fpp.x
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            cuts = (x[1:-1] - t[:, None]) / amps[:, None]
        flat = amps == 0.0
        cuts[flat] = np.where(x[1:-1] <= t[flat, None], -np.inf, np.inf)
        edges = np.empty((len(t), x.size), dtype=int)
        edges[:, 0], edges[:, -1] = 0, beta.size
        edges[:, 1:-1] = np.searchsorted(beta, cuts)
        sums = np.diff(moments[:, edges], axis=2)  # (m, field, piece)

        # Taylor coefficients of each piece of F about t_s by repeated
        # synthetic division, descending powers: coef[deg - m] goes with
        # d^m; F is fppoly less its value at 0
        z = t[:, None] - x[:-1]
        coef = np.repeat(fpp.c[:, None, :], len(t), axis=1)
        coef[-1] -= self.nonlinearity._f0
        for i in range(deg):
            for j in range(1, deg + 1 - i):
                coef[j] += z * coef[j - 1]
        per_power = np.sum(coef[::-1] * sums, axis=2)  # (m, field)
        return quadratic - np.sum(per_power * amps ** np.arange(deg + 1)[:, None], axis=0)

    def gradient(self, u) -> np.ndarray:
        """Sobolev-metric gradient coefficients."""
        u = np.asarray(u, dtype=float)
        return u - (self._projected(u) + u) / self._one_plus_lam

    def l2_gradient(self, u) -> np.ndarray:
        """Partial derivatives of J with respect to the coefficients."""
        u = np.asarray(u, dtype=float)
        return self._lam * u - self._projected(u)

    def _projected(self, u) -> np.ndarray:
        # the L2 projection of f(u); at a constant field t it is
        # f(t) sum_i w_i phi_0(x_i) on mode 0 alone
        t = self.spectrum.grid_constant(u)
        if t is None:
            return self.spectrum.project(self.nonlinearity(self.spectrum.evaluate(u)))
        p = np.zeros(self.spectrum.n_modes)
        p[0] = self.nonlinearity(t) * self._mode0_mass
        return p

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
        t = self.spectrum.grid_constant(u)
        if t is None:
            evals, evecs = self.hessian_spectrum(u)
        else:
            # f' at the field's grid value, the one the quadrature would see
            slope = float(self.nonlinearity.deriv(t))
            nu = (self._lam - slope) / self._one_plus_lam
            order = np.argsort(nu, kind="stable")
            evals = nu[order]
            evecs = np.zeros((len(nu), len(nu)))
            evecs[order, np.arange(len(nu))] = 1.0 / np.sqrt(self._one_plus_lam[order])
        index = int(np.count_nonzero(evals < -DEGENERACY_TOL))
        degenerate = bool(np.min(np.abs(evals)) < DEGENERACY_TOL)
        return evals, evecs, index, degenerate
