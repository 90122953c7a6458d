"""Neumann eigenbasis machinery on intervals and rectangles.

The Neumann Laplacian on a box has a closed-form cosine eigenbasis, so no
eigensolver is involved: eigenvalues on [0, L] are (j*pi/L)^2 with j >= 0,
and products of axis cosines on rectangles.  Fields are plain numpy arrays
of coefficients in the L2-orthonormal basis.  Both the L2 and the Sobolev
(H1) inner products are diagonal in these coordinates, which keeps every
norm, projection and splitting in this package a cheap vector operation.

Quadrature is a uniform grid with trapezoid weights.  On the even-periodic
extension the trapezoid rule integrates products cos(j.) * cos(l.) exactly
as long as j + l stays below twice the panel count, so with the enforced
oversampling (points >= 4 x modes per axis) the discrete Gram matrix of the
basis is the identity up to roundoff.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from .errors import ResonantSlope

__all__ = [
    "Domain",
    "EigenPair",
    "SpectrumSlice",
    "build_spectrum",
    "check_whole_clusters",
    "neumann_modes",
    "quad_points_per_axis",
    "resonance_margin",
    "split_spectrum",
]

# a slope closer than this to an eigenvalue is resonant: the eigenvalue
# count below it, and with it the split and the degree, is ill-defined
RESONANCE_TOL = 1e-8
_SMALLEST_NORMAL = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class Domain:
    """A product box: interval [0, L] or rectangle [0, L1] x [0, L2].

    Parameters
    ----------
    kind : str
        Either "interval" or "rectangle".
    lengths : tuple of float
        One or two positive side lengths, matching `kind`.
    quad_points : int or None
        Quadrature points per axis.  None picks 4 x (modes per axis) at
        spectrum build time, the smallest count that keeps the transforms
        alias-free.
    """

    kind: str
    lengths: tuple
    quad_points: int | None = None

    def __post_init__(self):
        if self.kind not in ("interval", "rectangle"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        need = 1 if self.kind == "interval" else 2
        if not all(isinstance(L, Real) and not isinstance(L, bool) for L in self.lengths):
            raise ValueError("side lengths must be numbers")
        lengths = tuple(float(L) for L in self.lengths)
        if len(lengths) != need:
            raise ValueError(f"{self.kind} needs {need} length(s), got {len(lengths)}")
        if any(not np.isfinite(L) or L <= 0 for L in lengths):
            raise ValueError("side lengths must be positive and finite")
        object.__setattr__(self, "lengths", lengths)
        qp = self.quad_points
        if qp is not None and (isinstance(qp, bool) or not isinstance(qp, Integral) or qp < 2):
            raise ValueError(f"quad_points must be an integer of at least 2, got {qp!r}")

    @property
    def ndim(self) -> int:
        return len(self.lengths)

    @property
    def measure(self) -> float:
        return float(np.prod(self.lengths))


@dataclass(frozen=True)
class EigenPair:
    """One Neumann eigenvalue with its mode multi-index and normalization."""

    index: int
    eigenvalue: float
    mode: tuple
    norm_constant: float


def _axis_nodes_weights(length: float, n: int):
    # closed trapezoid rule; exact for the cosine products used here
    x = np.linspace(0.0, length, n)
    w = np.full(n, length / (n - 1))
    w[0] *= 0.5
    w[-1] *= 0.5
    return x, w


def _axis_basis(length: float, x: np.ndarray, mode_max: int):
    """Columns phi_j(x), j = 0..mode_max, L2-normalized on [0, length]."""
    cols = np.empty((x.size, mode_max + 1))
    cols[:, 0] = np.sqrt(1.0 / length)
    for j in range(1, mode_max + 1):
        freq = j * np.pi / length
        amp = np.sqrt(2.0 / length)
        cols[:, j] = amp * np.cos(freq * x)
    return cols


def _tensor(factors):
    """Flattened tensor product of per-axis vectors, the first axis slowest."""
    return functools.reduce(lambda a, b: np.outer(a, b).ravel(), factors)


def quad_points_per_axis(domain: Domain, n_modes: int) -> int:
    """Quadrature points per axis for the first `n_modes` eigenpairs.

    The candidate modes use axis indices below `n_modes`, so 4 x n_modes
    points per axis keep every basis product alias-free.  That floor is the
    default when `domain.quad_points` is None; an explicit count below it
    raises ValueError.
    """
    floor = 4 * int(n_modes)
    qp = floor if domain.quad_points is None else int(domain.quad_points)
    if qp < floor:
        raise ValueError(f"quad_points={qp} is below the anti-aliasing floor {floor}")
    return qp


def neumann_modes(lengths):
    """Every Neumann mode of the box with side `lengths`, as an endless
    stream of (eigenvalue, mode tuple) in ascending order of eigenvalue,
    ties in lexicographic order of the mode.

    A mode's one parent is the mode one lower on its last nonzero axis,
    whose eigenvalue is at most its own, so a heap seeded with the zero
    mode and fed each popped mode's children yields them in order.
    """
    ndim = len(lengths)

    def entry(mode):
        return sum((j * np.pi / L) ** 2 for L, j in zip(lengths, mode)), mode

    heap = [entry((0,) * ndim)]
    while True:
        lam, mode = heapq.heappop(heap)
        yield lam, mode
        last = max((a for a in range(ndim) if mode[a]), default=0)
        for a in range(last, ndim):
            heapq.heappush(heap, entry(mode[:a] + (mode[a] + 1,) + mode[a + 1:]))


def check_whole_clusters(lengths, n_modes):
    """Raise ValueError when the first `n_modes` modes of the box with side
    `lengths` end inside a cluster of eigenvalues closer than
    RESONANCE_TOL, naming the nearest counts that end between clusters.
    The truncation would keep part of an eigenspace and break the domain's
    symmetry (on the square [0, pi]^2 the modes (4, 0) and (0, 4) share the
    eigenvalue 16).  An interval's eigenvalues are simple and always pass.
    """
    if len(lengths) == 1:
        return
    eigs = []
    for lam, _ in neumann_modes(lengths):
        if len(eigs) > n_modes and lam - eigs[-1] >= RESONANCE_TOL:
            break
        eigs.append(lam)
    if eigs[n_modes] - eigs[n_modes - 1] >= RESONANCE_TOL:
        return
    cuts = [n for n in range(1, n_modes) if eigs[n] - eigs[n - 1] >= RESONANCE_TOL]
    start = cuts[-1] if cuts else 0
    nearest = [n for n in (start, len(eigs)) if n >= 2]
    raise ValueError(
        f"modes={n_modes} splits the eigenvalue {eigs[n_modes - 1]:.6g} of modes {start + 1} "
        f"to {len(eigs)}; use modes={' or '.join(map(str, nearest))}"
    )


class SpectrumSlice:
    """The first `n_modes` Neumann eigenpairs on a domain, plus transforms.

    Treat instances as immutable.  `split_spectrum` returns a new slice
    sharing the arrays but carrying the X/Y splitting data.

    Attributes
    ----------
    eigenvalues : ndarray
        Ascending eigenvalues, ties broken by lexicographic mode tuple.
    basis : ndarray, shape (n_points, n_modes)
        Eigenfunction values on the quadrature grid.
    weights : ndarray
        Quadrature weights for the flattened grid.
    embedding_constant : float
        C = sqrt(max_i sum_j phi_j(x_i)^2 / (1 + lam_j)), the discrete
        Sobolev embedding constant: max_i |u(x_i)| <= C ||u||_H1 by
        Cauchy-Schwarz, with equality at u_j = phi_j(x_i) / (1 + lam_j)
        for the maximizing grid point x_i.
    k, x_indices, y_indices
        Populated by `split_spectrum`; None before that.
    """

    def __init__(self, domain: Domain, n_modes: int):
        if n_modes < 1:
            raise ValueError("need at least one mode")
        self.domain = domain
        self.n_modes = int(n_modes)
        check_whole_clusters(domain.lengths, self.n_modes)

        self.quad_points = qp = quad_points_per_axis(domain, self.n_modes)

        # the box is a product of intervals: its grid, weights, eigenvalues
        # and eigenfunctions are tensor products of the axis ones
        xs, ws = zip(*(_axis_nodes_weights(L, qp) for L in domain.lengths))
        eigs, modes = zip(*itertools.islice(neumann_modes(domain.lengths), self.n_modes))
        self.modes = list(modes)
        # the n smallest modes use axis indices below n
        cols = [_axis_basis(L, x, self.n_modes - 1) for L, x in zip(domain.lengths, xs)]
        # 1 where a mode is odd along an axis, one row per mode
        self.parity = np.array(self.modes) % 2
        self.eigenvalues = eigs = np.array(eigs)
        self.points = np.stack([g.ravel() for g in np.meshgrid(*xs, indexing="ij")], axis=1)
        self.weights = _tensor(ws)
        self.basis = np.stack(
            [_tensor([c[:, j] for c, j in zip(cols, m)]) for m in self.modes], axis=1
        )
        self.embedding_constant = float(np.sqrt(np.max(self.basis**2 @ (1.0 / (1.0 + eigs)))))
        norm0 = 1.0 / np.sqrt(domain.measure)
        self.pairs = [
            EigenPair(index=i, eigenvalue=float(eigs[i]), mode=m, norm_constant=float(
                norm0 * np.prod([np.sqrt(2.0) if j > 0 else 1.0 for j in m])))
            for i, m in enumerate(self.modes)
        ]
        # symmetry_signs tables by oddness, shared with the split copies
        self._signs = {}
        # splitting data, filled by split_spectrum
        self.split_slope = None
        self.k = None
        self.x_indices = None
        self.y_indices = None

    # -- field operations ------------------------------------------------

    def evaluate(self, coeffs: np.ndarray) -> np.ndarray:
        """Values of the field on the quadrature grid."""
        return self.basis @ np.asarray(coeffs, dtype=float)

    def project(self, values: np.ndarray) -> np.ndarray:
        """L2 projection of grid values onto the basis, as coefficients."""
        return self.basis.T @ (self.weights * np.asarray(values, dtype=float))

    def integrate(self, values: np.ndarray) -> float:
        return float(np.dot(self.weights, values))

    def constant_field(self, value: float) -> np.ndarray:
        c = np.zeros(self.n_modes)
        c[0] = float(value) * np.sqrt(self.domain.measure)
        return c

    def h1_inner(self, a, b) -> float:
        return float(np.sum((1.0 + self.eigenvalues) * np.asarray(a) * np.asarray(b)))

    def h1_norm(self, a) -> float:
        a = np.asarray(a)
        total = float(np.sum((1.0 + self.eigenvalues) * a ** 2))
        # squares of tiny coefficients underflow to zero or lose precision
        # as subnormals; the rescaled sum is normal again
        if not total >= _SMALLEST_NORMAL:
            scale = float(np.max(np.abs(a)))
            if scale > 0:
                return scale * math.sqrt(float(np.sum((1.0 + self.eigenvalues) * (a / scale) ** 2)))
        return math.sqrt(total)

    def h1_dist(self, a, b) -> float:
        return self.h1_norm(np.asarray(a) - np.asarray(b))

    def h1_dists(self, a, points) -> np.ndarray:
        """Sobolev distances of `a - points` row by row, for a point and a
        stack of points (an empty stack included) or two stacks of equal
        length, each bit for bit the `h1_dist` of its pair."""
        points = np.asarray(points, dtype=float).reshape(-1, self.n_modes)
        diff = np.asarray(a, dtype=float) - points
        totals = np.sum((1.0 + self.eigenvalues) * diff ** 2, axis=1)
        dists = np.sqrt(totals)
        # the rows whose sum underflows take h1_norm's rescaled sum; a zero
        # row, a point of the set itself, already has its distance 0
        for i in np.flatnonzero(~(totals >= _SMALLEST_NORMAL) & diff.any(axis=1)):
            dists[i] = self.h1_norm(diff[i])
        return dists

    def grid_constant(self, coeffs):
        """The grid value c_0 phi_0 of a constant field, one whose every
        coefficient off mode 0 is exactly 0, or None for any other field.
        Every entry of `basis[:, 0]` is the same float, so it is bit for bit
        each entry of `evaluate(coeffs)`."""
        c = np.asarray(coeffs, dtype=float)
        return None if np.any(c[1:]) else c[0] * self.basis[0, 0]

    def field_range(self, coeffs) -> tuple:
        t = self.grid_constant(coeffs)
        if t is not None:
            return float(t), float(t)
        vals = self.evaluate(coeffs)
        return float(vals.min()), float(vals.max())

    def evaluate_at(self, coeffs, points) -> np.ndarray:
        """Field values at arbitrary points (not just the quadrature grid),
        given as an (n, ndim) array, one point per row."""
        c = np.asarray(coeffs, dtype=float)
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.domain.ndim:
            raise ValueError(f"points must have shape (n, {self.domain.ndim}), "
                             f"got {pts.shape}")
        out = np.zeros(pts.shape[0])
        for i, pair in enumerate(self.pairs):
            if c[i] == 0.0:
                continue
            phi = np.full(pts.shape[0], pair.norm_constant)
            for ax, j in enumerate(pair.mode):
                if j > 0:
                    phi = phi * np.cos(j * np.pi * pts[:, ax] / self.domain.lengths[ax])
            out += c[i] * phi
        return out

    def symmetry_signs(self, odd: bool) -> np.ndarray:
        """The symmetry group of the problem as sign vectors on coefficients.

        One row per group element, the identity first: then the mirrors
        across every nonempty set of axes, and, when f is odd, u -> -u and
        the negated mirrors.  Reflection across the midpoint of an axis
        maps cos(j pi x / L) to (-1)^j times itself, so a mirror flips the
        modes odd along an odd number of its axes; `signs[g] * coeffs` is
        the image of a field under element g.  Each table is built once and
        returned read-only.
        """
        odd = bool(odd)
        if odd not in self._signs:
            rows = [np.ones(self.n_modes)]
            for r in range(1, self.domain.ndim + 1):
                for axes in itertools.combinations(range(self.domain.ndim), r):
                    rows.append(1.0 - 2.0 * (self.parity[:, axes].sum(axis=1) % 2))
            if odd:
                rows += [-row for row in rows]
            table = np.array(rows)
            table.flags.writeable = False
            self._signs[odd] = table
        return self._signs[odd]

    # -- splitting --------------------------------------------------------

    def x_projection(self, coeffs: np.ndarray) -> np.ndarray:
        self._need_split()
        out = np.zeros_like(np.asarray(coeffs, dtype=float))
        out[self.x_indices] = np.asarray(coeffs)[self.x_indices]
        return out

    def y_projection(self, coeffs: np.ndarray) -> np.ndarray:
        self._need_split()
        out = np.zeros_like(np.asarray(coeffs, dtype=float))
        out[self.y_indices] = np.asarray(coeffs)[self.y_indices]
        return out

    @property
    def lambda_min_y(self) -> float:
        """The least Y eigenvalue; NaN when the Y block is empty."""
        self._need_split()
        if len(self.y_indices) == 0:
            return float("nan")
        return float(self.eigenvalues[self.y_indices].min())

    def _need_split(self):
        if self.k is None:
            raise ValueError("spectrum has not been split; call split_spectrum first")

    def summary(self) -> dict:
        out = {
            "kind": self.domain.kind,
            "lengths": list(self.domain.lengths),
            "n_modes": self.n_modes,
            "quad_points": self.quad_points,
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "modes": [list(m) for m in self.modes],
        }
        if self.k is not None:
            out["split_slope"] = self.split_slope
            out["k"] = self.k
            out["x_indices"] = [int(i) for i in self.x_indices]
            out["y_indices"] = [int(i) for i in self.y_indices]
        return out


def build_spectrum(domain: Domain, n_modes: int) -> SpectrumSlice:
    """Construct the first `n_modes` Neumann eigenpairs with transforms.
    A count that ends inside a cluster of equal eigenvalues raises
    ValueError (`check_whole_clusters`)."""
    return SpectrumSlice(domain, n_modes)


def resonance_margin(spec: SpectrumSlice, slope: float) -> float:
    """Distance from `slope` to the nearest eigenvalue of `spec`.

    Raises ResonantSlope when it is below RESONANCE_TOL: the eigenvalue
    count below a resonant slope, and with it the split and the degree, is
    ill-defined.
    """
    slope = float(slope)
    gaps = np.abs(spec.eigenvalues - slope)
    j = int(np.argmin(gaps))
    if gaps[j] < RESONANCE_TOL:
        raise ResonantSlope(
            f"slope {slope} is within {RESONANCE_TOL} of eigenvalue "
            f"{spec.eigenvalues[j]} (index {j})"
        )
    return float(gaps[j])


def split_spectrum(spec: SpectrumSlice, slope: float) -> SpectrumSlice:
    """Split the basis into X (eigenvalues below `slope`) and Y (the rest).

    Counting is strict and includes multiplicity.  Raises ResonantSlope if
    `slope` is resonant (`resonance_margin`).  Returns a new slice; the
    input is untouched.
    """
    slope = float(slope)
    resonance_margin(spec, slope)
    import copy

    out = copy.copy(spec)
    out.split_slope = slope
    below = spec.eigenvalues < slope
    out.k = int(np.count_nonzero(below))
    out.x_indices = np.nonzero(below)[0]
    out.y_indices = np.nonzero(~below)[0]
    return out
