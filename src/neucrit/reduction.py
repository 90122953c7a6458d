"""Finite-dimensional reduction: eliminate the high-frequency block by
strongly convex minimization.

With the split grad slope sitting between the low block X and the high
block Y, and the nonlinearity's certified top slope gamma below every Y
eigenvalue, the map y -> J(x + y) is strongly convex on Y with modulus

    m = (lambda_min(Y) - gamma) / (1 + lambda_min(Y))

in the Sobolev metric.  psi(x) is its unique minimizer, the reduced
functional Jt(x) = J(x + psi(x)) lives on the k-dimensional X block, and
maximizing Jt produces the distinguished critical point whose full Hessian
index is expected to be k.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
from scipy.optimize import minimize as scipy_minimize

from .errors import AsymmetricSlopes, MaxItersExceeded, ModulusViolated, ReductionInapplicable
from .records import make_record
from .solvers import refine_critical
from .spectrum import resonance_margin

__all__ = [
    "ReductionContext",
    "make_reduction_context",
    "psi",
    "PopulationSolve",
    "psi_population",
    "reduced_value",
    "maximize_reduced",
    "monotonicity_certificate",
    "local_max_min_at_constant",
    "LocalMaxMinReport",
]

# Sobolev norm of the Y-block gradient at which psi's inner solve stops
INNER_TOL = 1e-9
# Newton iterations of the inner solve before it gives up
MAX_INNER = 20000
_MODULUS_SLACK = 1e-10
# float64 elements per batched array of the population solve (256 KB); at
# 1 MB the solve's temporaries raised the peak memory of a run by 7 MB
_BLOCK_ELEMENTS = 1 << 15
# relative energy change below which a Newton step counts as no rise: two
# energies of nearly equal fields differ by rounding near convergence
_ENERGY_ROUNDING = 1e-12
# seeds per axis of the reduction's seed grid for k <= 4; its fourth power
# caps the grid size beyond (`maximize_reduced`).  On the reference
# interval, the reference rectangle and the k = 3 variant (slopes 5), 5, 7
# and 9 points per axis over the closed-form box all find the maximizer.
# The grid at k = 5, 6 and 7 (tail slopes 17 to 40) finds the maximizer
# energy of 9^4 uniform random seeds in the same box to 1e-14 relative.
_SEEDS_PER_AXIS = 9


@dataclass(frozen=True)
class ReductionContext:
    functional: object
    m: float            # strong convexity modulus of the Y block, H1 metric
    lam: float          # certified Lipschitz bound of the Y-block gradient

    @property
    def spectrum(self):
        return self.functional.spectrum

    @property
    def k(self):
        return self.spectrum.k


def make_reduction_context(functional) -> ReductionContext:
    """Validate applicability and package the certified constants.

    Raises ReductionInapplicable when gamma >= lambda_min(Y), where the
    Y block stops being uniformly convex and the reduction has no
    uniqueness guarantee.
    """
    spec = functional.spectrum
    f = functional.nonlinearity
    lam_min_y = spec.lambda_min_y
    if not np.isfinite(lam_min_y) or f.gamma >= lam_min_y:
        raise ReductionInapplicable(
            f"gamma={f.gamma:.6g} is not below the first Y eigenvalue {lam_min_y:.6g}"
        )
    m = (lam_min_y - f.gamma) / (1.0 + lam_min_y)
    # Lipschitz bound of y -> P_Y grad J(x+y) in the Sobolev metric:
    # <H y, y> = |y|^2 - int (f'(u)+1) y^2, and on Y the L2 norm is
    # controlled by |y|^2 / (1 + lambda_min(Y)).
    lam = 1.0 + max(0.0, -(1.0 + f.min_slope)) / (1.0 + lam_min_y)
    return ReductionContext(functional, m, lam)


def _y_block_gradient(ctx, u):
    return ctx.spectrum.y_projection(ctx.functional.gradient(u))


def psi(ctx: ReductionContext, x, y0=None):
    """The unique Y-supported minimizer of y -> J(x + y), for one x.

    The one-row case of `psi_population`, started from the Y block of `y0`
    (y = 0 when it is None).  This is the warm-started solve of the ascent
    and of the final polish.
    """
    y0 = None if y0 is None else np.asarray(y0, dtype=float)[None]
    return psi_population(ctx, np.asarray(x, dtype=float)[None], y0).y[0]


@dataclass(frozen=True)
class PopulationSolve:
    """psi for a population of X rows, with the steps taken to get there."""

    y: np.ndarray         # psi of each row, zero off the Y block
    values: np.ndarray    # reduced values J(x + psi(x))
    newton_steps: int     # accepted Newton steps, summed over rows
    fallback_steps: int   # certified fixed steps taken instead of Newton


def psi_population(ctx: ReductionContext, xs, y0=None) -> PopulationSolve:
    """psi of every row of `xs` (coefficient rows, X-projected here).

    Newton on the Y block runs for a block of rows at once, from the Y
    block of the matching row of `y0` (y = 0 when it is None): each
    iteration costs one field transform, one f, one f' and one primitive
    call for the block and one batched solve of the Y-block Hessians.  A
    row whose Newton step does not lower J(x + y) takes the certified step
    2/(m + Lam) instead.  Every pair of consecutive iterates of every row
    probes the strong-convexity inequality; a violation raises
    ModulusViolated.  Blocks are sized so that each batched array holds
    about 256 KB.
    """
    spec = ctx.spectrum
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    rows = np.zeros_like(xs)
    rows[:, spec.x_indices] = xs[:, spec.x_indices]
    if y0 is not None:
        rows[:, spec.y_indices] = np.atleast_2d(y0)[:, spec.y_indices]
    values = np.empty(len(rows))
    newton = fallback = 0
    block = max(1, _BLOCK_ELEMENTS // spec.basis.shape[0])
    for lo in range(0, len(rows), block):
        values[lo:lo + block], n, b = _newton_block(ctx, rows[lo:lo + block])
        newton, fallback = newton + n, fallback + b
    rows[:, spec.x_indices] = 0.0
    return PopulationSolve(rows, values, newton, fallback)


def _newton_block(ctx, c):
    """Minimize over the Y block of each row of `c` in place.  Returns the
    energies and the Newton and fallback step counts."""
    spec = ctx.spectrum
    f = ctx.functional.nonlinearity
    yi = spec.y_indices
    lam = spec.eigenvalues
    h1_y = 1.0 + lam[yi]
    basis, w = spec.basis, spec.weights
    basis_y = basis[:, yi]
    diag_y = np.diag(lam[yi])
    hess_rows = max(1, _BLOCK_ELEMENTS // basis_y.size)
    fixed_step = 2.0 / (ctx.m + ctx.lam)

    def state(rows):
        # field values, J and the Y-block partial derivatives of J per row
        u = rows @ basis.T
        energy = 0.5 * (rows * rows) @ lam - f.primitive(u) @ w
        grad = rows[:, yi] * lam[yi] - (f(u) * w) @ basis_y
        return u, energy, grad

    values = np.empty(len(c))
    newton = fallback = 0
    live = np.arange(len(c))
    u, energy, grad = state(c)
    for _ in range(MAX_INNER):
        done = np.sqrt(np.sum(grad * grad / h1_y, axis=1)) <= INNER_TOL
        values[live[done]] = energy[done]
        live, u, energy, grad = live[~done], u[~done], energy[~done], grad[~done]
        if live.size == 0:
            return values, newton, fallback
        wd = f.deriv(u) * w
        hess = np.empty((live.size, yi.size, yi.size))
        for lo in range(0, live.size, hess_rows):
            weighted = basis_y.T * wd[lo:lo + hess_rows, None, :]
            hess[lo:lo + hess_rows] = diag_y - weighted @ basis_y
        trial = c[live]
        y = trial[:, yi]
        trial[:, yi] = y + np.linalg.solve(hess, -grad[..., None])[..., 0]
        u_new, e_new, g_new = state(trial)
        rise = ~(e_new <= energy + _ENERGY_ROUNDING * (1.0 + np.abs(energy)))
        if np.any(rise):
            back = np.flatnonzero(rise)
            trial[np.ix_(back, yi)] = y[back] - fixed_step * grad[back] / h1_y
            u_new[back], e_new[back], g_new[back] = state(trial[back])
        dy = trial[:, yi] - y
        gap = np.sum((g_new - grad) * dy, axis=1) - ctx.m * np.sum(h1_y * dy * dy, axis=1)
        if np.min(gap) < -_MODULUS_SLACK:
            raise ModulusViolated(
                f"monotonicity gap {np.min(gap):.3e} along the population iterates"
            )
        fallback += int(np.count_nonzero(rise))
        newton += live.size - int(np.count_nonzero(rise))
        c[live] = trial
        u, energy, grad = u_new, e_new, g_new
    raise MaxItersExceeded("population Newton solve of the inner minimization stalled")


def reduced_value(ctx: ReductionContext, x, y0=None) -> float:
    x = ctx.spectrum.x_projection(np.asarray(x, dtype=float))
    return ctx.functional.value(x + psi(ctx, x, y0))


# standard deviation of the random coefficients the certificate samples
CERTIFICATE_SCALE = 3.0


def monotonicity_certificate(ctx: ReductionContext, trials=200, rng=None):
    """Sampled check of the strong-convexity inequality on random triples
    (x, y1, y2).  Returns the worst margin lhs - m*|dy|^2 (should be
    >= -1e-10); raises ModulusViolated if any sample breaks it."""
    spec = ctx.spectrum
    rng = np.random.default_rng(0) if rng is None else rng
    worst = np.inf
    for _ in range(trials):
        x = spec.x_projection(rng.normal(scale=CERTIFICATE_SCALE, size=spec.n_modes))
        y1 = spec.y_projection(rng.normal(scale=CERTIFICATE_SCALE, size=spec.n_modes))
        y2 = spec.y_projection(rng.normal(scale=CERTIFICATE_SCALE, size=spec.n_modes))
        dy = y1 - y2
        g1 = _y_block_gradient(ctx, x + y1)
        g2 = _y_block_gradient(ctx, x + y2)
        margin = spec.h1_inner(g1 - g2, dy) - ctx.m * spec.h1_inner(dy, dy)
        worst = min(worst, margin)
        if margin < -_MODULUS_SLACK:
            raise ModulusViolated(f"sampled monotonicity margin {margin:.3e}")
    return worst


def _compact_to_field(spec, xi):
    x = np.zeros(spec.n_modes)
    x[spec.x_indices] = xi
    return x


def _seed_box(ctx: ReductionContext):
    """Half-widths b_j of a box that holds the X coefficients of every
    critical point.

    With f(t) = s t + g(t) and M = sup|g|, a Galerkin critical point has
    (lambda_j - s) u_j = P_j g(u).  The Gram matrix is the identity and the
    quadrature weights sum to |Omega|, so by Cauchy-Schwarz
    |u_j| <= M sqrt(|Omega|) / |s - lambda_j| = b_j.  Raises
    AsymmetricSlopes when the tails differ and M is infinite.
    """
    spec = ctx.spectrum
    f = ctx.functional.nonlinearity
    if not np.isfinite(f.M):
        raise AsymmetricSlopes("unequal tail slopes leave the seed box unbounded")
    gap = np.abs(f.slope_plus_inf - spec.eigenvalues[spec.x_indices])
    return f.M * np.sqrt(spec.domain.measure) / gap


def _orbit_representatives(signs, n, zeros):
    """The lowest seed index in the orbit of every seed of `maximize_reduced`.

    `signs` holds the group's sign vectors on the X block, mode 0 (the
    constant mode) first.  The orbits come from index arithmetic, not from
    distances: a sign -1 on X coordinate j maps index i of the n-point
    grid axis over [-b_j, b_j] to n - 1 - i, and a sign -1 on mode 0 maps
    the constant t to the constant -t when -t is a zero as well.
    """
    shape = (n,) * signs.shape[1]
    idx = np.indices(shape).reshape(len(shape), -1)
    rep = np.min([np.ravel_multi_index(np.where(s[:, None] < 0, n - 1 - idx, idx), shape)
                  for s in signs], axis=0)
    position = {t: i for i, t in enumerate(zeros)}
    const = [min(i if s[0] > 0 else position.get(-t, i) for s in signs)
             for i, t in enumerate(zeros)]
    return np.concatenate([rep, len(rep) + np.array(const, dtype=int)])


def maximize_reduced(ctx: ReductionContext):
    """Global maximizer of the reduced functional.

    The maximizer is a critical point of J, so its X coefficients lie in
    the closed-form box of `_seed_box`, which depends only on the problem.
    Seeds: a regular grid over that box, n points per axis with n the
    largest odd count up to 9 whose grid has at most 9^4 points, but at
    least 3 (9 for k <= 4, 5 at k = 5, 3 beyond), plus the X-projections of
    every constant solution.  An odd n keeps the centre of every axis.

    J is invariant under the symmetry group (`symmetry_signs`: the domain
    mirrors, and u -> -u when f is odd), which acts on X rows by signs,
    and psi maps the image of x to the image of psi(x), the unique
    minimizer.  The grid and the constants are closed under the group, so
    one population solve (`psi_population`) ranks one representative row
    per orbit, probing strong convexity on each of its steps, and every
    image takes its representative's value.  The six best seeds get a BFGS
    ascent on the k reduced variables, except a seed in the orbit of one
    already ascended: it ends at an image of the same maximizer.  Each
    evaluation is one warm-started `psi` call that yields the reduced value
    and its partial derivatives, which are those of J at x + psi(x) because
    the Y block is stationary there.  BFGS stops at a gradient of
    10 x INNER_TOL, the noise floor `psi` leaves, and the winner is
    polished as a critical point of the full functional.  The record's
    provenance gives the box, the numbers of seeds, orbits (rows solved)
    and ascents, and the Newton and fallback steps of the population solve.
    Raises AsymmetricSlopes when the tails differ (`_seed_box`).
    """
    spec = ctx.spectrum
    func = ctx.functional
    k = ctx.k
    zeros = [t for t, _ in func.nonlinearity.knots]
    box = _seed_box(ctx)
    n = _SEEDS_PER_AXIS
    while n > 3 and n ** k > _SEEDS_PER_AXIS ** 4:
        n -= 2

    mesh = np.meshgrid(*[np.linspace(-b, b, n) for b in box], indexing="ij")
    seeds = list(np.stack([m.ravel() for m in mesh], axis=-1))
    for t in zeros:
        seeds.append(spec.constant_field(t)[spec.x_indices])
    signs = spec.symmetry_signs(func.nonlinearity.odd)[:, spec.x_indices]
    rep = _orbit_representatives(signs, n, zeros)
    solved, orbit = np.unique(rep, return_inverse=True)
    rows = np.zeros((len(solved), spec.n_modes))
    rows[:, spec.x_indices] = [seeds[i] for i in solved]
    ranked = psi_population(ctx, rows)
    values = ranked.values[orbit]
    # ties (images) keep their seed order, so an orbit's first seed leads it
    order = np.argsort(-values, kind="stable")

    y_cache = [None]

    def neg_value_and_grad(xi):
        x = _compact_to_field(spec, xi)
        y_cache[0] = psi(ctx, x, y_cache[0])
        u = x + y_cache[0]
        return -func.value(u), -func.l2_gradient(u)[spec.x_indices]

    best_xi, best_val = None, -np.inf
    ascended = set()
    for i in order[:6]:
        if rep[i] in ascended:
            continue
        ascended.add(rep[i])
        out = scipy_minimize(neg_value_and_grad, seeds[i], jac=True, method="BFGS",
                             options={"gtol": 10.0 * INNER_TOL, "maxiter": 400})
        if -out.fun > best_val:
            best_val, best_xi = -out.fun, out.x

    x = _compact_to_field(spec, best_xi)
    u = x + psi(ctx, x, y_cache[0])
    polished = refine_critical(func, u)
    if polished is not None and spec.h1_dist(polished, u) < 0.5:
        u = polished
    rec = make_record(
        func, u, "reduction_max",
        {"stage": "reduction", "functional": func.nonlinearity.label,
         "reduced_value": float(func.value(u)), "k": k, "seed_box": box.tolist(),
         "seeds": len(seeds), "orbits": len(solved), "ascents": len(ascended),
         "newton_steps": ranked.newton_steps, "fallback_steps": ranked.fallback_steps},
    )
    if not rec.degenerate and rec.morse_index != k:
        rec = rec.with_notes(
            f"full Hessian index {rec.morse_index} differs from the block dimension k={k}"
        )
    return rec


@dataclass
class LocalMaxMinReport:
    alpha: float
    ell: int
    eps: float
    directions: list  # dicts: mode index, eigenvalue, block, deltas, pass
    passed: bool

    def to_dict(self):
        return asdict(self)


# step of the centered differences in the scan around a constant
SCAN_EPS = 1e-3


def local_max_min_at_constant(ctx: ReductionContext, alpha, ell) -> LocalMaxMinReport:
    """Scan the reduced functional around a crossing constant.

    Along X directions whose eigenvalue sits below f'(alpha) (the low
    block, ell of them) the constant should be a strict local max of the
    reduced functional; along the remaining X directions (middle block) a
    strict local min.  Each direction also gets a centered second
    difference compared against the coefficient-space Hessian diagonal
    lambda_j - f'(alpha): the full Hessian is diagonal at a constant, so
    its Schur complement onto X is exactly that block.

    Raises ResonantSlope when f'(alpha) is resonant (`resonance_margin`),
    and ValueError when alpha is not a zero of f or ell does not count the
    X eigenvalues below f'(alpha).
    """
    spec = ctx.spectrum
    f = ctx.functional.nonlinearity
    falpha = f(alpha)
    if abs(falpha) > 1e-10:
        raise ValueError(f"f({alpha}) = {falpha:.3g} != 0; not a constant solution")
    slope = f.deriv(alpha)
    resonance_margin(spec, slope)
    eig = [spec.pairs[i].eigenvalue for i in spec.x_indices]
    ell_true = sum(1 for lam in eig if lam < slope)
    if ell != ell_true:
        raise ValueError(
            f"ell={ell} inconsistent with f'({alpha})={slope:.6g}: "
            f"{ell_true} X eigenvalues lie below it"
        )
    if ell >= spec.k:
        raise ValueError(f"ell={ell} must be < k={spec.k}")

    x0 = spec.x_projection(spec.constant_field(alpha))
    J0 = reduced_value(ctx, x0)
    rows = []
    ok = True
    for i in spec.x_indices:
        lamj = spec.pairs[i].eigenvalue
        block = "low" if lamj < slope else "middle"
        e = np.zeros(spec.n_modes)
        e[i] = 1.0
        Jp = reduced_value(ctx, x0 + SCAN_EPS * e)
        Jm = reduced_value(ctx, x0 - SCAN_EPS * e)
        second = (Jp - 2.0 * J0 + Jm) / SCAN_EPS ** 2
        hess = lamj - slope
        if block == "low":
            direction_ok = Jp < J0 and Jm < J0
        else:
            direction_ok = Jp > J0 and Jm > J0
        ok = ok and direction_ok
        rows.append({
            "mode": int(i), "eigenvalue": lamj, "block": block,
            "delta_plus": Jp - J0, "delta_minus": Jm - J0,
            "second_difference": second, "hessian_diagonal": hess,
            "ok": direction_ok,
        })
    return LocalMaxMinReport(float(alpha), int(ell), SCAN_EPS, rows, ok)
