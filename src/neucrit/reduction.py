"""Finite-dimensional reduction: eliminate the high-frequency block by
strongly convex minimization.

With the split grad slope sitting between the low block X and the high
block Y, and the nonlinearity's certified top slope gamma below every Y
eigenvalue, the map y -> J(x + y) is strongly convex on Y with modulus

    m = (lambda_min(Y) - gamma) / (1 + lambda_min(Y))

in the Sobolev metric.  psi(x) is its unique minimizer, the reduced
functional Jt(x) = J(x + psi(x)) lives on the k-dimensional X block, and
its maximizer is the distinguished critical point whose full Hessian index
is expected to be k.  Strong convexity brackets Jt(x) in closed form from
J and its Y-block gradient at x alone, with no inner solve (`_bracket`).
`maximize_reduced` rules out the seeds of a grid that the bracket puts
below six others, ranks the rest by Jt and finds the maximizer by root
solves of the full gradient from the best seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .energy import BLOCK_ELEMENTS
from .errors import MaxItersExceeded, ModulusViolated
from .nonlinearity import coefficient_bound, reduction_modulus
from .records import make_record
from .solvers import refine_critical

__all__ = [
    "ReductionContext",
    "make_reduction_context",
    "psi",
    "PopulationSolve",
    "psi_population",
    "maximize_reduced",
]

# Sobolev norm of the Y-block gradient at which psi's inner solve stops
INNER_TOL = 1e-9
# Newton iterations of the inner solve before it gives up
MAX_INNER = 20000
_MODULUS_SLACK = 1e-10
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
# best-ranked seeds that each start one root solve in `maximize_reduced`
_BEST = 6


@dataclass(frozen=True)
class ReductionContext:
    functional: object
    m: float            # strong convexity modulus of the Y block, H1 metric
    lam: float          # certified Lipschitz bound of the Y-block gradient
    # the Y-block columns of the spectrum's basis, copied once for every
    # `_state` and `_newton_block` of the context
    basis_y: np.ndarray = field(repr=False, compare=False)

    @property
    def spectrum(self):
        return self.functional.spectrum

    @property
    def k(self):
        return self.spectrum.k


def make_reduction_context(functional) -> ReductionContext:
    """Validate applicability and package the certified constants.

    m comes from `reduction_modulus`, the test `check_hypotheses` reports
    too.  It raises ReductionInapplicable when the Y block is empty or
    gamma >= lambda_min(Y), where the Y block stops being uniformly convex
    and the reduction has no uniqueness guarantee.  An unsplit spectrum
    raises ValueError.
    """
    spec = functional.spectrum
    f = functional.nonlinearity
    lam_min_y = spec.lambda_min_y
    m = reduction_modulus(f.gamma, lam_min_y)
    # Lipschitz bound of y -> P_Y grad J(x+y) in the Sobolev metric:
    # <H y, y> = |y|^2 - int (f'(u)+1) y^2, and on Y the L2 norm is
    # controlled by |y|^2 / (1 + lambda_min(Y)).
    lam = 1.0 + max(0.0, -(1.0 + f.min_slope)) / (1.0 + lam_min_y)
    return ReductionContext(functional, m, lam, spec.basis[:, spec.y_indices])


def psi(ctx: ReductionContext, x, y0=None):
    """The unique Y-supported minimizer of y -> J(x + y), for one x.

    The one-row case of `psi_population`, started from the Y block of `y0`
    (y = 0 when it is None).  `maximize_reduced` lifts each of its best
    seeds x to x + psi(x) with it, passing the seed's row of its ranking
    solve as `y0`, so the lift meets INNER_TOL at its first evaluation.
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
    block of the matching row of `y0` (y = 0 when it is None).  Each row
    stops once the dual Sobolev norm of its Y-block gradient,
    sqrt(sum_Y g_j^2 / (1 + lambda_j)), is at most INNER_TOL, so its value
    exceeds the exact Jt(x) by at most INNER_TOL^2 / (2m).  Each
    iteration costs one field transform, one f, one f' and one primitive
    call for the block and one batched solve of the Y-block Hessians.  A
    row whose Newton step does not lower J(x + y) takes the certified step
    2/(m + Lam) instead.  Every pair of consecutive iterates of every row
    probes the strong-convexity inequality; a violation raises
    ModulusViolated.  A block holds at most `energy.BLOCK_ELEMENTS` grid
    values, and so does each batch of its Hessians.
    """
    spec = ctx.spectrum
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    rows = np.zeros_like(xs)
    rows[:, spec.x_indices] = xs[:, spec.x_indices]
    if y0 is not None:
        rows[:, spec.y_indices] = np.atleast_2d(y0)[:, spec.y_indices]
    values = np.empty(len(rows))
    newton = fallback = 0
    block = max(1, BLOCK_ELEMENTS // spec.basis.shape[0])
    for lo in range(0, len(rows), block):
        values[lo:lo + block], n, b = _newton_block(ctx, rows[lo:lo + block])
        newton, fallback = newton + n, fallback + b
    rows[:, spec.x_indices] = 0.0
    return PopulationSolve(rows, values, newton, fallback)


def _state(ctx):
    """The map from coefficient rows to their field values, J and the
    Y-block partial derivatives of J, one field transform and one f and
    one primitive call for all rows."""
    spec = ctx.spectrum
    f = ctx.functional.nonlinearity
    yi = spec.y_indices
    lam = spec.eigenvalues
    basis, w, basis_y = spec.basis, spec.weights, ctx.basis_y

    def state(rows):
        u = rows @ basis.T
        energy = 0.5 * (rows * rows) @ lam - f.primitive(u) @ w
        grad = rows[:, yi] * lam[yi] - (f(u) * w) @ basis_y
        return u, energy, grad

    return state


def _newton_block(ctx, c):
    """Minimize over the Y block of each row of `c` in place.  Returns the
    energies and the Newton and fallback step counts."""
    spec = ctx.spectrum
    f = ctx.functional.nonlinearity
    yi = spec.y_indices
    lam = spec.eigenvalues
    h1_y = 1.0 + lam[yi]
    w = spec.weights
    basis_y = ctx.basis_y
    diag_y = np.diag(lam[yi])
    hess_rows = max(1, BLOCK_ELEMENTS // basis_y.size)
    fixed_step = 2.0 / (ctx.m + ctx.lam)
    state = _state(ctx)

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


def _bracket(ctx, rows):
    """Closed-form (upper, lower) bounds of the reduced value of every row,
    each row with a zero Y block.

    y -> J(x + y) is m-strongly convex in the Sobolev metric, so at y = 0

        J(x) >= Jt(x) >= J(x) - |P_Y grad J(x)|_*^2 / (2m),

    with |g|_*^2 = sum_Y g_j^2 / (1 + lambda_j) the dual norm that
    `_newton_block` tests against INNER_TOL.  No inner solve: one `_state`
    pass per block of at most BLOCK_ELEMENTS grid values.  Both bounds are
    widened by the relative rounding margin of an energy.
    """
    spec = ctx.spectrum
    h1_y = 1.0 + spec.eigenvalues[spec.y_indices]
    state = _state(ctx)
    block = max(1, BLOCK_ELEMENTS // spec.basis.shape[0])
    upper = np.empty(len(rows))
    lower = np.empty(len(rows))
    for lo in range(0, len(rows), block):
        _, energy, grad = state(rows[lo:lo + block])
        upper[lo:lo + block] = energy
        lower[lo:lo + block] = energy - np.sum(grad * grad / h1_y, axis=1) / (2.0 * ctx.m)
    return (upper + _ENERGY_ROUNDING * (1.0 + np.abs(upper)),
            lower - _ENERGY_ROUNDING * (1.0 + np.abs(lower)))


def _contenders(upper, lower, weight):
    """Mask of the orbits that fewer than `_BEST` seeds certainly beat.

    A seed certainly beats an orbit when its lower bound exceeds the
    orbit's upper bound; no orbit beats itself, as its lower bound is at
    most its upper bound.  `weight` holds each orbit's seed count.  One
    sort and one `searchsorted` over the lower bounds, no orbits x orbits
    array.
    """
    by_lower = np.argsort(lower)
    at_most = np.concatenate([[0], np.cumsum(weight[by_lower])])
    beaten = at_most[-1] - at_most[np.searchsorted(lower[by_lower], upper, side="right")]
    return beaten < _BEST


def _seed_box(ctx: ReductionContext):
    """Half-widths of a box that holds the X coefficients of every critical
    point: the X block of `nonlinearity.coefficient_bound`, which raises
    ResonantSlope or AsymmetricSlopes where the bound does not hold."""
    spec = ctx.spectrum
    return coefficient_bound(ctx.functional.nonlinearity, spec)[spec.x_indices]


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
    the closed-form box of `_seed_box`, the X block of the a-priori bound
    `nonlinearity.coefficient_bound`, which depends only on the problem.
    Seeds: a regular grid over that box, n points per axis with n the
    largest odd count up to 9 whose grid has at most 9^4 points, but at
    least 3 (9 for k <= 4, 5 at k = 5, 3 beyond), plus the X-projections of
    every constant solution.  An odd n keeps the centre of every axis.

    J is invariant under the symmetry group (`symmetry_signs`: the domain
    mirrors, and u -> -u when f is odd), which acts on X rows by signs,
    and psi maps the image of x to the image of psi(x), the unique
    minimizer.  The grid and the constants are closed under the group, so
    only one representative row per orbit is bracketed and ranked, and
    every image takes its representative's value.

    One batched pass evaluates the closed-form bracket of `_bracket` at
    every representative.  An orbit whose upper bound lies below the lower
    bounds of at least six seeds holds none of the six best seeds, so it
    is dropped; the dropped orbit with the largest upper bound is beaten by
    six seeds that are all kept, so at least six seeds stay.  One
    population solve (`psi_population`) ranks the orbits left, probing
    strong convexity on each of its steps, and stable ties keep seed order,
    so the six best seeds are those of a ranking of every orbit.  Each of
    them, except a seed in the orbit of one already taken (it would end at
    an image of the same point), starts one `refine_critical` root solve
    of the full functional from x + psi(x), with psi warm-started from the
    seed's row of the ranking solve.  The maximizer is a critical point
    of J with full Hessian index k, so the highest-energy point of index k
    among the solves is returned; when none has index k, the highest-energy
    point is, with a note.  No ascent on the reduced functional is needed:
    the ranking brings the best seeds next to the maximizer, and the root
    solve converges to saddles as well as to maxima.  The record's
    provenance gives the box, the numbers of seeds, orbits, ranked orbits
    (rows Newton solved) and refines (root solves), and the Newton and
    fallback steps of the ranking solve.  Raises MaxItersExceeded when no
    root solve converges, and AsymmetricSlopes when the tails differ
    (`nonlinearity.coefficient_bound`).
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
    live = np.flatnonzero(_contenders(*_bracket(ctx, rows), np.bincount(orbit)))
    ranked = psi_population(ctx, rows[live])
    reduced = np.full(len(solved), -np.inf)
    lift = np.zeros_like(rows)
    reduced[live], lift[live] = ranked.values, ranked.y
    # ties (images) keep their seed order, so an orbit's first seed, its
    # representative, leads it
    order = np.argsort(-reduced[orbit], kind="stable")

    points = []
    refined = set()
    for i in order[:_BEST]:
        if rep[i] in refined:
            continue
        refined.add(rep[i])
        x = rows[orbit[i]]
        u = refine_critical(func, x + psi(ctx, x, y0=lift[orbit[i]]))
        if u is not None:
            points.append(u)
    if not points:
        raise MaxItersExceeded("no root solve from the best reduction seeds converged")

    # records in order of energy, ties in seed order, until one has index k;
    # when none has, the highest-energy one is kept with a note
    energies = np.array([func.value(u) for u in points])
    kept = None
    for j in np.argsort(-energies, kind="stable"):
        rec = make_record(
            func, points[j], "reduction_max",
            {"stage": "reduction", "functional": func.nonlinearity.label,
             "reduced_value": float(energies[j]), "k": k, "seed_box": box.tolist(),
             "seeds": len(seeds), "orbits": len(solved), "ranked": len(live),
             "refines": len(refined),
             "newton_steps": ranked.newton_steps, "fallback_steps": ranked.fallback_steps},
        )
        if rec.morse_index == k:
            return rec
        if kept is None:
            kept = rec
    if not kept.degenerate:
        kept = kept.with_notes(
            f"full Hessian index {kept.morse_index} differs from the block dimension k={k}"
        )
    return kept
