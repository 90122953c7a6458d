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
J and its Y-block gradient at x alone, with no inner solve.  The upper
end, J(x), needs no grid pass for k <= 2, where a seed is a constant plus
a multiple of one mode (`EnergyFunctional.bump_values`); the lower end
needs the field on the grid (`_bracket`).  `maximize_reduced` brackets
only the seed orbits whose upper bounds can still reach the six best
lower bounds, ranks those by Jt and finds the maximizer by root solves
of the full gradient from the best-ranked orbits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .energy import BLOCK_ELEMENTS
from .errors import MaxItersExceeded, ModulusViolated
from .nonlinearity import coefficient_bound, reduction_modulus
from .records import image_record, make_record
from .solvers import _near, refine_critical

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
# unit roundoff of float64, for the rounding bound of a closed-form energy
_UNIT_ROUNDOFF = 2.0 ** -53
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
    return _population(ctx, rows)


def _population(ctx, rows, start=None) -> PopulationSolve:
    """`psi_population`'s solve of full coefficient rows, in place.  `start`
    is the `_state` of the rows when it is already known (u, J and the
    Y-block gradient, one entry per row); the first Newton iterate then
    evaluates nothing."""
    spec = ctx.spectrum
    values = np.empty(len(rows))
    newton = fallback = 0
    block = max(1, BLOCK_ELEMENTS // spec.basis.shape[0])
    for lo in range(0, len(rows), block):
        part = None if start is None else [s[lo:lo + block] for s in start]
        values[lo:lo + block], n, b = _newton_block(ctx, rows[lo:lo + block], part)
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


def _newton_block(ctx, c, start=None):
    """Minimize over the Y block of each row of `c` in place, from the
    `_state` of `c` when `start` holds it.  Returns the energies and the
    Newton and fallback step counts."""
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
    u, energy, grad = state(c) if start is None else start
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


def _upper_bounds(ctx, rows):
    """Upper bounds J(x) >= Jt(x) of the reduced value of every row, each
    row with a zero Y block.

    For k <= 2 the X block is the constant mode 0 and at most one more mode
    j, so a row is c_0 e_0 + c_j e_j: a constant plus a multiple of one
    field, whose J `EnergyFunctional.bump_values` gives in closed form with
    no grid pass, along the bump -e_j for the rows with c_j <= 0 and along
    e_j for the others (one call per sign that occurs), widened by
    `_bump_rounding`.  For k >= 3 one grid pass of F (`values`) gives J,
    widened by the relative rounding margin of an energy.
    """
    spec, func = ctx.spectrum, ctx.functional
    if ctx.k > 2:
        energy = func.values(rows)
        return energy + _ENERGY_ROUNDING * (1.0 + np.abs(energy))
    j = spec.x_indices[-1]
    c0 = rows[:, 0]
    cj = rows[:, j] if j else np.zeros(len(rows))
    upper = np.empty(len(rows))
    for sign, part in ((-1.0, cj <= 0.0), (1.0, cj > 0.0)):
        if np.any(part):
            bump = np.zeros(spec.n_modes)
            bump[j] = sign
            amps = sign * cj[part]
            upper[part] = (func.bump_values(c0[part], amps, bump)
                           + _bump_rounding(ctx, c0[part], amps, j))
    return upper


def _bump_rounding(ctx, c0, amps, j):
    """A bound on how far `bump_values` of the fields c0[s] e_0 +
    amps[s] (+-e_j) lies from their J on the grid, from its Taylor sums and
    moments taken in absolute value.

    On piece p of F (left end x_p, coefficients c_k, degree D), expand
    sum_k |c_k| (|t_s - x_p| + h)^k about h = 0, t_s = c0[s] phi_0: its
    coefficients a_m,p bound |F_p^(m)(t_s)| / m!, and at h = d |beta| (d =
    amps[s], beta the grid values of e_j) they bound the Horner sum of the
    grid's PPoly at t_s +- d beta as well.  With the absolute moments M_m =
    sum_i w_i |beta_i|^m of the whole grid, every term either computation
    sums, and every prefix sum `bump_values` differences into a piece sum,
    is bounded in total by

        A_s = sum_m d^m M_m sum_p a_m,p

    over the pieces p the field's values meet.  Counting every rounding on
    either side (two prefix sums and one quadrature sum of at most N terms,
    a sum over the P pieces, Taylor shifts and Horner steps, and the
    evaluation points that move by the unit roundoff u times their size,
    which F' turns into at most D u A_s), the two values differ to first
    order in u by at most gamma_n (A_s + Q_s), with n = 3N + P + 10D + 2,
    gamma_n = n u / (1 - n u) (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, section 3.1) and Q_s the quadratic part of J.
    """
    spec, f = ctx.spectrum, ctx.functional.nonlinearity
    fpp = f.fppoly
    x = fpp.x
    deg = len(fpp.c) - 1
    powers = np.arange(deg + 1)[:, None]
    beta = np.abs(spec.basis[:, j])
    moments = beta ** powers @ spec.weights
    t = c0 * spec.basis[0, 0]
    reach = amps * np.max(beta)
    slack = 4.0 * _UNIT_ROUNDOFF * (np.abs(t) + reach)
    met = (x[:-1] <= (t + reach + slack)[:, None]) & (x[1:] >= (t - reach - slack)[:, None])
    z = np.abs(t[:, None] - x[:-1])
    coef = np.repeat(np.abs(fpp.c)[:, None, :], len(t), axis=1)
    coef[-1] += abs(f._f0)
    for i in range(deg):
        for m in range(1, deg + 1 - i):
            coef[m] += z * coef[m - 1]
    taylor = np.sum(np.where(met, coef[::-1], 0.0), axis=2)  # (m, field)
    absolute = moments @ (taylor * amps ** powers)
    lam = spec.eigenvalues
    quadratic = 0.5 * (lam[0] * c0 * c0 + lam[j] * amps * amps)
    n = 3 * spec.basis.shape[0] + len(x) - 1 + 10 * deg + 2
    return n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF) * (absolute + quadratic)


def _bracket(ctx, rows):
    """Lower bounds of the reduced value of every row, each row with a zero
    Y block, and the rows' `_state` (u, J, Y-block gradient).

    y -> J(x + y) is m-strongly convex in the Sobolev metric, so at y = 0

        J(x) >= Jt(x) >= J(x) - |P_Y grad J(x)|_*^2 / (2m),

    with |g|_*^2 = sum_Y g_j^2 / (1 + lambda_j) the dual norm that
    `_newton_block` tests against INNER_TOL; `_upper_bounds` gives the left
    side.  No inner solve: one `_state` pass per block of at most
    BLOCK_ELEMENTS grid values, and the lower bound is widened by the
    relative rounding margin of an energy.  The state is the first Newton
    iterate of a ranking of the rows (`_population`).
    """
    spec = ctx.spectrum
    h1_y = 1.0 + spec.eigenvalues[spec.y_indices]
    state = _state(ctx)
    block = max(1, BLOCK_ELEMENTS // spec.basis.shape[0])
    parts = [state(rows[lo:lo + block]) for lo in range(0, len(rows), block)]
    u, energy, grad = (np.concatenate(p) for p in zip(*parts))
    lower = energy - np.sum(grad * grad / h1_y, axis=1) / (2.0 * ctx.m)
    return lower - _ENERGY_ROUNDING * (1.0 + np.abs(lower)), (u, energy, grad)


def _leading(order, weight):
    """The first orbits of `order` that together hold `_BEST` seeds (all of
    them when they hold fewer); `weight` holds each orbit's seed count."""
    return order[:int(np.searchsorted(np.cumsum(weight[order]), _BEST)) + 1]


def _live_orbits(ctx, rows, upper, weight):
    """Bracket (`_bracket`) every orbit that can hold one of the `_BEST`
    best seeds; return those orbits, in the order bracketed, and their
    `_state` (u, J, Y-block gradient).

    The orbits with the highest upper bounds that together hold `_BEST`
    seeds (`_leading`) are bracketed first; the `_BEST`-th best lower
    bound L of their seeds is at most that of all seeds.  An orbit whose
    upper bound lies below L is beaten by `_BEST` seeds, so it is dropped
    unbracketed; every other orbit is bracketed next.  So every orbit
    whose upper bound reaches the `_BEST`-th best lower bound of all seeds
    is returned.
    """
    by_upper = np.argsort(-upper, kind="stable")
    first = _leading(by_upper, weight)
    lower, state = _bracket(ctx, rows[first])
    floor = np.sort(np.repeat(lower, weight[first]))[-_BEST:][0]
    rest = by_upper[len(first):]
    second = rest[upper[rest] >= floor]
    if second.size:
        state = [np.concatenate(p) for p in zip(state, _bracket(ctx, rows[second])[1])]
    return np.concatenate([first, second]), state


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
    only one representative row per orbit is bounded and ranked, and
    every image takes its representative's value.

    Every representative first gets an upper bound J(x) >= Jt(x) at
    y = 0 (`_upper_bounds`: in closed form for k <= 2, one grid pass of F
    beyond).  A lower bound needs J and its Y-block gradient on the grid
    (`_bracket`), so `_live_orbits` brackets only the orbits with the
    highest upper bounds that hold six seeds, then every orbit whose upper
    bound reaches their sixth-best lower bound; every other orbit lies
    below six seeds, so none of its seeds is among the six best.  One
    population solve ranks the bracketed orbits, starting from the
    bracket's state and probing strong convexity on each of its steps.
    The best-ranked orbits that hold six seeds (`_leading`, ties in orbit
    order) each start one `refine_critical` root solve of the full
    functional from x + psi(x), with psi warm-started from the orbit's row
    of the ranking solve; another seed of the orbit would end at an image
    of the same point.  Each root solve holds the records of the points the
    solves before it found and of their group images (`image_record`, each
    with its source's Newton radius), so a solve that enters one of their
    basins stops there, and only a new point gets a record.  The maximizer
    is a critical point of J with full Hessian index k, so the
    highest-energy point of index k among the solves is returned, ties in
    start order; when none has index k, the highest-energy point is, with a
    note.  No ascent on the reduced functional is needed: the ranking
    brings the best seeds next to the maximizer, and the root solve
    converges to saddles as well as to maxima.  The record's
    provenance gives the box, the numbers of seeds, orbits, ranked orbits
    (bracketed on the grid and Newton solved) and refines (root solves),
    and the Newton and fallback steps of the ranking solve.  Raises
    MaxItersExceeded when no root solve converges, and AsymmetricSlopes
    when the tails differ (`nonlinearity.coefficient_bound`).
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
    solved, orbit = np.unique(_orbit_representatives(signs, n, zeros), return_inverse=True)
    weight = np.bincount(orbit)
    rows = np.zeros((len(solved), spec.n_modes))
    rows[:, spec.x_indices] = [seeds[i] for i in solved]

    live, state = _live_orbits(ctx, rows, _upper_bounds(ctx, rows), weight)
    ranked = _population(ctx, rows[live], state)
    reduced = np.full(len(solved), -np.inf)
    lift = np.zeros_like(rows)
    reduced[live], lift[live] = ranked.values, ranked.y
    # ties keep orbit order, the order of the orbits' first seeds
    starts = _leading(np.argsort(-reduced, kind="stable"), weight)

    prov = {"stage": "reduction", "functional": func.nonlinearity.label, "k": k,
            "seed_box": box.tolist(), "seeds": len(seeds), "orbits": len(solved),
            "ranked": len(live), "refines": len(starts),
            "newton_steps": ranked.newton_steps, "fallback_steps": ranked.fallback_steps}
    group = spec.symmetry_signs(func.nonlinearity.odd)
    found, held = [], []
    for i in starts:
        u = refine_critical(func, rows[i] + psi(ctx, rows[i], y0=lift[i]), held)
        if u is None or _near(spec, u, held):
            continue
        rec = make_record(func, u, "reduction_max", prov)
        rec.provenance["reduced_value"] = rec.energy
        found.append(rec)
        held += [image_record(rec, signs) for signs in group]
    if not found:
        raise MaxItersExceeded("no root solve from the best reduction seeds converged")

    # the highest-energy point of index k, ties in start order; when none
    # has index k, the highest-energy one, with a note
    by_energy = sorted(found, key=lambda rec: -rec.energy)
    kept = next((rec for rec in by_energy if rec.morse_index == k), None)
    if kept is not None:
        return kept
    kept = by_energy[0]
    if not kept.degenerate:
        kept = kept.with_notes(
            f"full Hessian index {kept.morse_index} differs from the block dimension k={k}"
        )
    return kept
