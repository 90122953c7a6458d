"""Search stages: constants, mountain pass, homotopy bound, multistart.

All solvers work on coefficient vectors and report Sobolev residuals.
Every search polishes a start with the same Newton-type root solve on the
gradient system, `refine_critical` (MINPACK's dogleg trust region, plus a
plain Newton fallback), which converges to saddles as happily as to
minima.  No search descends to a minimum: a descent reaches only stable
critical points, and on a convex domain every stable Neumann solution is
constant (Casten and Holland, JDE 27, 1978; Matano, Publ. RIMS 15, 1979),
which `find_constants` gives in closed form.  The root solve stops at the
first point it evaluates whose Sobolev residual meets GRAD_TOL: MINPACK's
own step test (xtol = 1e-13) lies below the rounding noise of the
iterates, so without that stop hybr keeps iterating on a converged point
until it reports poor progress.

Every point a search finds has a record, and a held point is its record:
the record carries the radius of the point's certified Newton basin
(`CriticalPointRecord.newton_radius`), the Sobolev ball from which plain
Newton provably converges to it.  A root solve passed held records stops
at the first point that enters one of their basins and returns that
record's coefficients, with no further evaluation.  Multistart builds a
point's full record when it finds the point and holds it, with the
records its caller passed in, for every later start; a start that ends at
a held point adds nothing.  A seed may be a record, such as a group image
(`records.image_record`): when its root solve stops at the seed's own
coefficients, which then meet GRAD_TOL, the seed's record is kept and none
is built.  Every test of a point against a set of points takes the
distances to the whole set from one `SpectrumSlice.h1_dists` call.

The mountain pass is a discrete path method: keep a polyline between two
low-energy endpoints, repeatedly pick the maximal-energy node, slide it
along the negative gradient projected off the path tangent, and
re-equalize node spacing.  The polyline is one array with a node per row,
so the energies of its nodes after a redistribution come from one batched
evaluation (`EnergyFunctional.values`) and the spacing from one array of
segment lengths.  A wide transverse bump on the initial straight path
keeps it out of the constants line, which is invariant under the flow and
full of index-2 traps, and starts its highest node near the saddle, in the
spirit of minimax methods that start from the unstable direction (Li and
Zhou, SIAM J. Sci. Comput. 23, 2001).  Both endpoints are constant fields, so
every node of that first path is a constant plus a multiple of the bump,
and its energies are a Taylor sum over the pieces of F against moments of
the bump's grid values (`EnergyFunctional.bump_values`), with no grid
pass.  Every REDISTRIBUTE_EVERY sweeps the highest node is refined; a
refined point that is a certified mountain-pass saddle ends the pass at
once.  Any other is dropped, and only then is the path redistributed and
its interior nodes re-evaluated in one batch, so a pass that certifies at
its first attempt evaluates no batch.  A dropped point's basin is passed
to the later refines, and one that ends there is dropped without
rebuilding its record.

The homotopy bound takes the search radius R of the degree ledger.  Every
solution of every member h_lam of the homotopy to the linearization at
infinity obeys the closed-form bound ||u||_H1 <= (1 - lam) B(0), read off
the base nonlinearity's `coefficient_bound`, so a ball of radius R > B(0)
holds them all strictly inside, and the degree there is proven rather
than sampled.  R is also at least SAFETY_FACTOR times the largest norm of
a solution of f the stage holds: the critical points of J its caller
already has, and the points one seeded multistart of f finds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import root

from .errors import MaxItersExceeded, PathCollapse
from .nonlinearity import coefficient_bound, find_zeros
from .records import (
    DEDUP_RADIUS,
    GRAD_TOL,
    CriticalPointRecord,
    SolverConfig,
    image_record,
    make_record,
    principal_simple_signdef,
)

__all__ = [
    "SolverConfig",
    "CriticalPointRecord",
    "find_constants",
    "refine_critical",
    "mountain_pass",
    "homotopy_bound",
    "HomotopyBoundResult",
    "multistart",
    "dedup_records",
]

# sweep budget of a mountain pass
MAX_ITERS = 4000
# mountain-pass polyline nodes, endpoints included
PATH_NODES = 41
# sweeps between two attempts to certify a saddle from the highest node;
# the polyline is redistributed after every attempt that fails
REDISTRIBUTE_EVERY = 5
# the search radius R is at least this factor times the largest norm of a
# solution the homotopy bound holds
SAFETY_FACTOR = 2.0


def find_constants(functional) -> list:
    """One record per prescribed zero; constants solve the problem exactly."""
    out = []
    for t, s in functional.nonlinearity.knots:
        coeffs = functional.spectrum.constant_field(t)
        rec = make_record(
            functional, coeffs, "constant",
            {"stage": "constants", "zero": t, "zero_slope": s,
             "functional": functional.nonlinearity.label},
        )
        out.append(rec)
    return out


class _Converged(Exception):
    """Raised inside the root solve at the first point that meets GRAD_TOL
    or lies in a held Newton basin; carries the coefficients to return."""

    def __init__(self, u):
        super().__init__()
        self.u = u


class _LastPoint:
    """`fn` with a one-entry cache keyed on the bytes of its argument.

    `release` drops `fn` and the cached value.  scipy's `root` keeps the
    function it is given in a reference cycle (its counting wrapper refers
    to itself), so without the release every root solve would keep its
    functional, spectrum included, alive until a full garbage collection.
    """

    def __init__(self, fn):
        self.fn, self.key, self.value = fn, None, None

    def __call__(self, c):
        key = np.asarray(c, dtype=float).tobytes()
        if key != self.key:
            self.key, self.value = key, self.fn(c)
        return self.value

    def release(self):
        self.fn = self.value = None


def refine_critical(functional, start, held=()):
    """Newton-type polish of the gradient system from `start`.

    Returns refined coefficients with residual <= GRAD_TOL, or None if the
    solve stalls.  MINPACK hybr (Newton direction inside a dogleg trust
    region, so indefinite Hessians are fine) does the heavy lifting; a few
    plain Newton steps mop up if it returns slightly above tolerance.

    hybr stops at the first point it evaluates whose Sobolev residual
    sqrt(sum g_j^2 / (1 + lam_j)) of the L2 gradient g meets GRAD_TOL, and
    that point is returned as it is, with no second residual check.  Its
    path up to there is the one it would take anyway, so every start ends
    in the same basin; the stop only drops the evaluations hybr would spend
    on a converged point chasing xtol, which rounding keeps out of reach.

    `held` holds the records of zeros found earlier, each with the radius
    of its certified Newton basin (`CriticalPointRecord.newton_radius`).
    Every point is tested against those basins before it is evaluated, and
    the first point that lies in one ends the solve, which returns that
    record's coefficients: plain Newton from there provably converges to
    its zero.

    scipy evaluates the gradient and the Jacobian at the start once to
    check their shapes, and MINPACK then evaluates both there again; each
    keeps its last point and result (`_LastPoint`), so every point is
    evaluated once and the results are bit-identical.

    A start on the line of constant fields is solved on that line, for the
    constant coefficient alone.  The exact gradient there is constant and
    the exact Hessian diagonal, diag(lam_j - f'(c)), so the solve cannot
    leave the line; but where f'(c) equals an eigenvalue lam_j, j > 0, the
    Hessian is singular and a full solve would blow the rounding in mode j
    up into a step off the line (from the constant field 1/3 of the
    reference, where f'(1/3) = lam_1 = 1, it ends at a nonconstant saddle).
    """
    spec = functional.spectrum
    one_plus_lam = 1.0 + spec.eigenvalues
    weight = 1.0 / one_plus_lam
    centers = np.array([r.coeffs for r in held], dtype=float).reshape(-1, spec.n_modes)
    radii = np.array([r.newton_radius for r in held], dtype=float)

    def basin_zero(c):
        """The zero whose basin holds c, or None."""
        if not held:
            return None
        inside = np.flatnonzero(np.sqrt((centers - c) ** 2 @ one_plus_lam) < radii)
        return held[inside[0]].coeffs if inside.size else None

    start = np.asarray(start, dtype=float)
    # the unknowns: every coefficient, or the constant one alone for a start
    # on the line of constant fields; full(x) is the field they stand for
    keep = slice(None) if np.any(start[1:]) else slice(0, 1)

    def full(x):
        return np.concatenate([x, start[len(x):]])

    def gradient(x):
        c = full(x)
        zero = basin_zero(c)
        if zero is not None:
            raise _Converged(zero)
        g = functional.l2_gradient(c)
        if np.sqrt((weight * g * g).sum()) <= GRAD_TOL:
            raise _Converged(np.array(c, dtype=float))
        return g[keep]

    fun = _LastPoint(gradient)
    x0 = start[keep]
    try:
        x = root(
            fun,
            x0,
            jac=_LastPoint(lambda x: functional.hessian_pencil(full(x))[0][keep, keep]),
            method="hybr",
            options={"xtol": 1e-13, "maxfev": 200 * (len(x0) + 1)},
        ).x
    except _Converged as stop:
        return stop.u
    finally:
        fun.release()
    if not np.all(np.isfinite(x)):
        return None
    # up to 8 plain Newton steps, each point tested as hybr's are
    for steps in range(9):
        u = full(x)
        zero = basin_zero(u)
        if zero is not None:
            return zero
        if functional.residual(u) <= GRAD_TOL:
            return u
        if steps == 8:
            return None
        A, _ = functional.hessian_pencil(u)
        G = functional.l2_gradient(u)
        try:
            delta = np.linalg.solve(A[keep, keep], -G[keep])
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(delta)):
            return None
        x = x + delta


def _near(spec, u, held) -> bool:
    """Is u within DEDUP_RADIUS of one of the records in `held`?"""
    return bool(np.any(spec.h1_dists(u, [r.coeffs for r in held]) <= DEDUP_RADIUS))


def _images(spec, coeffs, odd: bool) -> np.ndarray:
    """The group images of a point other than itself, in the order of
    `SpectrumSlice.symmetry_signs`: its mirrors across every nonempty set
    of axes and, with an odd f, its negation and the negated mirrors.  For
    a stack of points, one such block of rows per point."""
    return spec.symmetry_signs(odd)[1:] * np.asarray(coeffs, dtype=float)[..., None, :]


def _distinct_points(spec, odd: bool, recs, held=()) -> list:
    """The records of the distinct points of the group orbits of the
    records `recs` that lie apart from the records `held`: each is
    `records.image_record(rec, signs)`, the point signs * rec.coeffs for a
    record rec of `recs` and a row signs of `SpectrumSlice.symmetry_signs`,
    and carries its source's Newton radius.

    The candidates are the records themselves (the identity row), then the
    other images of the nonconstant ones, by record and group element; an
    image of a constant field is a constant field, which `find_constants`
    gives at its own zero.  Their distances to `held` come from one array
    operation, and those of the candidates apart from `held` to each other
    from another; a greedy pass in candidate order keeps each one farther
    than DEDUP_RADIUS from `held` and from the points kept before it.  An
    image of a critical point of J is one, with its energy, norm and
    Hessian spectrum, so no candidate is evaluated."""
    n = spec.n_modes
    group = spec.symmetry_signs(odd)
    sources = [r for r in recs if not r.is_constant()]
    cands = [(r, group[0]) for r in recs]
    cands += [(r, signs) for r in sources for signs in group[1:]]
    coeffs = np.concatenate([np.reshape([r.coeffs for r in recs], (-1, n)),
                             _images(spec, np.reshape([r.coeffs for r in sources], (-1, n)),
                                     odd).reshape(-1, n)])
    weight = 1.0 + spec.eigenvalues

    def apart(a, b):
        diff = a[:, None, :] - b[None]
        return np.sqrt((diff * diff) @ weight) > DEDUP_RADIUS

    live = np.flatnonzero(apart(coeffs, np.reshape([h.coeffs for h in held], (-1, n))).all(1))
    rows = apart(coeffs[live], coeffs[live]).tolist()
    kept = []
    for a in range(len(live)):
        if all(rows[a][b] for b in kept):
            kept.append(a)
    return [image_record(*cands[live[a]]) for a in kept]


def _redistribute(spec, path):
    """Reparametrize the polyline, an array with one node per row, to equal
    Sobolev arclength.  The segment lengths come from one `h1_dists` call
    and the new interior nodes from one interpolation over all of them."""
    n = len(path)
    seg = spec.h1_dists(path[1:], path[:-1])
    total = seg.sum()
    if total <= 0:
        return path
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    targets = np.linspace(0.0, total, n)[1:-1]
    j = np.minimum(np.searchsorted(cum, targets, side="right") - 1, n - 2)
    w = np.divide(targets - cum[j], seg[j], out=np.zeros_like(targets), where=seg[j] > 0)
    out = path.copy()
    out[1:-1] = (1 - w)[:, None] * path[j] + w[:, None] * path[j + 1]
    return out


def mountain_pass(functional, end_a, end_b) -> CriticalPointRecord:
    """Choi-McKenna style discrete mountain pass between two constant
    anchors; an endpoint with a coefficient off mode 0 raises ValueError.

    The path holds PATH_NODES nodes: the straight segment plus a transverse
    bump of height 0.3 (dist(a, b) + 1) in the first nonconstant modes.  A
    bump that wide puts the highest node near the saddle, so on the
    reference instance every pass certifies at its first attempt, after
    REDISTRIBUTE_EVERY sweeps.  A sweep moves one node and evaluates J once
    per backtracking trial; a moved node keeps the energy of its accepted
    step, so every node energy stays current.  Every REDISTRIBUTE_EVERY
    sweeps the highest node is refined, and the pass returns the refined
    point at once when it is certified: farther than DEDUP_RADIUS from both
    endpoints, above the endpoint level, and "mp_type" (Morse index 1,
    principal Hessian eigenpair simple with a sign-definite eigenfield).  A
    point that fails any check is dropped; the path is then redistributed
    and the sweeps go on.  The record's `iterations` counts the sweeps
    done.  Every node of the first path is a constant plus a multiple of
    the bump, so its energies are closed-form
    (`EnergyFunctional.bump_values`), and those of the interior nodes come
    from one batch (`EnergyFunctional.values`) after each redistribution,
    so a pass certified at its first attempt evaluates no batch.  The
    records of the points dropped by the shape check are held by the later
    attempts, and an attempt that ends in the Newton basin of one of those
    points is dropped without building its record again.

    Two triggers end the pass without that certificate: a node residual
    <= 1e-4, or 50 sweeps without residual progress.  Either refines the
    highest node and returns its refined point whatever its Morse data
    (classification "other", with a note, when it is not "mp_type"), or
    raises PathCollapse when that point falls back into an endpoint or
    does not rise above the endpoint energies.  PathCollapse is also raised
    when the maximal node is an endpoint (no barrier, for instance when J
    is convex between the anchors).
    """
    spec = functional.spectrum
    a = np.asarray(end_a, dtype=float)
    b = np.asarray(end_b, dtype=float)
    if np.any(a[1:]) or np.any(b[1:]):
        raise ValueError("mountain_pass needs constant endpoints")
    n = PATH_NODES
    Ja, Jb = functional.value(a), functional.value(b)
    end_level = max(Ja, Jb)

    # straight path plus a wide transverse bump; the bump leaves the
    # constants line, which is flow-invariant and hides the saddle from the
    # path, and lifts the highest node close to the saddle
    s = np.linspace(0.0, 1.0, n)
    bump = np.zeros(spec.n_modes)
    for j in range(1, min(4, spec.n_modes)):
        bump[j] = 0.5 ** (j - 1)
    bump /= spec.h1_norm(bump)
    delta = 0.3 * (spec.h1_dist(a, b) + 1.0)
    amps = delta * np.sin(np.pi * s)
    path = (1 - s)[:, None] * a + s[:, None] * b + amps[:, None] * bump

    steps = np.full(n, 0.2)
    best = None
    # the records of the refined points that failed the mountain-pass shape
    # check; an attempt that ends at one is dropped
    dropped = []
    # node energies: those of the first path in closed form, each node a
    # constant plus a multiple of the bump; a moved node keeps the energy
    # its accepted step computed, and the interior nodes are re-evaluated
    # in one batch after a redistribution; the endpoints never move and
    # keep theirs
    energies = functional.bump_values(path[:, 0], amps, bump)
    for sweep in range(MAX_ITERS):
        i = int(np.argmax(energies))
        if i in (0, n - 1):
            raise PathCollapse("the maximal node is an endpoint; no interior barrier")
        g = functional.gradient(path[i])
        res = spec.h1_norm(g)
        if res <= 1e-4 or (best is not None and sweep - best[2] > 50):
            cand = refine_critical(functional, path[i])
            if cand is not None:
                fault = _candidate_fault(functional, cand, a, b, end_level)
                if fault is not None:
                    raise PathCollapse(fault)
                return _finish_mp(functional, cand, sweep, end_a=a, end_b=b)
            best = None  # refinement failed; keep sweeping
        if best is None or res < best[1]:
            best = (i, res, sweep)
        tau = path[i + 1] - path[i - 1]
        tn = spec.h1_norm(tau)
        if tn > 0:
            tau = tau / tn
            d = g - spec.h1_inner(g, tau) * tau
        else:
            d = g
        dn2 = spec.h1_inner(d, d)
        if dn2 <= 0:
            d = g
            dn2 = spec.h1_inner(d, d)
        # backtracking on the node energy
        step = steps[i]
        Ji = energies[i]
        moved = False
        for _ in range(40):
            cand = path[i] - step * d
            Jc = functional.value(cand)
            if Jc < Ji - 1e-6 * step * dn2:
                moved = True
                break
            step *= 0.5
        if moved:
            path[i] = cand
            energies[i] = Jc
            steps[i] = min(step * 1.5, 5.0)
        else:
            steps[i] = max(step, 1e-8)
        if sweep % REDISTRIBUTE_EVERY == REDISTRIBUTE_EVERY - 1:
            # a certified saddle from the highest node ends the pass; every
            # node energy is current here, so the path is redistributed and
            # re-evaluated only when the pass goes on
            i = int(np.argmax(energies))
            if 0 < i < n - 1:
                cand = refine_critical(functional, path[i], dropped)
                if (cand is not None and not _near(spec, cand, dropped)
                        and _candidate_fault(functional, cand, a, b, end_level) is None):
                    rec = _finish_mp(functional, cand, sweep + 1, end_a=a, end_b=b)
                    if rec.classification == "mp_type":
                        return rec
                    dropped.append(rec)
            path = _redistribute(spec, path)
            energies[1:-1] = functional.values(path[1:-1])
    raise MaxItersExceeded(f"mountain pass did not settle in {MAX_ITERS} sweeps")


def _candidate_fault(functional, cand, a, b, end_level):
    """Why a refined point cannot be the saddle between endpoints a and b
    at level end_level, or None when it can."""
    spec = functional.spectrum
    if min(spec.h1_dist(cand, a), spec.h1_dist(cand, b)) <= DEDUP_RADIUS:
        return "refined candidate fell into an endpoint"
    Jc = functional.value(cand)
    if Jc <= end_level + 1e-12:
        return f"candidate level {Jc:.6g} does not exceed the endpoints {end_level:.6g}"
    return None


def _finish_mp(functional, coeffs, sweeps, end_a, end_b) -> CriticalPointRecord:
    """The record of a refined point, classified "mp_type" when it is a
    mountain-pass saddle (Morse index 1, principal Hessian eigenpair simple
    with a sign-definite eigenfield) and "other", with a note, when not."""
    spec = functional.spectrum
    rec = make_record(
        functional, coeffs, "other",
        {"stage": "mountain_pass", "functional": functional.nonlinearity.label,
         "endpoint_ranges": [list(spec.field_range(end_a)), list(spec.field_range(end_b))]},
        iterations=sweeps,
    )
    if rec.morse_index == 1 and principal_simple_signdef(functional, rec):
        rec.classification = "mp_type"
    else:
        rec = rec.with_notes(
            f"saddle of index {rec.morse_index} failed the mountain-pass shape check"
        )
    return rec


def _random_ball_starts(spec, rng, count, radius):
    """`count` random starts in the Sobolev ball of the given radius.

    Directions are standard normal coefficient vectors scaled to unit
    Sobolev norm; radii are radius * sqrt(U) with U uniform on [0, 1).
    The sqrt is the uniform law for a disk, not for the n-dimensional
    ball, where uniform radii would be radius * U**(1/n); so with more
    than two modes the starts cluster toward the centre.  The law
    stays as it is: every seed's random stream, and with it the records a
    run finds and the stored golden records it is checked against, depend
    on these exact draws.
    """
    starts = []
    for _ in range(count):
        g = rng.standard_normal(spec.n_modes)
        nrm = spec.h1_norm(g)
        if nrm == 0:
            continue
        r = radius * rng.uniform() ** (1.0 / 2.0)
        starts.append(g * (r / nrm))
    return starts


def dedup_records(spec, records):
    """Deterministic merge: sort by energy then coefficients, keep the first
    of every cluster within DEDUP_RADIUS in the Sobolev distance, the radius
    `DegreeLedger.match` uses.  Any item with `.energy` and `.coeffs` will
    do."""
    ordered = sorted(
        records,
        key=lambda r: (round(r.energy, 12), tuple(np.round(r.coeffs, 10))),
    )
    kept = []
    for rec in ordered:
        if np.all(spec.h1_dists(rec.coeffs, [k.coeffs for k in kept]) > DEDUP_RADIUS):
            kept.append(rec)
    return kept


def multistart(functional, radius, seeds=(), *, budget, rng, held=()) -> tuple:
    """`budget` random starts from `rng` in the Sobolev ball of the given
    radius, each refined by one Newton-type root solve.  Returns the records
    of the distinct points found, deterministically ordered (energy, then
    coefficients), and the outcome counts of the starts.

    Seeds are extra deterministic starts prepended to the random ones and do
    not count against the budget: coefficient vectors, or records, such as
    the group images of `records.image_record`, whose coefficients are the
    start.  A point is given its full record, Morse data and the radius of
    its certified Newton basin included, when it is found, and the call
    holds it: every later start's root solve is passed the held records
    and stops on entering one of their basins.  A record seed whose root
    solve stops at its own coefficients, because they meet GRAD_TOL at the
    first evaluation, is kept as the point's record instead, under this
    call's provenance and classification.  `held` holds the records of
    points the caller already has; the call starts out holding them, and
    builds no record for them.
    Each start counts once in the outcomes: "new" when it finds a point,
    "basin" when it ends in the basin of, or within DEDUP_RADIUS of, a
    point the call holds, and "failed" when its solve stalls.  A point the
    solve returns meets GRAD_TOL, so it is a critical point wherever it
    lies: `radius` bounds where the random starts are drawn, not where the
    points found may lie.
    """
    spec = functional.spectrum
    seeds = list(seeds)
    starts = [s.coeffs if isinstance(s, CriticalPointRecord) else np.asarray(s, dtype=float)
              for s in seeds]
    starts += _random_ball_starts(spec, rng, budget, radius)

    records, held = [], list(held)
    outcomes = {"new": 0, "basin": 0, "failed": 0}
    for idx, start in enumerate(starts):
        u = refine_critical(functional, start, held)
        if u is None:
            outcomes["failed"] += 1
        elif _near(spec, u, held):
            outcomes["basin"] += 1
        else:
            prov = {"stage": "multistart", "start_index": idx,
                    "functional": functional.nonlinearity.label}
            seed = seeds[idx] if idx < len(seeds) else None
            if isinstance(seed, CriticalPointRecord) and np.array_equal(u, start):
                rec = replace(seed, classification="other", provenance=prov, iterations=0,
                              notes=())
            else:
                rec = make_record(functional, u, "other", prov)
            if rec.is_constant():
                rec.classification = "constant"
            elif rec.morse_index == 0:
                rec.classification = "minimizer"
            records.append(rec)
            held.append(rec)
            outcomes["new"] += 1
    # the records lie pairwise farther apart than DEDUP_RADIUS, so this
    # only orders them
    return dedup_records(spec, records), outcomes


def proven_bound(nonlinearity, spectrum) -> tuple:
    """B(0) = max_j sqrt(1 + lam_j) b_j and the mode j that attains it, with
    b_j the per-mode bound of `nonlinearity.coefficient_bound` that the
    reduction's seed box reads too.

    Write h_lam(t) = s t + g_lam(t) with sup |g_lam| = (1 - lam) M, M the
    base's certified offset.  At a critical point (lam_j - s) u_j =
    P_j g_lam(u), and Gram = I gives ||u||_H1 <= (1 - lam) B(0) for every
    member of the homotopy.  Raises ResonantSlope, or AsymmetricSlopes when
    the tails differ (M is infinite).
    """
    spread = np.sqrt(1.0 + spectrum.eigenvalues) * coefficient_bound(nonlinearity, spectrum)
    mode = int(np.argmax(spread))
    return float(spread[mode]), mode


def search_radius(bound: float, max_norm: float) -> float:
    """The ledger's radius R: SAFETY_FACTOR x `max_norm`, the largest norm
    of a solution held, but never below the float just above the proven
    bound B(0), so no member of the homotopy has a solution on the sphere."""
    return max(SAFETY_FACTOR * max_norm, float(np.nextafter(bound, np.inf)))


@dataclass
class HomotopyBoundResult:
    """Outcome of the homotopy stage: the search radius R, the largest
    solution norm it holds, the closed-form bound B(0) < R, and the base
    member's search: `known`, the number of points the caller passed in
    that it holds with their distinct group images, n_found = known +
    outcomes["new"], and the outcomes of its seeds."""

    R: float
    max_norm: float
    M: float  # sup |f(t) - s t| of the base member
    mode: int  # the mode j that attains B(0) = sqrt(1 + lam_j) b_j
    bound: float  # B(0), the proven norm bound of every member
    known: int
    n_found: int
    outcomes: dict

    def to_dict(self):
        # shallow: the report's `_jsonable` copies it on the way out
        return dict(vars(self))


def homotopy_bound(nonlinearity, spectrum, known=()) -> HomotopyBoundResult:
    """R = `search_radius` of the proven bound B(0) (`proven_bound`) and the
    largest norm of a solution of f held.

    The family h_lam = lam f'(inf) t + (1 - lam) f(t) runs from f at
    lam = 0 to the nonresonant linearization at infinity at lam = 1, and
    every member's solutions lie in the ball of radius B(0), which R
    exceeds; so the degree on that ball is that of the linear end.  Only
    the member lam = 0, f itself, is searched, for R's SAFETY_FACTOR term.
    `known` holds records of critical points of J, the functional of f,
    that the caller already has: they and their distinct group images
    (`_distinct_points`, records built with no evaluation: an image has its
    source's norm and Newton radius) count among its solutions (n_found and
    max_norm), and the multistart holds those records, so a start that
    enters one of their basins stops there and builds no record.

    The multistart is seeded at every real zero of f on the whole line,
    the constant fields that solve it exactly, and at three amplitudes of
    either sign of the first nonconstant mode, where the norm-extremal
    solutions of asymptotically linear problems live; it draws no random
    start, so the radius it is passed, B(0), bounds nothing, and a seed
    counts "failed" only when its root solve stalls.  No other start lies
    on the line of constant fields: f of a constant field is constant, and
    Gram = I projects it onto the constant mode alone, so a root solve
    from there never leaves that line (`refine_critical` solves such a
    start on the line) and can only end at a constant zero, which is
    already seeded.

    Raises ResonantSlope, or AsymmetricSlopes when the tails differ, before
    any search.
    """
    from .energy import EnergyFunctional

    bound, mode = proven_bound(nonlinearity, spectrum)
    knot_ts = [t for t, _ in nonlinearity.knots]
    span = max(abs(t) for t in knot_ts) if knot_ts else 1.0
    func = EnergyFunctional(spectrum, nonlinearity)
    held = _distinct_points(spectrum, nonlinearity.odd, known)
    seeds = [spectrum.constant_field(t) for t in find_zeros(nonlinearity, -np.inf, np.inf)]
    if spectrum.n_modes > 1:
        amp_unit = spectrum.pairs[1].norm_constant
        for amp in (span + 1.0, 2.0 * span + 2.0, 3.0 * span + 3.0):
            for sgn in (1.0, -1.0):
                e = np.zeros(spectrum.n_modes)
                e[1] = sgn * amp / amp_unit
                seeds.append(e)
    recs, outcomes = multistart(func, bound, seeds=seeds, budget=0, rng=None, held=held)
    norms = [r.h1_norm for r in (*held, *recs)]
    max_norm = max(norms, default=0.0)
    return HomotopyBoundResult(search_radius(bound, max_norm), max_norm, nonlinearity.M, mode,
                               bound, len(held), len(norms), outcomes)
