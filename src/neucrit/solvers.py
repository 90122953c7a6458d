"""Search stages: constants, descent, mountain pass, homotopy bound,
multistart.

All solvers work on coefficient vectors and report Sobolev residuals.  The
descent loop is hand-rolled backtracking on the metric gradient so the
energy sequence is provably nonincreasing; once the residual is small the
iterate is polished by a Newton-type root solve on the gradient system
(MINPACK's dogleg trust region, plus a plain Newton fallback), which
converges to saddles as happily as to minima.  The root solve stops at the
first point it evaluates whose Sobolev residual meets GRAD_TOL: MINPACK's
own step test (xtol = 1e-13) lies below the rounding noise of the
iterates, so without that stop hybr keeps iterating on a converged point
until it reports poor progress.

Multistart builds full records (Morse data included) only for the points
that survive deduplication; candidates are compared by energy and
coefficients alone.

The mountain pass is a discrete path method: keep a polyline between two
low-energy endpoints, repeatedly pick the maximal-energy node, slide it
along the negative gradient projected off the path tangent, and
re-equalize node spacing.  A transverse perturbation of the initial
straight path keeps it out of the constants line, which is invariant under
the flow and full of index-2 traps.  After every redistribution the highest
node is refined; a refined point that is a certified mountain-pass saddle
ends the pass at once, and any other is dropped.

The homotopy bound multistarts the members h_lam of the homotopy to the
linearization at infinity and takes R from the largest solution norm it
finds.  Each member's solutions obey the closed-form bound
||u||_H1 <= (1 - lam) C M, read off the base nonlinearity's M and C, so a
member whose bound lies below the largest norm already found is skipped
and never built: searching it could not change R.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import asdict, dataclass

import numpy as np
from scipy.optimize import root

from .errors import (
    AsymmetricSlopes,
    DivergingIterates,
    MaxItersExceeded,
    PathCollapse,
)
from .nonlinearity import find_zeros, homotopy
from .records import (
    DEDUP_RADIUS,
    GRAD_TOL,
    CriticalPointRecord,
    SolverConfig,
    make_record,
    principal_simple_signdef,
)
from .spectrum import resonance_margin

__all__ = [
    "SolverConfig",
    "CriticalPointRecord",
    "find_constants",
    "minimize",
    "refine_critical",
    "mountain_pass",
    "homotopy_bound",
    "HomotopyBoundResult",
    "multistart",
    "dedup_records",
]

# iteration budget of a descent and sweep budget of a mountain pass
MAX_ITERS = 4000
# residual at which a descent hands over to the root solve's polish
_DESCENT_TOL = max(GRAD_TOL, 1e-7)
# mountain-pass polyline nodes, endpoints included
PATH_NODES = 41
# sweeps between two redistributions of the polyline; each redistribution
# is followed by one attempt to certify a saddle from the highest node
REDISTRIBUTE_EVERY = 5
# the homotopy bound scales the largest solution norm it sees by this
# factor into the search radius R
SAFETY_FACTOR = 2.0
# random starts per homotopy member, on top of its deterministic seeds
HOMOTOPY_BUDGET = 32


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


def _descend(functional, start, tol, radius_guard=None, trace=None):
    """Backtracking descent on the metric gradient.  Returns (coeffs, iters).

    Guarantees J never increases along the iterates.  Raises
    DivergingIterates when the iterate norm passes radius_guard and
    MaxItersExceeded when MAX_ITERS steps do not reach `tol`.
    """
    spec = functional.spectrum
    u = np.asarray(start, dtype=float).copy()
    J = functional.value(u)
    if trace is not None:
        trace.append(J)
    step = 1.0
    for it in range(MAX_ITERS):
        g = functional.gradient(u)
        gn2 = spec.h1_inner(g, g)
        if np.sqrt(gn2) <= tol:
            return u, it
        # Armijo backtracking in the Sobolev metric
        accepted = False
        for _ in range(60):
            cand = u - step * g
            Jc = functional.value(cand)
            if Jc <= J - 1e-4 * step * gn2:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            # gradient direction gives no decrease at tiny steps: converged
            # to working precision
            return u, it
        u, J = cand, Jc
        step = min(step * 1.6, 1e3)
        if trace is not None:
            trace.append(J)
        if radius_guard is not None and spec.h1_norm(u) > radius_guard:
            raise DivergingIterates(
                f"iterate norm {spec.h1_norm(u):.3g} passed the guard {radius_guard:.3g}"
            )
    raise MaxItersExceeded(f"descent did not reach tol={tol:g} in {MAX_ITERS} iters")


class _Converged(Exception):
    """Raised inside the root solve at the first point that meets GRAD_TOL."""

    def __init__(self, u):
        super().__init__()
        self.u = u


def _last_point_cached(fn):
    """`fn` with a one-entry cache keyed on the bytes of its argument."""
    last = [None, None]

    def cached(c):
        key = np.asarray(c, dtype=float).tobytes()
        if key != last[0]:
            last[:] = key, fn(c)
        return last[1]

    return cached


def refine_critical(functional, start):
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

    scipy evaluates the gradient and the Jacobian at the start once to
    check their shapes, and MINPACK then evaluates both there again; each
    closure keeps its last point and result, so every point is evaluated
    once and the results are bit-identical.
    """
    weight = 1.0 / (1.0 + functional.spectrum.eigenvalues)

    def gradient(c):
        g = functional.l2_gradient(c)
        if np.sqrt(np.sum(weight * g * g)) <= GRAD_TOL:
            raise _Converged(np.array(c, dtype=float))
        return g

    try:
        u = root(
            _last_point_cached(gradient),
            np.asarray(start, dtype=float),
            jac=_last_point_cached(lambda c: functional.hessian_pencil(c)[0]),
            method="hybr",
            options={"xtol": 1e-13, "maxfev": 200 * (len(start) + 1)},
        ).x
    except _Converged as stop:
        return stop.u
    if not np.all(np.isfinite(u)):
        return None
    for _ in range(8):
        if functional.residual(u) <= GRAD_TOL:
            return u
        A, _ = functional.hessian_pencil(u)
        G = functional.l2_gradient(u)
        try:
            delta = np.linalg.solve(A, -G)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(delta)):
            return None
        u = u + delta
    return u if functional.residual(u) <= GRAD_TOL else None


def minimize(functional, start, radius_guard=None, trace=None) -> CriticalPointRecord:
    """Descend from `start` to a critical point, then Newton-polish.

    The energy sequence along the iterates is nonincreasing.  A start that
    already meets GRAD_TOL is returned as-is with zero iterations.
    """
    u = np.asarray(start, dtype=float)
    iters = 0
    descended = functional.residual(u) > GRAD_TOL
    if descended:
        u, iters = _descend(functional, u, _DESCENT_TOL, radius_guard=radius_guard,
                            trace=trace)
        polished = refine_critical(functional, u)
        if polished is not None and functional.spectrum.h1_dist(polished, u) < 1.0:
            u = polished
        else:
            u, _ = _descend(functional, u, GRAD_TOL, radius_guard=radius_guard)
    rec = make_record(functional, u, "other",
                      {"stage": "minimize", "functional": functional.nonlinearity.label},
                      iterations=iters)
    if rec.morse_index == 0:
        rec.classification = "minimizer"
    elif descended:
        rec = rec.with_notes(f"descent stopped at index {rec.morse_index}")
    return rec


def _redistribute(spec, path):
    """Reparametrize the polyline to equal Sobolev arclength."""
    n = len(path)
    seg = np.array([spec.h1_dist(path[i + 1], path[i]) for i in range(n - 1)])
    total = seg.sum()
    if total <= 0:
        return path
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    targets = np.linspace(0.0, total, n)
    out = [path[0]]
    for t in targets[1:-1]:
        j = int(np.searchsorted(cum, t, side="right") - 1)
        j = min(j, n - 2)
        w = (t - cum[j]) / seg[j] if seg[j] > 0 else 0.0
        out.append((1 - w) * path[j] + w * path[j + 1])
    out.append(path[-1])
    return out


def mountain_pass(functional, end_a, end_b) -> CriticalPointRecord:
    """Choi-McKenna style discrete mountain pass between two anchors.

    Every REDISTRIBUTE_EVERY sweeps the path is redistributed and its
    highest node refined.  The pass returns that refined point at once when
    it is certified: farther than DEDUP_RADIUS from both endpoints, above
    the endpoint level, and "mp_type" (Morse index 1, principal Hessian
    eigenpair simple with a sign-definite eigenfield).  A point that fails
    any check is dropped and the sweeps go on; the record's `iterations`
    counts the sweeps done.

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
    n = PATH_NODES
    Ja, Jb = functional.value(a), functional.value(b)
    end_level = max(Ja, Jb)

    # straight path plus a transverse bump; the bump leaves the constants
    # line, which is flow-invariant and hides the saddle from the path
    s = np.linspace(0.0, 1.0, n)
    bump = np.zeros(spec.n_modes)
    for j in range(1, min(4, spec.n_modes)):
        bump[j] = 0.5 ** (j - 1)
    bump /= spec.h1_norm(bump)
    delta = 0.01 * (spec.h1_dist(a, b) + 1.0)
    path = [(1 - si) * a + si * b + delta * np.sin(np.pi * si) * bump for si in s]

    steps = np.full(n, 0.2)
    best = None
    # node energies: a moved node keeps the energy its accepted step
    # computed, and every node is re-evaluated after redistribution
    energies = np.array([functional.value(p) for p in path])
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
            path = _redistribute(spec, path)
            energies = np.array([functional.value(p) for p in path])
            # a certified saddle from the new highest node ends the pass
            i = int(np.argmax(energies))
            if 0 < i < n - 1:
                cand = refine_critical(functional, path[i])
                if (cand is not None
                        and _candidate_fault(functional, cand, a, b, end_level) is None):
                    rec = _finish_mp(functional, cand, sweep + 1, end_a=a, end_b=b)
                    if rec.classification == "mp_type":
                        return rec
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
    spec = functional.spectrum
    rec = make_record(
        functional, coeffs, "other",
        {"stage": "mountain_pass", "functional": functional.nonlinearity.label,
         "endpoint_ranges": [list(spec.field_range(end_a)), list(spec.field_range(end_b))]},
        iterations=sweeps,
    )
    is_mp = rec.morse_index == 1 and principal_simple_signdef(functional, rec)
    if is_mp:
        rec.classification = "mp_type"
    else:
        rec = rec.with_notes(
            f"saddle of index {rec.morse_index} failed the mountain-pass shape check"
        )
    return rec


def _random_ball_starts(spec, rng, count, radius):
    """`count` random starts in the Sobolev ball of the given radius.

    Directions are standard normal coefficient vectors scaled to unit
    Sobolev norm; radii are radius * sqrt(U) with U uniform on [0, 1).  The sqrt is the uniform law for a disk, not for the
    n-dimensional ball, where uniform radii would be radius * U**(1/n); so
    with more than two modes the starts cluster toward the centre.  The law
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
    do: records, or multistart's candidates before their records are
    built."""
    ordered = sorted(
        records,
        key=lambda r: (round(r.energy, 12), tuple(np.round(r.coeffs, 10))),
    )
    kept = []
    for rec in ordered:
        if all(spec.h1_dist(rec.coeffs, k.coeffs) > DEDUP_RADIUS for k in kept):
            kept.append(rec)
    return kept


# a converged multistart point before its record is built
_Candidate = namedtuple("_Candidate", "energy coeffs method start_index")


def multistart(functional, radius, seeds=(), *, budget, rng, descent=True) -> list:
    """`budget` random starts from `rng` in the Sobolev ball of the given
    radius, each refined by a Newton-type root solve and optionally by
    descent.  Returns records deduplicated and deterministically ordered
    (energy, then coefficients).

    Seeds are extra deterministic starts prepended to the random ones and do
    not count against the budget.  The converged points (refine_critical
    returns only points that meet GRAD_TOL) are deduplicated on their
    energy and coefficients; only the survivors get a full record with
    Morse data.
    """
    spec = functional.spectrum
    starts = [np.asarray(s, dtype=float) for s in seeds]
    starts += _random_ball_starts(spec, rng, budget, radius)

    found = []
    for idx, start in enumerate(starts):
        cand = refine_critical(functional, start)
        if cand is not None and spec.h1_norm(cand) <= 4.0 * radius + 10.0:
            found.append((cand, "newton", idx))
        if descent:
            try:
                u, _ = _descend(functional, start, _DESCENT_TOL,
                                radius_guard=2.0 * radius + 10.0)
            except (DivergingIterates, MaxItersExceeded):
                u = None
            if u is not None:
                polished = refine_critical(functional, u)
                if polished is not None:
                    found.append((polished, "descent", idx))

    candidates = [
        _Candidate(functional.value(coeffs), coeffs, method, idx)
        for coeffs, method, idx in found
    ]
    records = []
    for cand in dedup_records(spec, candidates):
        rec = make_record(
            functional, cand.coeffs, "other",
            {"stage": "multistart", "method": cand.method, "start_index": cand.start_index,
             "functional": functional.nonlinearity.label},
        )
        if rec.is_constant():
            rec.classification = "constant"
        elif rec.morse_index == 0:
            rec.classification = "minimizer"
        records.append(rec)
    return records


@dataclass
class HomotopyBoundResult:
    """Outcome of the homotopy sweep: the search radius R, the closed-form
    bound that decided which members were sampled, and one row per member
    (lam, bound, sampled, n_found, max_norm; the last two None when the
    member was skipped)."""

    R: float
    max_norm: float
    safety_factor: float
    M: float  # sup |f(t) - s t| of the base member
    mode: int  # index of the eigenvalue that maximises (1 + lam_j) / (lam_j - s)^2
    bound: float  # B(0) = C * M, the proven norm bound of every member
    per_lambda: list
    lambda_one_clean: bool

    def to_dict(self):
        return asdict(self)


def homotopy_bound(nonlinearity, spectrum, lambdas, cfg: SolverConfig) -> HomotopyBoundResult:
    """Sweep the family h_lam = lam f'(inf) t + (1 - lam) f(t), multistart
    each member that could raise the largest solution norm, and return
    R = SAFETY_FACTOR x the largest solution norm.

    Write h_lam(t) = s t + g_lam(t) with sup |g_lam| = (1 - lam) M, M the
    base's certified offset.  At a critical point (lam_j - s) u_j =
    P_j g_lam(u), and Gram = I gives the proven bound
    ||u||_H1 <= B(lam) = (1 - lam) C M with
    C = sqrt(|Omega| max_j (1 + lam_j) / (lam_j - s)^2).  A member with
    B(lam) below the largest norm sampled so far cannot raise it, so it is
    skipped and never built: no member, functional, seeds or multistart.
    B falls as lam rises, so an ascending sweep samples a prefix of the
    members; a one-member call always samples.  Skipped and sampled members
    alike keep their random stream, rng_seed + 1000 + their index in
    `lambdas`.  A sampled member is seeded at its exact zeros.

    At lam = 1 the member is linear and nonresonant, so the only solution is
    0 (B(1) = 0 proves it when the member is skipped); lambda_one_clean
    reports whether the sweep respected that.  Raises ResonantSlope, or
    AsymmetricSlopes when the tails differ (M is infinite), before sweeping.
    """
    from .energy import EnergyFunctional

    resonance_margin(spectrum, nonlinearity.slope_plus_inf)
    M = nonlinearity.M
    if not np.isfinite(M):
        raise AsymmetricSlopes("unequal tail slopes leave the member bounds infinite")
    knot_ts = [t for t, _ in nonlinearity.knots]
    span = max(abs(t) for t in knot_ts) if knot_ts else 1.0
    start_radius = 4.0 * max(1.0, span * np.sqrt(spectrum.domain.measure))
    lam_j = spectrum.eigenvalues
    ratios = (1.0 + lam_j) / (lam_j - nonlinearity.slope_plus_inf) ** 2
    mode = int(np.argmax(ratios))
    C = float(np.sqrt(spectrum.domain.measure * ratios[mode]))

    per_lambda = []
    max_norm = 0.0
    clean = True
    for li, lam in enumerate(lambdas):
        bound = C * ((1.0 - float(lam)) * M)
        row = {"lam": float(lam), "bound": bound, "sampled": not bound < max_norm,
               "n_found": None, "max_norm": None}
        per_lambda.append(row)
        if not row["sampled"]:
            continue
        g = homotopy(nonlinearity, float(lam))
        func = EnergyFunctional(spectrum, g)
        seeds = [
            spectrum.constant_field(t)
            for t in find_zeros(g, -span - 3.0, span + 3.0)
        ]
        # large-amplitude low-mode seeds: the norm-extremal solutions of
        # asymptotically linear problems live in this family
        for j in range(min(2, spectrum.n_modes)):
            amp_unit = spectrum.pairs[j].norm_constant
            for amp in (span + 1.0, 2.0 * span + 2.0, 3.0 * span + 3.0):
                for sgn in (1.0, -1.0):
                    e = np.zeros(spectrum.n_modes)
                    e[j] = sgn * amp / amp_unit
                    seeds.append(e)
        rng = np.random.default_rng(cfg.rng_seed + 1000 + li)
        recs = multistart(func, start_radius, seeds=seeds,
                          budget=HOMOTOPY_BUDGET, rng=rng, descent=False)
        top = max((r.h1_norm for r in recs), default=0.0)
        row.update(n_found=len(recs), max_norm=top)
        max_norm = max(max_norm, top)
        if abs(float(lam) - 1.0) < 1e-12 and top > 1e-6:
            clean = False
    R = SAFETY_FACTOR * max_norm
    return HomotopyBoundResult(R, max_norm, SAFETY_FACTOR, M, mode, C * M, per_lambda, clean)
