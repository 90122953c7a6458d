"""Acceptance suite for the five-zero reference instance.

Ten numbered checks, one per release criterion, each printing a single
PASS/FAIL verdict line.  Tolerances are pinned here and nowhere else; the
helper fixtures live in conftest.py (the full pipeline run is shared with
the integration tests through `reference_report`).
"""

import json
import math
import time

import numpy as np
import pytest
import scipy.ndimage as ndi
from scipy.linalg import eigh

import neucrit as nc
from neucrit.records import GRAD_TOL
from neucrit.solvers import SAFETY_FACTOR


def _verdict(num, label, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    line = f"[acceptance {num:02d}] {tag}  {label}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------- 1

def test_01_spectrum_exactness():
    """Interval eigenvalues are j^2 to machine precision, built quickly."""
    t0 = time.perf_counter()
    dom = nc.Domain("interval", (math.pi,), 512)
    spec = nc.build_spectrum(dom, 16)
    err = max(abs(spec.eigenvalues[j] - j * j) for j in range(16))
    elapsed = time.perf_counter() - t0
    _verdict(1, "spectrum exactness",
             err < 1e-12 and elapsed < 0.1,
             f"max|lam_j - j^2| = {err:.2e}, build {elapsed * 1e3:.1f} ms")


# ---------------------------------------------------------------- 2

def test_02_constant_hessian_formula(ref5):
    """At each constant solution alpha the Hessian eigenvalues are
    (lam_l - f'(alpha)) / (lam_l + 1), all 16 modes, to 1e-8."""
    spec, f, func = ref5
    worst = 0.0
    for alpha in (-2.0, -1.0, 0.0, 1.0, 2.0):
        predicted = np.sort((spec.eigenvalues - f.deriv(alpha))
                            / (spec.eigenvalues + 1.0))
        computed, _ = func.hessian_spectrum(spec.constant_field(alpha))
        worst = max(worst, float(np.max(np.abs(computed - predicted))))
    _verdict(2, "constant-solution Hessian formula",
             worst < 1e-8, f"worst deviation {worst:.2e} over 5 constants x 16 modes")


# ---------------------------------------------------------------- 3

def test_03_gradient_hessian_consistency(ref5):
    """Directional finite differences of J match the Sobolev gradient, and
    finite differences of the gradient match Hessian-vector products."""
    spec, _, func = ref5
    rng = np.random.default_rng(314)
    h = 1e-5
    worst_g = worst_h = 0.0
    t0 = time.perf_counter()
    for _ in range(50):
        u = rng.normal(0.0, 0.6, spec.n_modes)
        v = rng.normal(0.0, 1.0, spec.n_modes)
        v /= spec.h1_norm(v)
        dj = (func.value(u + h * v) - func.value(u - h * v)) / (2 * h)
        g = spec.h1_inner(func.gradient(u), v)
        worst_g = max(worst_g, abs(dj - g) / max(1.0, abs(dj)))
        hv = func.hessian(u) @ v
        fd = (func.gradient(u + h * v) - func.gradient(u - h * v)) / (2 * h)
        worst_h = max(worst_h, spec.h1_norm(fd - hv) / max(1.0, spec.h1_norm(hv)))
    elapsed = time.perf_counter() - t0
    _verdict(3, "gradient / Hessian-vector consistency",
             worst_g < 1e-6 and worst_h < 1e-5 and elapsed < 5.0,
             f"grad {worst_g:.2e}, hess {worst_h:.2e}, {elapsed:.2f} s / 50 fields")


# ---------------------------------------------------------------- 4

def test_04_reduction_modulus(ref5, ref5_ctx, reference_report):
    """Strong monotonicity of the complement gradient holds with the
    certified modulus on 200 random triples, the Y-block Hessian pencil at
    every pipeline record has no eigenvalue below the modulus, and psi
    beats 100 random competitors at every test point."""
    spec, _, func = ref5
    ctx = ref5_ctx
    rng = np.random.default_rng(11)
    margin = np.inf
    for _ in range(200):
        x = spec.x_projection(rng.normal(scale=3.0, size=spec.n_modes))
        y1 = spec.y_projection(rng.normal(scale=3.0, size=spec.n_modes))
        y2 = spec.y_projection(rng.normal(scale=3.0, size=spec.n_modes))
        dy = y1 - y2
        dg = spec.y_projection(func.gradient(x + y1) - func.gradient(x + y2))
        margin = min(margin, spec.h1_inner(dg, dy) - ctx.m * spec.h1_inner(dy, dy))
    # A_YY >= diag(lam_Y) - gamma, so every eigenvalue of the Y-block
    # pencil is at least m; equality holds at the crossing constants
    yi = np.ix_(spec.y_indices, spec.y_indices)
    pencil_gap = np.inf
    for rec in reference_report.records:
        A, B = reference_report.functional.hessian_pencil(rec.coeffs)
        pencil_gap = min(pencil_gap, eigh(A[yi], B[yi], eigvals_only=True)[0] - ctx.m)
    rng = np.random.default_rng(12)
    worst_gap = np.inf
    for _ in range(10):
        x = spec.x_projection(rng.normal(0.0, 2.0, spec.n_modes))
        ystar = nc.psi(ctx, x)
        jstar = func.value(x + ystar)
        for i in range(100):
            # half global draws, half local perturbations of the minimizer
            scale = 1.5 if i < 50 else 0.3
            yc = spec.y_projection(rng.normal(0.0, scale, spec.n_modes))
            if i >= 50:
                yc = ystar + yc
            worst_gap = min(worst_gap, func.value(x + yc) - jstar)
    _verdict(4, "reduction modulus and psi minimality",
             margin >= -1e-10 and pencil_gap >= -1e-10 and worst_gap >= -1e-10,
             f"monotonicity margin {margin:.2e}, Y-pencil minus m {pencil_gap:.2e}"
             f" over {len(reference_report.records)} records,"
             f" worst competitor gap {worst_gap:.2e}")


# ---------------------------------------------------------------- 5

def test_05_reduction_correspondence(ref5, ref5_ctx, reference_report):
    """Every pipeline solution reproduces its own complement part through
    psi within 10x the gradient tolerance (psi restarted from zero)."""
    spec, _, _ = ref5
    tol = 10.0 * GRAD_TOL
    worst = 0.0
    n = 0
    for rec in reference_report.records:
        x = spec.x_projection(rec.coeffs)
        y = spec.y_projection(rec.coeffs)
        worst = max(worst, spec.h1_norm(nc.psi(ref5_ctx, x) - y))
        n += 1
    _verdict(5, "solutions reproduce their complement part through psi",
             worst < tol, f"worst |psi(x) - y| = {worst:.2e} over {n} records, tol {tol:.0e}")


# ---------------------------------------------------------------- 6

def test_06_qualitative_bounds(ref5, reference_report):
    """Nonconstant solutions have f(max u) > 0 > f(min u), and solutions
    born from a modified nonlinearity respect its range bounds."""
    _, f, _ = ref5
    violations = []
    n = 0
    for i, rec in enumerate(reference_report.records):
        if rec.is_constant():
            continue
        n += 1
        lo, hi = rec.urange
        if not (f(hi) > 0.0 > f(lo)):
            violations.append(f"record {i}: f-range signs ({f(lo):.3g}, {f(hi):.3g})")
        kind = rec.provenance.get("kind")
        if kind == "below" and not hi < -1.0:
            violations.append(f"record {i}: below-range max u = {hi:.6f}")
        if kind == "above" and not lo > 1.0:
            violations.append(f"record {i}: above-range min u = {lo:.6f}")
        if kind == "interval" and not (-1.0 < lo <= hi < 1.0):
            violations.append(f"record {i}: interval range ({lo:.6f}, {hi:.6f})")
    detail = f"{n} nonconstant records, {len(violations)} violations"
    if violations:
        detail += "; " + "; ".join(violations)
    _verdict(6, "qualitative range bounds", not violations, detail)


# ---------------------------------------------------------------- 7

def test_07_saddle_signature(ref5, reference_report):
    """The three truncation saddles have Morse index exactly 1 with a
    simple sign-definite principal eigenpair; the interval one is
    nonconstant while the constant it brackets has index 2."""
    _, _, func = ref5
    recs = reference_report.records
    saddles = [r for r in recs if r.classification == "mp_type"]
    ok = len(saddles) == 3
    notes = [f"{len(saddles)} saddles"]
    for r in saddles:
        good = (r.morse_index == 1 and not r.degenerate
                and nc.principal_simple_signdef(func, r))
        ok = ok and good
        notes.append(f"{r.provenance.get('kind')}: index {r.morse_index}")
    interval = [r for r in saddles if r.provenance.get("kind") == "interval"]
    ok = ok and len(interval) == 1 and not interval[0].is_constant()
    zero = [r for r in recs if r.is_constant() and abs(r.urange[0]) < 1e-8]
    ok = ok and len(zero) == 1 and zero[0].morse_index == 2
    notes.append(f"constant 0 index {zero[0].morse_index if zero else '?'}")
    _verdict(7, "mountain-pass saddle signature", ok, ", ".join(notes))


# ---------------------------------------------------------------- 8

def _grid_oracle(spec, f, func, radius):
    """Brute-force enumeration: the coefficient-gradient norm is scanned
    over a 3-mode lattice, lattice-local minima are polished in the full
    space, and nondegenerate in-ball points are returned deduplicated."""
    axis = np.linspace(-8.0, 8.0, 33)
    c0, c1, c2 = np.meshgrid(axis, axis, axis, indexing="ij")
    coeffs = np.zeros((c0.size, spec.n_modes))
    coeffs[:, 0] = c0.ravel()
    coeffs[:, 1] = c1.ravel()
    coeffs[:, 2] = c2.ravel()
    norms = np.empty(coeffs.shape[0])
    for lo in range(0, coeffs.shape[0], 4096):
        block = coeffs[lo:lo + 4096]
        vals = block @ spec.basis.T
        proj = (f(vals) * spec.weights) @ spec.basis
        grad = block * spec.eigenvalues - proj
        norms[lo:lo + 4096] = np.sqrt(np.sum(grad * grad, axis=1))
    cube = norms.reshape(c0.shape)
    is_min = cube <= ndi.minimum_filter(cube, size=3, mode="nearest")
    found = []
    for seed in coeffs[is_min.ravel()]:
        c = nc.refine_critical(func, seed)
        if c is None or spec.h1_norm(c) > radius + 1e-9:
            continue
        _, _, index, degenerate = func.morse_data(c)
        if degenerate:
            continue
        if all(spec.h1_dist(c, other) > 1e-6 for other, _ in found):
            found.append((c, index))
    return found


def test_08_degree_reconciliation(ref5, reference_report):
    """Stage-7 degree arithmetic shows a gap, multistart closes it, and an
    independent 3-mode grid enumeration finds nothing the ledger lacks."""
    spec, f, func = ref5
    rep = reference_report
    init = rep.stages["ledger"]["initial_reconciliation"]
    red = [r for r in rep.records if r.classification == "reduction_max"]
    u10_degree = (-1) ** red[0].morse_index
    expected = 2 * (+1) + 3 * (+1) + 3 * (-1) + u10_degree
    arithmetic = init["degree_sum"] == expected and init["deficiency"] != 0
    triggered = "multistart" in rep.stages
    fin = rep.stages["ledger"]["final_reconciliation"]
    resolved = fin["deficiency"] == 0 or (fin["flagged"] and fin["message"])
    nonconstant = [r for r in rep.records if not r.is_constant()]

    t0 = time.perf_counter()
    oracle = _grid_oracle(spec, f, func, rep.ledger_report.R)
    missing = []
    for c, index in oracle:
        d = min(spec.h1_dist(c, r.coeffs) for r in rep.records)
        if d > 1e-6:
            missing.append((spec.field_range(c), index, d))
    t_oracle = time.perf_counter() - t0
    budget = rep.elapsed + t_oracle

    ok = (arithmetic and triggered and resolved and len(nonconstant) >= 4
          and not missing and budget < 60.0)
    _verdict(8, "degree ledger vs brute-force oracle", ok,
             f"stage-7 sum {init['degree_sum']} (deficiency {init['deficiency']}), "
             f"final deficiency {fin['deficiency']}, {len(nonconstant)} nonconstant, "
             f"oracle found {len(oracle)} points / {len(missing)} missing, "
             f"{budget:.1f} s of 60")


# ---------------------------------------------------------------- 9

def _tail_offset_sup(f):
    """M = sup |f(t) - s t| with s the common tail slope, exact from the
    cubic pieces: the outer pieces are affine with slope s, so f - s t is
    constant on them and beyond."""
    s = f.slope_plus_inf
    pp = f.ppoly
    M = 0.0
    for i in range(pp.c.shape[1]):
        c3, c2, c1, c0 = pp.c[:, i]
        h = pp.x[i + 1] - pp.x[i]
        g = np.poly1d([c3, c2, c1 - s, c0 - s * pp.x[i]])
        crit = [r.real for r in np.roots([3.0 * c3, 2.0 * c2, c1 - s])
                if r.imag == 0 and 0.0 < r.real < h]
        M = max(M, *(abs(g(t)) for t in [0.0, h, *crit]))
    return float(M)


def test_09_homotopy_bound(reference_report):
    """Every member h_lam of an 11-point grid, searched alone from its
    zeros, six first-mode seeds and 32 random starts, has solution norms at
    most (1 - lam) B(0), where B(0) = M sqrt(|Omega| max_j (1 + lam_j) /
    (lam_j - s)^2) is the closed form; at the linear end only u = 0
    survives; and R exceeds B(0), so the ball holds every member's
    solutions strictly inside, while R = safety x max_norm."""
    h = reference_report.stages["homotopy"]
    spec = reference_report.spectrum
    f = reference_report.functional.nonlinearity
    lam = spec.eigenvalues
    s = f.slope_plus_inf
    proven = _tail_offset_sup(f) * math.sqrt(
        spec.domain.measure * np.max((1.0 + lam) / (lam - s) ** 2))
    span = max(abs(t) for t, _ in f.knots)
    radius = 4.0 * max(1.0, span * math.sqrt(spec.domain.measure))
    first_mode = [sgn * amp / spec.pairs[1].norm_constant * np.eye(spec.n_modes)[1]
                  for amp in (span + 1.0, 2.0 * span + 2.0, 3.0 * span + 3.0)
                  for sgn in (1.0, -1.0)]
    alone = {}
    for l in np.linspace(0.0, 1.0, 11):
        g = nc.homotopy(f, float(l))
        seeds = [spec.constant_field(t) for t in nc.find_zeros(g, -np.inf, np.inf)]
        rng = np.random.default_rng(reference_report.config["solver"]["rng_seed"] + 1000)
        recs, _ = nc.multistart(nc.EnergyFunctional(spec, g), radius, seeds + first_mode,
                                budget=32, rng=rng)
        alone[float(l)] = [r.h1_norm for r in recs]
    above_own_bound = [l for l, norms in alone.items()
                       if max(norms, default=0.0) > (1.0 - l) * proven]
    end = alone[1.0]
    ok = (not above_own_bound and len(end) == 1 and end[0] < 1e-6
          and h["bound"] == pytest.approx(proven, rel=1e-12)
          and h["R"] > h["bound"] and h["R"] == SAFETY_FACTOR * h["max_norm"])
    _verdict(9, "homotopy norm bound", ok,
             f"11 members alone within (1 - lam) x closed form {proven:.4f};"
             f" R {h['R']:.4f} > B(0); end-point norm {max(end, default=0.0):.1e}")


# ---------------------------------------------------------------- 10

def test_10_spectral_convergence(reference_report):
    """Doubling the mode count moves no solution energy by more than 1e-6."""
    cfg = json.loads(json.dumps(nc.reference_config()))
    cfg["modes"] = 32
    rep32 = nc.run_pipeline(cfg)
    e16 = sorted(r.energy for r in reference_report.records)
    e32 = sorted(r.energy for r in rep32.records)
    same_count = len(e16) == len(e32)
    drift = (max(abs(a - b) for a, b in zip(e16, e32)) if same_count else np.inf)
    _verdict(10, "energies stable from 16 to 32 modes",
             same_count and drift < 1e-6,
             f"{len(e16)} vs {len(e32)} records, max drift {drift:.2e}")
