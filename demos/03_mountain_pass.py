"""A mountain pass for the truncated energy.

Truncating the nonlinearity below its zero at -1 kills every solution to
the right: only the constants -2 and -1 survive, with -1 the sole local
minimizer and -2 an index-2 saddle.  Since the truncated energy drops
without bound along large negative constants, a path from the minimizer
to a deep far anchor must cross a barrier, and the lowest crossing is an
index-1 saddle.  Its range stays left of -1, where the truncated and
original nonlinearities coincide, so the same field solves the original
problem after an energy relabel.
"""

import numpy as np

import neucrit as nc
from neucrit.pipeline import MP_OFFSET

KNOTS = [(-2.0, 2.5), (-1.0, -3.0), (0.0, 2.5), (1.0, -3.0), (2.0, 2.5)]


def main():
    dom = nc.Domain("interval", (np.pi,), 512)
    spec = nc.split_spectrum(nc.build_spectrum(dom, 16), 2.5)
    f = nc.build_nonlinearity(KNOTS, 2.5, 2.5)
    func = nc.EnergyFunctional(spec, f)

    g = nc.truncate(f, hi=-1.0)  # f on (-inf, -1], the tangent beyond
    gfunc = nc.EnergyFunctional(spec, g)
    a = spec.constant_field(-1.0)
    b = spec.constant_field(-1.0 - MP_OFFSET)
    print(f"endpoints of the path, under the truncated energy [{g.label}]:")
    print(f"  u = -1    J = {gfunc.value(a):+.6f}   (the only local minimizer)")
    print(f"  u = {-1 - MP_OFFSET:g}    J = {gfunc.value(b):+.6f}   (far anchor, well below)")
    c2 = spec.constant_field(-2.0)
    print(f"  the constant -2 sits on the barrier between them with"
          f" J = {gfunc.value(c2):+.6f} and index"
          f" {gfunc.morse_data(c2)[2]}, too unstable to be the pass")

    rec = nc.mountain_pass(gfunc, a, b)
    lo, hi = rec.urange
    print(f"\nsaddle found after {rec.iterations} path sweeps:")
    print(f"  J = {rec.energy:+.6f}, residual {rec.residual:.1e}")
    print(f"  range [{lo:+.4f}, {hi:+.4f}], Morse index {rec.morse_index},"
          f" classification {rec.classification!r}")

    rec.provenance.update(stage="truncation", kind="below", anchors=(-1.0,))
    orig = nc.transfer_to_original(rec, func, gfunc)
    print(f"\nsame field under the original energy:")
    print(f"  J = {orig.energy:+.6f} (shift is the primitive mismatch"
          f" on the coincidence region times the measure)")
    print(f"  residual {orig.residual:.1e}, index {orig.morse_index};"
          " nothing about the solution changed, only its energy label")

    # mirror image: reflecting across the interval midpoint is an isometry
    # of the problem, so the reflected coefficients solve it too
    mir = nc.refine_critical(func, spec.mirror(orig.coeffs))
    print(f"\nmirror of the saddle refines to J = {func.value(mir):+.6f},"
          f" distance {spec.h1_dist(mir, orig.coeffs):.3f} from the original")


if __name__ == "__main__":
    main()
