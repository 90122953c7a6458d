"""The five-zero nonlinearity and its modified companions.

Builds the reference f with zeros at -2, -1, 0, 1, 2, prints its certified
slope data, then walks through the three truncation windows and the
homotopy that connects f to its linearization at infinity.
"""

import numpy as np

import neucrit as nc

KNOTS = [(-2.0, 2.5), (-1.0, -3.0), (0.0, 2.5), (1.0, -3.0), (2.0, 2.5)]


def describe(f, points):
    rows = ", ".join(f"f({t:g}) = {f(t):+.4f}" for t in points)
    print(f"  [{f.label}] {rows}")
    print(f"           slopes within [{f.min_slope:+.4f}, {f.gamma:+.4f}],"
          f" F(1) = {f.primitive(1.0):+.6f}")


def main():
    f = nc.build_nonlinearity(KNOTS, 2.5, 2.5)
    print("base nonlinearity, five simple zeros with alternating slopes")
    describe(f, [-2.5, -1.5, 0.0, 1.5, 2.5])
    zeros = nc.find_zeros(f, -4.0, 4.0)
    print("  zeros:", [f"{z:g} (slope {f.deriv(z):+g})" for z in zeros])

    rep = nc.check_hypotheses(f, nc.build_spectrum(nc.Domain("interval", (np.pi,), 512), 16))
    print(f"  crossing count k = {rep.k}, modulus m = {rep.modulus:.4f},"
          f" extra-solution sign condition: {rep.extra_solution_condition}")

    print("\ntruncations pin the range of every critical point they create;")
    print("each keeps f on a window and follows the tangent at its ends:")
    for lo, hi in [(None, -1.0), (1.0, None), (-1.0, 1.0)]:
        g = nc.truncate(f, lo, hi)
        describe(g, [-3.0, -1.0, 0.0, 1.0, 3.0])
        print(f"           coincides with f on {g.untouched}")
    g = nc.truncate(nc.truncate(f, hi=1.0), lo=-1.0)
    print(f"  windows compose: truncating at 1, then at -1, gives [{g.label}]")

    print("\nhomotopy to the linearization at infinity:")
    for lam in (0.0, 0.5, 1.0):
        h = nc.homotopy(f, lam)
        print(f"  lambda = {lam:.1f}:  h(0.4) = {h(0.4):+.4f},"
              f"  h(10) = {h(10.0):+.4f}   [{h.label}]")
    print("  at lambda = 1 the function is exactly 2.5 t, whose only"
          " solution is u = 0; that anchors the degree count")


if __name__ == "__main__":
    main()
