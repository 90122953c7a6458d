"""Cosine eigenbasis on an interval and on a rectangle.

Shows the exact Neumann eigenvalues, the discrete orthonormality of the
quadrature, and how modes are ordered on a product domain where eigenvalues
repeat.
"""

import math

import numpy as np

import neucrit as nc


def main():
    dom = nc.Domain("interval", (math.pi,), 512)
    spec = nc.build_spectrum(dom, 8)
    print("interval [0, pi], 8 modes")
    print("  eigenvalues:", np.round(spec.eigenvalues, 12).tolist())
    print("  (mode j has eigenvalue j^2 exactly; quadrature never enters)")

    # discrete Gram matrix of the basis under the trapezoid weights
    gram = spec.basis.T @ (spec.weights[:, None] * spec.basis)
    print(f"  max |Gram - I| = {np.max(np.abs(gram - np.eye(8))):.2e}")

    # projection of a smooth field: coefficients decay fast
    u = np.cos(spec.points[:, 0]) ** 3
    c = spec.project(u)
    print("  coefficients of cos(x)^3:", np.round(c, 6).tolist())
    print("  (only modes 1 and 3 survive, as the identity"
          " cos^3 = (3 cos + cos 3x)/4 demands)")

    dom2 = nc.Domain("rectangle", (math.pi, math.pi), 64)
    spec2 = nc.build_spectrum(dom2, 11)
    print("\nsquare [0, pi]^2, first 11 modes, sorted by eigenvalue")
    for pair in spec2.pairs:
        print(f"  mode {pair.mode}  lambda = {pair.eigenvalue:.1f}")
    print("  ties such as (0,1)/(1,0) break lexicographically,"
          " so runs are reproducible across machines")

    split = nc.split_spectrum(spec2, 2.5)
    print(f"\nsplitting the square spectrum at slope 2.5 keeps k = {split.k}"
          f" low modes; the complement starts at lambda = {split.lambda_min_y:.1f}")


if __name__ == "__main__":
    main()
