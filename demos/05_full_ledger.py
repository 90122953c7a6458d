"""End-to-end solution count on the five-zero instance.

Runs every pipeline stage, prints the ledger with one line per solution,
and shows the degree bookkeeping that certifies the count: the homotopy
bound confines all solutions to a ball of known degree +1 (members whose
closed-form bound cannot raise the largest norm are skipped), each solution
contributes its local degree, and a nonzero gap means something is still
missing.  Artifacts (report JSON, CSV table, SVG profiles) land in
demos/out/, which git ignores; each run rewrites them.
"""

import pathlib

import neucrit as nc


def main():
    rep = nc.run_pipeline(nc.reference_config())

    print("stage timings:")
    for name, dt in rep.timings.items():
        print(f"  {name:<12} {dt * 1e3:8.1f} ms")

    hom = rep.stages["homotopy"]
    sampled = sum(row["sampled"] for row in hom["per_lambda"])
    print(f"\nhomotopy bound: solutions confined to |u| <= {hom['R']:.3f}"
          f" (largest norm seen {hom['max_norm']:.3f},"
          f" clean linear end: {hom['lambda_one_clean']})")
    print(f"closed-form bound {hom['bound']:.3f} (mode {hom['mode']}):"
          f" {sampled} members sampled, {len(hom['per_lambda']) - sampled} skipped"
          f" as unable to raise the largest norm")

    init = rep.stages["ledger"]["initial_reconciliation"]
    fin = rep.stages["ledger"]["reconciliation"]
    print(f"degree count before multistart: {init['degree_sum']:+d}"
          f" against a ball degree of {init['global_degree']:+d}"
          f" (deficiency {init['deficiency']:+d})")
    print(f"after multistart: deficiency {fin['deficiency']:+d},"
          f" {fin['counted']} solutions counted")

    print(f"\nledger ({len(rep.records)} records):")
    print(f"  {'#':>2} {'class':<14} {'J':>10} {'index':>5} {'deg':>4}"
          f" {'range':>20} {'residual':>9}")
    for i, r in enumerate(rep.records):
        lo, hi = r.urange
        print(f"  {i:>2} {r.classification:<14} {r.energy:>10.5f}"
              f" {r.morse_index:>5} {r.local_degree:>+4d}"
              f"   [{lo:+.3f}, {hi:+.3f}] {r.residual:>9.1e}")

    out = pathlib.Path(__file__).parent / "out"
    rep.write(out)
    print(f"\nwrote report.json, summary.csv, profiles.svg to {out}/")


if __name__ == "__main__":
    main()
