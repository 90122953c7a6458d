"""Write the golden record set of each workload.

Solves every workload once per seed and refuses to write a golden file
unless every seed gives the same balanced record multiset, so one file
serves every seed the benchmark is given.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/make_golden.py

Run it only when the expected result itself changes; the benchmark judges
every later commit against these files.
"""

from __future__ import annotations

import json
import sys

import neucrit as nc

import workloads

SEEDS = (0, 1, 7, 42)


def main() -> int:
    status = 0
    for name in workloads.WHY:
        first = None
        for seed in SEEDS:
            report = nc.run_pipeline(workloads.config(name, seed))
            records = workloads.summarize(report)
            problems = [] if report.ok and report.deficiency == 0 else [
                f"errors={sorted(report.errors)} deficiency={report.deficiency}"]
            if first is None:
                first = records
            else:
                problems += workloads.compare_records(records, first)
            for p in problems:
                print(f"{name} seed {seed}: {p}", file=sys.stderr)
            if problems:
                status = 1
                break
            print(f"{name} seed {seed}: {len(records)} records, balanced")
        else:
            path = workloads.GOLDEN_DIR / f"{name}.json"
            path.parent.mkdir(exist_ok=True)
            with open(path, "w") as fh:
                json.dump({"workload": name, "neucrit_version": nc.__version__,
                           "seeds_checked": list(SEEDS), "records": first}, fh, indent=1)
                fh.write("\n")
            print(f"wrote {path}")
    return status


if __name__ == "__main__":
    sys.exit(main())
