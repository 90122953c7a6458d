"""Median and quartile spread of each metric over several benchmark runs.

    python3 perfbench/summarize.py runs.jsonl [more.jsonl ...]

Each input line is the last line that run.py printed.  The spread is the
distance between the first and third quartiles as a share of the median,
with quartiles as `statistics.quantiles(values, n=4)` gives them.
"""

import json
import statistics
import sys


def summarize(lines) -> dict:
    results = [json.loads(line) for line in lines if line.strip()]
    out = {"runs": len(results),
           "all_correct": all(r["correct"] for r in results),
           "metrics": {}}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out["metrics"][name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
        }
    return out


def main(paths) -> int:
    for path in paths:
        with open(path) as fh:
            s = summarize(fh)
        print(f"{path}: {s['runs']} runs, all correct: {s['all_correct']}")
        for name, m in s["metrics"].items():
            print(f"  {name:36s} median {m['median']:<12.6g} {m['unit']:6s} "
                  f"q1 {m['q1']:<12.6g} q3 {m['q3']:<12.6g} spread {m['spread']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
