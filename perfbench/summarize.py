#!/usr/bin/env python3
"""Median, quartiles and spread of each metric over a set of result files.

    python3 perfbench/summarize.py perfbench/out/pair-chase-seed*-trace0.json
    python3 perfbench/summarize.py --json perfbench/baseline/BASELINE.json perfbench/out/*.json

Result files are grouped by workload and trace mode. The spread is the
distance between the first and third quartile (`statistics.quantiles`,
n=4) as a share of the median, the figure each end-to-end bound in
BENCHMARK.json is compared with.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path


def summarize(paths):
    groups = defaultdict(list)
    for path in paths:
        result = json.loads(Path(path).read_text())
        groups[(result["workload"], result["trace"])].append(result)
    out = {}
    for (workload, trace), results in sorted(groups.items()):
        rows = {}
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            rows[name] = {"median": med, "q1": q1, "q3": q3, "unit": first["unit"],
                          "spread": (q3 - q1) / abs(med) if med else 0.0}
        out[f"{workload}/trace{trace}"] = {
            "runs": len(results),
            "seconds": results[0]["seconds"],
            "seeds": sorted(r["seed"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "environment": results[0]["environment"],
            "metrics": rows,
        }
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("results", nargs="+")
    parser.add_argument("--json", help="also write the summary to this file")
    args = parser.parse_args(argv)
    summary = summarize(args.results)
    for group, body in summary.items():
        print(f"{group}: {body['runs']} runs, {body['failed']}/{body['attempted']} failed")
        for name, row in body["metrics"].items():
            print(f"  {name:44s} median {row['median']:<12.6g} spread {row['spread']:.4f} "
                  f"{row['unit']}")
    if args.json:
        Path(args.json).parent.mkdir(parents=True, exist_ok=True)
        Path(args.json).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
