"""Summarise ``run.py`` results into one BENCH file.

    python3 benchmarks/summarize.py OUT.json .bench_out/*.result.json

For each workload: the seeds run, and per metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of the
median; end-to-end metrics from the ``--trace 0`` results, per-layer metrics
from the ``--trace 1`` results.  The machine of the first result is recorded.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "runs": len(values),
    }


def main(argv: list[str]) -> int:
    out, paths = Path(argv[0]), [Path(p) for p in argv[1:]]
    results = [json.loads(p.read_text()) for p in sorted(paths)]
    workloads: dict = defaultdict(lambda: {"seeds": defaultdict(list), "failed_runs": 0,
                                           "metrics": defaultdict(list)})
    for result in results:
        entry = workloads[result["workload"]]
        key = "per_layer" if result["trace"] else "end_to_end"
        entry["seeds"][key].append(result["seed"])
        entry["failed_runs"] += not result["correct"]
        for name, metric in result["metrics"].items():
            entry["metrics"][(key, name, metric["unit"])].append(metric["value"])
    document = {"machine": results[0]["machine"], "workloads": {}}
    for workload, entry in sorted(workloads.items()):
        row = {"seeds": {k: sorted(v) for k, v in entry["seeds"].items()},
               "failed_runs": entry["failed_runs"],
               "end_to_end": {}, "per_layer": {}}
        for (key, name, unit), values in entry["metrics"].items():
            row[key][name] = {"unit": unit, **summarize(values)}
        document["workloads"][workload] = row
        for name, stats in row["end_to_end"].items():
            print(f"{workload:<15} {name:<14} median {stats['median']:10.4f} {stats['unit']:<4} "
                  f"q1 {stats['q1']:10.4f} q3 {stats['q3']:10.4f} spread {stats['spread']:.4f} "
                  f"({stats['runs']} runs)")
    out.write_text(json.dumps(document, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
