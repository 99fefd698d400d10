"""Record the reports and work counts that ``run.py`` checks against.

    PYTHONPATH=src python3 benchmarks/record.py

Runs one traced pass per workload (for ``large-nosweep``, one per corpus any
seed can draw) and writes the report digests, the set of inconsistent claims
and the work counts to ``benchmarks/expected.json``.  Run it only on a commit
whose reports are known good: every later benchmark run must reproduce them
byte for byte.
"""

from __future__ import annotations

import itertools
import json
import platform
from pathlib import Path

import numpy
import scipy

from traced import traced_verify
from workloads import LARGE_FIXED, LARGE_POOLS, expected_key, workload_inputs

HERE = Path(__file__).resolve().parent


def main() -> None:
    cases = [(name, *workload_inputs(name, 0)) for name in ("stock-sweep", "stock-nosweep")]
    _, claims = workload_inputs("large-nosweep", 0)
    for drawn in itertools.product(*LARGE_POOLS):
        cases.append(("large-nosweep", [*drawn, *LARGE_FIXED], claims))
    recorded = {}
    for name, corpus, claim_ids in cases:
        sidecar = traced_verify(corpus, claim_ids)
        recorded[expected_key(name, corpus)] = {
            key: sidecar[key] for key in ("json_sha256", "csv_sha256", "inconsistent_claims", "counts")
        }
        print(f"{expected_key(name, corpus)}: {sidecar['total_s']:.2f} s", flush=True)
    document = {
        "software": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "workloads": recorded,
    }
    (HERE / "expected.json").write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
