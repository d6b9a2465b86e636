"""Regenerate ``golden.json``: artifact hashes of the default seed's ops.

    PYTHONPATH=src python3 -m perfbench.golden

Run it only when a change is meant to alter results; the benchmark
counts every op whose artifact no longer matches as failed.
"""

from __future__ import annotations

import json
import sys

from repro.scenarios import ScenarioRunner, derive_seed

from .workloads import DEFAULT_SEED, GOLDEN_PATH, SCENARIOS, artifact_hash

#: Ops per workload with a golden hash; more than a run makes.
GOLDEN_OPS = {"simulate-ba1000": 8, "evolve-ba200": 10, "attack-star64": 16, "serve-sweep": 150}


def main() -> int:
    golden = {}
    for workload, count in GOLDEN_OPS.items():
        ops = []
        for index in range(count):
            scenarios = SCENARIOS[workload](derive_seed(DEFAULT_SEED, index))
            ops.append([
                artifact_hash(ScenarioRunner().run(scenario).to_dict())
                for scenario in scenarios
            ])
            print(f"{workload} op {index}", file=sys.stderr)
        golden[workload] = {str(DEFAULT_SEED): ops}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
