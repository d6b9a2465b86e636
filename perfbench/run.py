"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload simulate-ba1000 --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed,
in reference seconds scaled by a speed probe (see ``probe.py``);
``--trace 1`` reports per-layer metrics from a traced run. The last line
of standard output is ``{"correct", "attempted", "failed", "metrics"}``.
The program under test is the ``src/`` tree of the checkout this file
sits in; without it the run fails. Scratch stores and span dumps go to
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("simulate-ba1000", "evolve-ba200", "attack-star64", "serve-sweep")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    os.environ.pop("REPRO_OBS", None)
    # One core for this process and every process it starts (see probe.py).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"error: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from perfbench import bench
    from perfbench.workloads import load_golden

    golden = load_golden()
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".perfbench"))
    try:
        if args.trace:
            run = bench.traced(args.workload, args.seed, golden, scratch)
            units = bench.PER_LAYER
            dump = ROOT / ".perfbench" / "spans" / f"{args.workload}-seed{args.seed}"
            for number, tracer in enumerate(run["tracers"]):
                tracer.dump(dump.with_name(f"{dump.name}-{number}.jsonl"))
        else:
            run = bench.timed(args.workload, args.seed, args.seconds, golden, ROOT, scratch)
            units = bench.END_TO_END
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for problem in run["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {
            name: {"value": run["metrics"][name], "unit": unit} for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
