#!/usr/bin/env python
"""Old-vs-new graph-core benchmark: networkx paths against CSR views.

Times the two workloads the view redesign targets, on BA snapshots:

* **pair_weighted_betweenness** — the single hottest loop in the codebase
  (Eq. 2/Eq. 3): legacy dict-of-dict Brandes on an ``nx.DiGraph`` vs the
  all-sources numpy sweep on a :class:`~repro.network.views.GraphView`
  (one code path at every graph size).
* **greedy_join** — Algorithm 1 end-to-end through
  :class:`~repro.core.utility.JoiningUserModel`, ``backend="networkx"``
  vs ``backend="views"`` (fixed-rate revenue mode, the Thm 4 regime).

Every timing pair also records the maximum absolute result gap, so the
speedup numbers are backed by a parity proof in the same JSON.

Run:
    PYTHONPATH=src python benchmarks/perf/bench_graphcore.py
    PYTHONPATH=src python benchmarks/perf/bench_graphcore.py --smoke

Writes ``BENCH_graphcore.json`` (see ``--output``).
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from typing import Callable, Dict, List

from repro import __version__
from repro.core.algorithms.greedy import greedy_fixed_funds
from repro.core.utility import JoiningUserModel
from repro.network.betweenness import pair_weighted_betweenness
from repro.params import ModelParameters
from repro.snapshots import barabasi_albert_snapshot

FULL_SIZES = (100, 500, 1000)
# Betweenness has one numpy path at every size. Smoke runs n=100, which
# has a committed full-run row for gate.py to compare against, and n=200,
# the size the evolution benchmarks start from.
SMOKE_SIZES = (100, 200)
SEED = 7


def _time(fn: Callable[[], object], min_repeats: int, budget: float):
    """Best-of timing: repeat until ``budget`` seconds or ``min_repeats``."""
    times: List[float] = []
    result = None
    while len(times) < min_repeats or sum(times) < budget:
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
        if len(times) >= 50:
            break
    return min(times), len(times), result


def bench_betweenness(n: int, budget: float) -> Dict[str, object]:
    graph = barabasi_albert_snapshot(n, seed=SEED)
    view = graph.view(directed=True)
    digraph = view.to_networkx()
    old_seconds, old_reps, old_result = _time(
        lambda: pair_weighted_betweenness(digraph), 3, budget
    )
    new_seconds, new_reps, new_result = _time(
        lambda: pair_weighted_betweenness(view), 3, budget
    )
    gap = max(
        abs(old_result.node[node] - new_result.node[node])
        for node in old_result.node
    )
    edge_gap = max(
        abs(old_result.edge.get(e, 0.0) - new_result.edge.get(e, 0.0))
        for e in set(old_result.edge) | set(new_result.edge)
    )
    return {
        "workload": "pair_weighted_betweenness",
        "n": n,
        "old_seconds": old_seconds,
        "new_seconds": new_seconds,
        "speedup": old_seconds / new_seconds,
        "repeats": {"old": old_reps, "new": new_reps},
        "parity_max_abs_gap": max(gap, edge_gap),
    }


def bench_greedy(n: int, budget: float) -> Dict[str, object]:
    graph = barabasi_albert_snapshot(n, seed=SEED)
    params = ModelParameters(
        onchain_cost=0.5, total_tx_rate=10.0 * n, user_tx_rate=5.0
    )

    def run(backend: str):
        model = JoiningUserModel(
            graph, "joiner", params,
            revenue_mode="fixed-rate", backend=backend,
        )
        return greedy_fixed_funds(model, budget=3.0, lock=1.0)

    old_seconds, old_reps, old_result = _time(lambda: run("networkx"), 1, budget)
    new_seconds, new_reps, new_result = _time(lambda: run("views"), 1, budget)
    return {
        "workload": "greedy_join",
        "n": n,
        "old_seconds": old_seconds,
        "new_seconds": new_seconds,
        "speedup": old_seconds / new_seconds,
        "repeats": {"old": old_reps, "new": new_reps},
        "parity_max_abs_gap": abs(
            old_result.objective_value - new_result.objective_value
        ),
        "strategies_identical": (
            old_result.strategy.actions == new_result.strategy.actions
        ),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small sizes only, minimal repeats (CI regression guard)",
    )
    parser.add_argument(
        "--output", default="BENCH_graphcore.json",
        help="where to write the results JSON",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=None,
        help="exit non-zero if any pair_weighted_betweenness speedup "
        "falls below this (CI regression guard for the view cache)",
    )
    args = parser.parse_args()
    sizes = SMOKE_SIZES if args.smoke else FULL_SIZES
    budget = 0.2 if args.smoke else 1.0

    results = []
    for n in sizes:
        for bench in (bench_betweenness, bench_greedy):
            row = bench(n, budget)
            results.append(row)
            print(
                f"{row['workload']:28s} n={row['n']:<5d} "
                f"old={row['old_seconds']*1e3:9.2f}ms "
                f"new={row['new_seconds']*1e3:9.2f}ms "
                f"speedup={row['speedup']:6.2f}x "
                f"gap={row['parity_max_abs_gap']:.2e}"
            )

    document = {
        "benchmark": "graphcore",
        "version": __version__,
        "mode": "smoke" if args.smoke else "full",
        "seed": SEED,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "results": results,
    }
    with open(args.output, "w") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.output}")

    if args.min_speedup is not None:
        slow = [
            row for row in results
            if row["workload"] == "pair_weighted_betweenness"
            and row["speedup"] < args.min_speedup
        ]
        if slow:
            raise SystemExit(
                f"speedup regression: {slow} below {args.min_speedup}x"
            )


if __name__ == "__main__":
    main()
