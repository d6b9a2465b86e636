"""Timed and traced runs of one workload, and the metrics they report.

Timed runs (``--trace 0``) install no tracing and report the end-to-end
metrics: CPU seconds scaled to a reference core by a speed probe that
runs beside the ops on their core (see ``probe.py``). Traced runs
(``--trace 1``) run op 0 once untraced and twice traced, and report
per-layer self times and counts per op; the two traced runs must agree
on every count.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro.obs.clock import monotonic
from repro.scenarios import derive_seed
from repro.service import ResultStore

from . import serve, spans
from .probe import MIN_SAMPLE_S, Cost, Probe, now, reference_seconds
from .workloads import (
    SCENARIOS,
    SERVE,
    Golden,
    artifact_hash,
    check_op,
    lookup,
    run_op,
    simulated,
)

#: End-to-end metrics (timed runs) and their units.
END_TO_END = {"op_s": "s", "cached_op_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

#: Per-layer self time (seconds per op) -> span name.
LAYER_SELF = {
    "snapshots.build_s": "snapshots.build",
    "transactions.trace_s": "transactions.trace",
    "transactions.ranking_s": "transactions.ranking",
    "simulation.replay_s": "simulation.replay",
    "network.view_s": "network.view",
    "network.route_s": "network.route",
    "network.htlc_s": "network.htlc",
    "network.betweenness_s": "network.betweenness",
    "core.join_model_s": "core.join_model",
    "equilibrium.best_response_s": "equilibrium.best_response",
    "evolution.join_s": "evolution.join",
    "attacks.strategy_s": "attacks.strategy",
    "service.serialise_s": "service.serialise",
    "service.store_put_s": "service.store_put",
    "service.store_get_s": "service.store_get",
    "service.hash_s": "service.hash",
    "service.client_s": "service.client",
}

#: Per-layer call counts (per op) -> span name.
LAYER_CALLS = {
    "transactions.ranking_calls": "transactions.ranking",
    "network.htlc_ops": "network.htlc",
    "network.betweenness_calls": "network.betweenness",
    "core.join_models": "core.join_model",
}

#: Per-layer metrics (traced runs) and their units.
PER_LAYER = {
    **{name: "s" for name in LAYER_SELF},
    **{name: "count" for name in LAYER_CALLS},
    "network.view_builds": "count",
    "simulation.payments": "count",
    "simulation.success_ratio": "ratio",
    "attacks.attacker_htlcs": "count",
    "service.queue_wait_s": "s",
    "service.cache_hit_ratio": "ratio",
    "obs.unattributed_ratio": "ratio",
    "obs.trace_overhead_ratio": "ratio",
}

#: Fresh interpreters (or daemons) started per timed run for ``setup_s``.
SETUP_REPEATS = 3
#: Cached-lookup samples per in-process op; one lookup can take a few
#: milliseconds, so each sample times ``MIN_SAMPLE_S`` of them.
CACHED_SAMPLES = 40

_SETUP_CODE = (
    "import sys, time\n"
    "from perfbench import workloads\n"
    "workloads.ResultStore(sys.argv[1])\n"
    "print('ready', repr(time.process_time()), flush=True)\n"
)


def child_env(root: Path) -> Dict[str, str]:
    """Environment for child interpreters: this checkout's code, obs off."""
    env = dict(os.environ)
    env.pop("REPRO_OBS", None)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
    return env


def setup_costs(env: Mapping[str, str], root: Path, scratch: Path) -> List[Cost]:
    """Fresh interpreter -> imports, providers and an open store, each time.

    The cost is the interpreter's own CPU seconds when it is ready.
    """
    costs = []
    for _ in range(SETUP_REPEATS):
        store = tempfile.mkdtemp(dir=scratch)
        began = now()
        proc = subprocess.Popen(
            [sys.executable, "-c", _SETUP_CODE, store],
            stdout=subprocess.PIPE, text=True, env=dict(env), cwd=str(root),
        )
        line = proc.stdout.readline() if proc.stdout else ""
        ended = now()
        proc.communicate(timeout=60)
        word, _, cpu_s = line.partition(" ")
        if word != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed: {line!r}")
        costs.append(Cost(began, ended, float(cpu_s)))
    return costs


def timed(
    workload: str, seed: int, seconds: float, golden: Golden, root: Path, scratch: Path
) -> Dict[str, Any]:
    """Closed loop of ops until ``seconds`` would be overrun, probe alongside.

    Every figure is CPU seconds in reference seconds (see ``probe.py``);
    the caller has pinned this process, so its children share its core.
    """
    start = monotonic()
    env = child_env(root)
    with Probe(scratch / "probe.log", env, root) as speed:
        if workload == SERVE:
            run = serve.timed(
                seed, seconds - (monotonic() - start), golden, env, root, scratch, SETUP_REPEATS
            )
        else:
            setup = setup_costs(env, root, scratch)
            run = _timed_inprocess(workload, seed, seconds - (monotonic() - start), golden, scratch)
            run["setup"] = setup
        samples = speed.settle()
    if not run["op"]:
        raise SystemExit(f"{workload}: every op failed: {run['problems'][:3]}")
    metrics = {
        name: statistics.median(reference_seconds(run[key], samples))
        for name, key in (("op_s", "op"), ("cached_op_s", "cached"), ("setup_s", "setup"))
    }
    metrics["peak_rss_mb"] = run["rss_mb"]
    chunk = statistics.median(spent for _, spent in samples)
    print(f"{workload}: {len(run['op'])} ops; median op CPU "
          f"{statistics.median(cost.cpu_s for cost in run['op']):.4f} s; "
          f"median probe chunk {chunk * 1e3:.3f} ms", file=sys.stderr)
    return {**run, "metrics": metrics, "samples": len(run["op"])}


def _timed_inprocess(
    workload: str, seed: int, seconds: float, golden: Golden, scratch: Path
) -> Dict[str, Any]:
    """Ops until the next would end past ``seconds``; at least one."""
    make = SCENARIOS[workload]
    store = ResultStore(tempfile.mkdtemp(dir=scratch))
    op_costs: List[Cost] = []
    cached_costs: List[Cost] = []
    failed = 0
    problems: List[str] = []
    rss_mb = 0.0
    start = monotonic()
    index = 0
    while True:
        scenarios = make(derive_seed(seed, index))
        try:
            gc.collect()  # each op and lookup starts from the same heap state
            began, cpu = now(), time.process_time()
            stored = run_op(scenarios, store)
            op_costs.append(Cost(began, now(), time.process_time() - cpu))
            cpu = time.process_time()
            served = lookup(scenarios, store)
            batch = math.ceil(MIN_SAMPLE_S / max(time.process_time() - cpu, 1e-6))
            for _ in range(CACHED_SAMPLES):
                gc.collect()
                began, cpu = now(), time.process_time()
                for _ in range(batch):
                    lookup(scenarios, store)
                cached_costs.append(Cost(began, now(), (time.process_time() - cpu) / batch))
            found = check_op(workload, seed, index, [doc for _, doc in stored], served, golden)
            if index == 0:
                rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        except Exception as exc:  # a failing op is counted, not fatal
            found = [f"{type(exc).__name__}: {exc}"]
        if found:
            failed += 1
            problems += [f"op {index}: {problem}" for problem in found]
        index += 1
        elapsed = monotonic() - start
        if elapsed + elapsed / index > seconds:
            break
    return {
        "op": op_costs, "cached": cached_costs, "attempted": index,
        "rss_mb": rss_mb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed": failed, "problems": problems,
    }


def traced(workload: str, seed: int, golden: Golden, scratch: Path) -> Dict[str, Any]:
    """Per-layer metrics from one untraced and two traced runs of op 0."""
    if workload == SERVE:
        run = serve.traced(seed, golden, scratch)
    else:
        run = _traced_inprocess(workload, seed, golden, scratch)
    metrics, problems = layer_metrics(run["untraced_s"], run["untraced_ops"], run["runs"])
    # A disagreement between the two traced runs fails the second one.
    failed = run["failed"] + sum(trace["failed"] for trace in run["runs"]) + bool(problems)
    return {
        "metrics": metrics,
        "problems": problems + run["problems"]
        + [p for trace in run["runs"] for p in trace["problems"]],
        "attempted": run["untraced_ops"] + sum(trace["ops"] for trace in run["runs"]),
        "failed": failed,
        "tracers": [trace["tracer"] for trace in run["runs"]],
    }


def _traced_inprocess(
    workload: str, seed: int, golden: Golden, scratch: Path
) -> Dict[str, Any]:
    scenarios = SCENARIOS[workload](derive_seed(seed, 0))

    def one_op(store: ResultStore) -> Tuple[List[Any], List[Any]]:
        stored = [doc for _, doc in run_op(scenarios, store)]
        return stored, lookup(scenarios, store)

    store = ResultStore(tempfile.mkdtemp(dir=scratch))
    began = monotonic()
    untraced = one_op(store)
    untraced_s = monotonic() - began
    problems = check_op(workload, seed, 0, *untraced, golden)
    runs = []
    for _ in range(2):
        tracer = spans.Tracer()
        store = ResultStore(tempfile.mkdtemp(dir=scratch))
        with spans.installed(tracer):
            (stored, served), seconds = spans.op(tracer, lambda s=store: one_op(s))
        found = check_op(workload, seed, 0, stored, served, golden)
        if [artifact_hash(doc) for doc in stored] != [artifact_hash(doc) for doc in untraced[0]]:
            found.append("traced and untraced runs stored different artifacts")
        runs.append({
            "tracer": tracer, "seconds": seconds, "ops": 1,
            "failed": int(bool(found)), "problems": found, "documents": stored,
            "queue_wait_s": 0.0,
            "cache_hit_ratio": sum(hit is not None for hit in served)
            / (len(stored) + len(served)),
        })
    return {
        "untraced_s": untraced_s, "untraced_ops": 1, "runs": runs,
        "failed": int(bool(problems)), "problems": problems,
    }


def layer_metrics(
    untraced_s: float, untraced_ops: int, runs: Sequence[Mapping[str, Any]]
) -> Tuple[Dict[str, float], List[str]]:
    """Per-op layer metrics of two traced runs of the same ops.

    Self times are averaged over both runs; counts come from the first
    and must equal the second's exactly.
    """
    first, second = runs
    summaries = [spans.summary(run["tracer"]) for run in runs]
    problems = []
    for key in ("spans", "counts"):
        if summaries[0][key] != summaries[1][key]:
            problems.append(f"traced runs of one seed differ in {key}")
    hashes = [[artifact_hash(doc) for doc in run["documents"]] for run in runs]
    if hashes[0] != hashes[1]:
        problems.append("traced runs of one seed stored different artifacts")
    if {first["cache_hit_ratio"], second["cache_hit_ratio"]} != {0.5}:
        problems.append("the cache hit ratio of a miss-then-hit sweep is not 0.5")

    ops = first["ops"] + second["ops"]
    self_s: Counter = Counter()
    for summary in summaries:
        self_s.update(summary["self"])
    calls = summaries[0]["spans"]
    stats = simulated(first["documents"])
    traced_s = first["seconds"] + second["seconds"]
    metrics = {name: self_s[span] / ops for name, span in LAYER_SELF.items()}
    metrics.update({name: calls.get(span, 0) / first["ops"] for name, span in LAYER_CALLS.items()})
    metrics.update({
        "network.view_builds": summaries[0]["counts"].get("network.view_build", 0) / first["ops"],
        "simulation.payments": stats["payments"] / first["ops"],
        "simulation.success_ratio": stats["succeeded"] / stats["payments"],
        "attacks.attacker_htlcs": stats["attacker_htlcs"] / first["ops"],
        "service.queue_wait_s": (first["queue_wait_s"] + second["queue_wait_s"]) / 2,
        "service.cache_hit_ratio": first["cache_hit_ratio"],
        "obs.unattributed_ratio": self_s[spans.OP_SPAN] / traced_s,
        "obs.trace_overhead_ratio": (traced_s / ops) / (untraced_s / untraced_ops),
    })
    return metrics, problems
