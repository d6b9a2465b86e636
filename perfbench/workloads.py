"""The benchmark's workloads: their scenarios, one op, and its checks.

An op takes fresh scenarios from spec to stored artifact, the way a user
with a result store does: content-hash the spec, miss in the store, run
``ScenarioRunner``, serialise with ``ScenarioResult.to_dict`` and store
with ``ResultStore.put``. Why each workload exists is in ``README.md``.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.resilience import default_attack_scenario
from repro.scenarios import (
    ChurnSpec,
    EvolutionSpec,
    FeeSpec,
    GrowthSpec,
    Scenario,
    SimulationSpec,
    TopologySpec,
    WorkloadSpec,
)
from repro.scenarios.runner import ScenarioResult, ScenarioRunner
from repro.service import ResultStore, canonical_json

#: The seed the committed golden hashes were made with.
DEFAULT_SEED = 1
GOLDEN_PATH = Path(__file__).with_name("golden.json")

Golden = Mapping[str, Mapping[str, Sequence[Sequence[str]]]]


def simulate_ba1000(seed: int) -> Tuple[Scenario, ...]:
    """The ROADMAP hot path: Zipf trace generation plus batched replay."""
    return (
        Scenario(
            topology=TopologySpec("ba", {"n": 1000, "capacity_mu": 3.0}),
            workload=WorkloadSpec("poisson", {"zipf_s": 1.0}),
            fee=FeeSpec("linear", {"base": 0.01, "rate": 0.001}),
            simulation=SimulationSpec(horizon=10.0, backend="batched"),
            name="perfbench-simulate-ba1000",
            seed=seed,
        ),
    )


def evolve_ba200(seed: int) -> Tuple[Scenario, ...]:
    """The ``bench_evolution`` epoch loop at n=200 for 5 epochs.

    Arrivals are a fixed 5 per epoch (the bench's mean rate) rather than
    Poisson: a Poisson count moved the op cost by +-11% from seed to
    seed, which would swamp the benchmark's regression bound.
    """
    return (
        Scenario(
            topology=TopologySpec("ba", {"n": 200, "capacity_mu": 3.0}),
            workload=WorkloadSpec("poisson", {"rate": 0.05, "zipf_s": 1.0}),
            fee=FeeSpec("linear", {"base": 0.05, "rate": 0.01}),
            evolution=EvolutionSpec(
                epochs=5,
                growth=GrowthSpec("fixed", {
                    "per_epoch": 5,
                    "algorithm": "random-attach",
                    "params": {"k": 2, "lock": 1.0},
                }),
                churn=ChurnSpec("uniform", {"rate": 0.005}),
                utility="empirical",
                traffic_horizon=2.0,
                sample=2,
                mode="sampled",
                moves_per_node=6,
                edge_cost=0.01,
                patience=6,
                final_nash_check=False,
            ),
            name="perfbench-evolve-ba200",
            seed=seed,
        ),
    )


def attack_star64(seed: int) -> Tuple[Scenario, ...]:
    """Slow jamming on a 64-leaf star, event backend then batched."""
    scenario = default_attack_scenario(
        TopologySpec("star", {"leaves": 64, "balance": 10.0}),
        "slow-jamming",
        {"budget": 1000.0},
        horizon=40.0,
        seed=seed,
        name="perfbench-attack-star64",
    )
    return tuple(
        scenario.with_overrides({"simulation.backend": backend})
        for backend in ("event", "batched")
    )


def serve_point(seed: int) -> Tuple[Scenario, ...]:
    """One point of the daemon sweep: a small batched simulate."""
    return (
        Scenario(
            topology=TopologySpec("ba", {"n": 200, "capacity_mu": 3.0}),
            workload=WorkloadSpec("poisson", {"zipf_s": 1.0}),
            fee=FeeSpec("linear", {"base": 0.01, "rate": 0.001}),
            simulation=SimulationSpec(horizon=5.0, backend="batched"),
            name="perfbench-serve-sweep",
            seed=seed,
        ),
    )


SERVE = "serve-sweep"

#: Workload name -> the scenarios one op runs, from the op's seed.
SCENARIOS: Dict[str, Callable[[int], Tuple[Scenario, ...]]] = {
    "simulate-ba1000": simulate_ba1000,
    "evolve-ba200": evolve_ba200,
    "attack-star64": attack_star64,
    SERVE: serve_point,
}


class BenchmarkError(Exception):
    """An op did something no correct run does."""


def run_op(scenarios: Sequence[Scenario], store: ResultStore) -> List[Tuple[str, Any]]:
    """Spec to stored artifact for each scenario; returns ``(key, payload)``."""
    stored = []
    for scenario in scenarios:
        key = scenario.content_hash()
        if store.get(key) is not None:
            raise BenchmarkError(f"fresh scenario {key[:12]} was already stored")
        result = ScenarioRunner().run(scenario)
        stored.append((key, store.put(key, result.to_dict())))
    return stored


def lookup(scenarios: Sequence[Scenario], store: ResultStore) -> List[Any]:
    """The cached path: each scenario's payload straight from the store."""
    return [store.get(scenario.content_hash()) for scenario in scenarios]


# -- correctness ---------------------------------------------------------------


def canonical(document: Any) -> str:
    return canonical_json(document, allow_non_finite=True)


_CHANNEL_ID = re.compile(r"chan-\d+")


def artifact_hash(document: Mapping[str, Any]) -> str:
    """sha256 of the artifact's canonical JSON, channel ids renumbered.

    Channel ids come from a process-wide counter, so the same scenario
    gets ``chan-0..`` in a fresh process and ``chan-96..`` after another
    run. They are renumbered in order of first appearance in the graph's
    edge list, which keeps every other byte of the artifact in the hash.
    """
    graph = document.get("graph")
    if graph is not None:
        renumbered: Dict[str, str] = {}
        edges = []
        for edge in graph["edges"]:
            old = edge["channel_id"]
            if not _CHANNEL_ID.fullmatch(old):
                raise BenchmarkError(f"unexpected channel id {old!r}")
            edges.append({
                **edge,
                "channel_id": renumbered.setdefault(old, f"chan-{len(renumbered)}"),
            })
        document = {**document, "graph": {**graph, "edges": edges}}
    return hashlib.sha256(canonical(document).encode("utf-8")).hexdigest()


def load_golden() -> Dict[str, Any]:
    with GOLDEN_PATH.open(encoding="utf-8") as handle:
        return json.load(handle)


def golden_for(golden: Golden, workload: str, seed: int, index: int) -> Optional[List[str]]:
    """The committed hashes of op ``index`` of ``workload``, if any."""
    ops = golden.get(workload, {}).get(str(seed), [])
    return list(ops[index]) if index < len(ops) else None


def check_op(
    workload: str,
    seed: int,
    index: int,
    stored: Sequence[Any],
    served: Sequence[Any],
    golden: Golden,
) -> List[str]:
    """Everything wrong with op ``index``'s artifacts (empty when correct).

    ``stored`` are the payloads the op put, ``served`` what the cached
    path returned for the same specs.
    """
    problems = []
    expected = golden_for(golden, workload, seed, index)
    if expected is not None and [artifact_hash(doc) for doc in stored] != expected:
        problems.append("artifact hash differs from the golden hash")
    for doc in stored:
        if canonical(ScenarioResult.from_dict(doc).to_dict()) != canonical(doc):
            problems.append("ScenarioResult.from_dict(doc).to_dict() != doc")
    for doc, hit in zip(stored, served):
        if hit is None or canonical(hit) != canonical(doc):
            problems.append("cached payload is not byte-identical to the stored one")
    if workload == "attack-star64":
        event, batched = stored
        if canonical(event["attack"]) != canonical(batched["attack"]):
            problems.append("event and batched AttackReports differ")
    return problems


def simulated(documents: Sequence[Mapping[str, Any]]) -> Dict[str, int]:
    """Simulated statistics of an op's artifacts (not timings)."""
    attempted = succeeded = attacker = 0
    for doc in documents:
        for key in ("metrics", "baseline_metrics"):
            if doc.get(key) is not None:
                attempted += doc[key]["attempted"]
                succeeded += doc[key]["succeeded"]
        if doc.get("evolution") is not None:
            for record in doc["evolution"]["epochs"]:
                attempted += record["attempted"]
                succeeded += record["succeeded"]
        if doc.get("attack") is not None:
            attacker += doc["attack"]["attacks_launched"] + doc["attack"]["attacks_held"]
    return {"payments": attempted, "succeeded": succeeded, "attacker_htlcs": attacker}
