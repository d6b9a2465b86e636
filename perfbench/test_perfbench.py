"""Tests of the benchmark's own arithmetic and correctness gate."""

from __future__ import annotations

import json
import threading
from pathlib import Path

import pytest

from repro.scenarios import (
    FeeSpec,
    Scenario,
    ScenarioRunner,
    SimulationSpec,
    TopologySpec,
    WorkloadSpec,
    derive_seed,
)

from perfbench import bench, probe, spans, workloads
from perfbench.run import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


class ManualClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_children_once() -> None:
    spans_ = [
        ["op", -1, 0.0, 10.0],
        ["a", 0, 1.0, 4.0],
        ["a1", 1, 2.0, 3.0],
        ["b", 0, 5.0, 8.0],
        # A child on another thread, overlapping its sibling and running
        # past its parent's end: covered time counts once, clipped.
        ["c", 0, 7.0, 10.5],
    ]
    assert spans.self_times(spans_) == pytest.approx(
        {"op": 10.0 - 3.0 - 5.0, "a": 2.0, "a1": 1.0, "b": 3.0, "c": 3.5}
    )


def test_tracer_nests_spans_by_thread_and_ambient_parent() -> None:
    clock = ManualClock()
    tracer = spans.Tracer(clock)
    op = tracer.begin("op")
    clock.now = 1.0
    inner = tracer.begin("layer")
    clock.now = 3.0
    tracer.end(inner)
    tracer.ambient = op
    clock.now = 4.0
    # Opened on a thread with nothing open: parented to the ambient span.
    worker = threading.Thread(target=lambda: tracer.end(tracer.begin("remote")))
    worker.start()
    worker.join(10)
    assert not worker.is_alive()
    clock.now = 6.0
    tracer.end(op)
    assert [span[1] for span in tracer.spans] == [-1, 0, 0]
    assert spans.self_times(tracer.spans) == {"op": 4.0, "layer": 2.0, "remote": 0.0}


def test_installed_wrappers_are_removed() -> None:
    from repro.network.graph import ChannelGraph
    from repro.scenarios import runner

    originals = (ChannelGraph.__dict__["view"], runner.build_topology)
    with spans.installed(spans.Tracer()):
        assert runner.build_topology is not originals[1]
    assert (ChannelGraph.__dict__["view"], runner.build_topology) == originals


def _tiny(seed: int):
    return (
        Scenario(
            topology=TopologySpec("star", {"leaves": 4, "balance": 5.0}),
            workload=WorkloadSpec("poisson", {"zipf_s": 1.0}),
            fee=FeeSpec("linear", {"base": 0.01, "rate": 0.001}),
            simulation=SimulationSpec(horizon=2.0, backend="batched"),
            name="perfbench-tiny",
            seed=seed,
        ),
    )


@pytest.fixture
def tiny_workload(monkeypatch):
    monkeypatch.setitem(workloads.SCENARIOS, "tiny", _tiny)
    (scenario,) = _tiny(derive_seed(1, 0))
    return workloads.artifact_hash(ScenarioRunner().run(scenario).to_dict())


def test_golden_hash_passes_and_tampered_hash_fails_the_op(tiny_workload, tmp_path) -> None:
    good = {"tiny": {"1": [[tiny_workload]]}}
    run = bench._timed_inprocess("tiny", 1, 0.0, good, tmp_path)
    assert (run["attempted"], run["failed"]) == (1, 0)

    tampered = {"tiny": {"1": [["0" * 64]]}}
    run = bench._timed_inprocess("tiny", 1, 0.0, tampered, tmp_path)
    assert (run["attempted"], run["failed"]) == (1, 1)
    assert "golden" in run["problems"][0]


def test_traced_runs_must_agree_on_counts() -> None:
    def run(calls: int):
        tracer = spans.Tracer(ManualClock())
        tracer.end(tracer.begin(spans.OP_SPAN))
        for _ in range(calls):
            tracer.end(tracer.begin("transactions.ranking"))
        return {
            "tracer": tracer, "seconds": 1.0, "ops": 1,
            "documents": [{"metrics": {"attempted": 10, "succeeded": 9}}],
            "queue_wait_s": 0.0, "cache_hit_ratio": 0.5,
        }

    _, problems = bench.layer_metrics(1.0, 1, [run(3), run(3)])
    assert problems == []
    _, problems = bench.layer_metrics(1.0, 1, [run(3), run(4)])
    assert problems == ["traced runs of one seed differ in spans"]


def test_benchmark_json_matches_the_runner() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert list(WORKLOADS) == list(workloads.SCENARIOS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER


def test_reference_seconds_scale_by_the_chunks_around_each_op() -> None:
    # Chunks take 2 ms until t=10, then 4 ms: the host got twice as slow.
    samples = [(t / 10, 0.002 if t < 100 else 0.004) for t in range(200)]
    costs = [
        probe.Cost(1.0, 5.0, 3.0),  # 40 fast samples inside
        probe.Cost(12.0, 18.0, 6.0),  # 60 slow samples inside
        probe.Cost(5.01, 5.02, 0.01),  # none inside: the 9 nearest, all fast
        probe.Cost(30.0, 31.0, 1.0),  # after the last sample: the 9 last
    ]
    scaled = probe.reference_seconds(costs, samples)
    ref = probe.REF_CHUNK_S
    assert scaled == pytest.approx(
        [3.0 * ref / 0.002, 6.0 * ref / 0.004, 0.01 * ref / 0.002, 1.0 * ref / 0.004]
    )
    with pytest.raises(RuntimeError):
        probe.reference_seconds(costs, samples[:3])
