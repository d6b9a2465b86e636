"""Seeded Zipf traces are pinned byte for byte.

The digests below were computed with the per-sender ranking loop and
``Generator.choice`` sampling that preceded the shared ranker and the
CDF draw path. A change to ranking, tie breaking or the draw path that
moves a single draw fails here. The rows themselves are checked float
for float against a reference ranking in ``tests/property/test_prop_ranker.py``
(a digest of row floats would depend on the interpreter's ``sum``).
"""

import hashlib

import numpy as np
import pytest

from repro.network.graph import ChannelGraph
from repro.snapshots.synthetic import barabasi_albert_snapshot
from repro.transactions.sizes import TruncatedExponentialSizes
from repro.transactions.workload import PoissonWorkload
from repro.transactions.zipf import ModifiedZipf


def _parallel_graph() -> ChannelGraph:
    """Parallel channels, a pendant node and an isolated-by-rate sender."""
    graph = ChannelGraph()
    edges = [
        ("a", "b"), ("a", "b"), ("a", "b"), ("a", "c"), ("b", "c"),
        ("c", "d"), ("c", "d"), ("d", "e"), ("e", "f"), ("f", "a"),
        ("f", "g"), ("g", "h"), ("h", "a"), ("h", "a"), ("b", "h"),
    ]
    for u, v in edges:
        graph.add_channel(u, v, 1.0, 1.0)
    return graph


def _colliding_graph() -> ChannelGraph:
    """Nodes whose ``str`` collide (``1`` and ``"1"``), all tied in degree."""
    graph = ChannelGraph()
    ring = [1, "1", 2, "2", 3, "3", 10, "10"]
    for u, v in zip(ring, ring[1:] + ring[:1]):
        graph.add_channel(u, v, 1.0, 1.0)
    graph.add_channel(1, 2, 1.0, 1.0)
    graph.add_channel("1", "2", 1.0, 1.0)
    return graph


def _rates(graph: ChannelGraph):
    # Uneven rates with one silent sender exercise the sender CDF.
    nodes = list(graph.nodes)
    rates = {node: 1.0 + (i % 7) * 0.25 for i, node in enumerate(nodes)}
    rates[nodes[1]] = 0.0
    return rates


def _trace_digest(graph: ChannelGraph, s: float, seed: int, horizon: float) -> str:
    workload = PoissonWorkload(
        ModifiedZipf(graph, s=s),
        _rates(graph),
        sizes=TruncatedExponentialSizes(scale=0.5, high=4.0),
        seed=seed,
    )
    trace = workload.generate_trace(horizon, graph.nodes)
    digest = hashlib.sha256()
    for column in (trace.times, trace.senders, trace.receivers, trace.amounts):
        digest.update(np.ascontiguousarray(column).tobytes())
    return f"{len(trace)}:{digest.hexdigest()[:32]}"


@pytest.fixture(scope="module")
def ba200() -> ChannelGraph:
    return barabasi_albert_snapshot(200, seed=7)


@pytest.mark.parametrize(
    "s, expected",
    [
        (0.0, "2900:a824b0c6cbef65d9673306dc87d5c392"),
        (1.0, "2900:dfd3191b11f5b39932da205f76791f08"),
        (2.0, "2900:f570166e951e225e1f7f85462b3fc6e9"),
    ],
)
def test_ba200_trace_digest(ba200, s, expected):
    assert _trace_digest(ba200, s, seed=11, horizon=8.0) == expected


def test_parallel_channel_trace_digest():
    assert _trace_digest(_parallel_graph(), 1.3, seed=5, horizon=300.0) == (
        "3590:3924ba4caf00ee19b7c91dff27bde371"
    )


def test_colliding_str_trace_digest():
    assert _trace_digest(_colliding_graph(), 1.0, seed=3, horizon=300.0) == (
        "3649:c065a0ca428cab319068320077794b06"
    )
