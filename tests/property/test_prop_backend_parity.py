"""Property-based tests: the event and batched backends agree exactly.

For any connected simple graph, balances, HTLC slot caps and payment
trace, the batched backend must reproduce the event engine's metrics
document and leave every channel with the same balances, in both
payment modes and under every route-selection option. Small graphs
exercise the python BFS branch; one fixed larger graph exercises the
numpy branch (``SMALL_GRAPH_NODES`` and up).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.fees import LinearFee
from repro.network.graph import ChannelGraph
from repro.network.views import SMALL_GRAPH_NODES
from repro.simulation.engine import SimulationEngine
from repro.simulation.fastpath import BatchedSimulationEngine
from repro.transactions.workload import Transaction

#: Few distinct sizes relative to the balances, so channels deplete and
#: payments fail for capacity, split balances and (htlc) full slots.
AMOUNTS = (0.5, 1.0, 2.0)
BALANCES = (0.0, 0.5, 1.0, 2.5, 4.0)
#: ``None`` is uncapped; the small caps make ``no-htlc-slots`` likely.
SLOT_CAPS = (None, 1, 2)


def random_graph(n, rng):
    """A connected simple graph: a random spanning tree plus extra edges."""
    pairs = set()
    for v in range(1, n):
        pairs.add((rng.randrange(v), v))
    for _ in range(rng.randrange(n + 1)):
        u, v = rng.sample(range(n), 2)
        if (v, u) not in pairs:
            pairs.add((u, v))
    return [
        (u, v, rng.choice(BALANCES), rng.choice(BALANCES), rng.choice(SLOT_CAPS))
        for u, v in sorted(pairs)
    ]


def random_trace(n, length, rng):
    times = sorted(rng.uniform(0.0, 5.0) for _ in range(length))
    return [
        Transaction(
            time=t,
            sender=rng.randrange(n),
            receiver=rng.randrange(n),
            amount=rng.choice(AMOUNTS),
        )
        for t in times
    ]


def build(channels):
    graph = ChannelGraph()
    for u, v, balance_u, balance_v, cap in channels:
        graph.add_channel(u, v, balance_u, balance_v, max_accepted_htlcs=cap)
    return graph


def balances_by_pair(graph):
    return {
        frozenset((c.u, c.v)): (c.balance(c.u), c.balance(c.v))
        for c in graph.channels
    }


def assert_backends_agree(channels, trace, **options):
    kwargs = dict(fee=LinearFee(0.01, 0.05), seed=3, **options)
    event_graph = build(channels)
    event = SimulationEngine(event_graph, **kwargs)
    event.schedule_transactions(trace)
    event_metrics = event.run()
    batched_graph = build(channels)
    batched_metrics = BatchedSimulationEngine(
        batched_graph, **kwargs
    ).run_trace(trace)
    assert event_metrics.to_dict() == batched_metrics.to_dict()
    assert balances_by_pair(event_graph) == balances_by_pair(batched_graph)


options = st.fixed_dictionaries({
    "payment_mode": st.sampled_from(["instant", "htlc"]),
    "path_selection": st.sampled_from(["first", "random"]),
    "route_rng": st.sampled_from(["stream", "payment"]),
})


@given(
    n=st.integers(min_value=2, max_value=12),
    length=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    engine_options=options,
)
@settings(max_examples=80, deadline=None)
def test_small_graph_backends_agree(n, length, seed, engine_options):
    rng = random.Random(seed)
    channels = random_graph(n, rng)
    assert_backends_agree(
        channels, random_trace(n, length, rng), **engine_options
    )


@pytest.mark.parametrize("payment_mode", ["instant", "htlc"])
def test_large_graph_backends_agree(payment_mode):
    n = SMALL_GRAPH_NODES + 10
    rng = random.Random(11)
    channels = random_graph(n, rng)
    assert_backends_agree(
        channels, random_trace(n, 300, rng),
        payment_mode=payment_mode, path_selection="random",
        route_rng="stream",
    )
