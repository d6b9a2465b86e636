"""Property-based tests: weighted Brandes vs ground truth on random graphs,
and the all-sources sweep vs a one-source-at-a-time pass, bit for bit."""

from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidParameter
from repro.network import betweenness
from repro.network.betweenness import (
    BetweennessArrays,
    betweenness_arrays,
    pair_weighted_betweenness,
    pair_weighted_betweenness_exact,
    uniform_pair_weight,
)
from repro.network.graph import ChannelGraph
from repro.network.views import bfs_shortest_path_tree
from repro.snapshots import barabasi_albert_snapshot


@st.composite
def digraphs(draw):
    n = draw(st.integers(min_value=2, max_value=9))
    seed = draw(st.integers(min_value=0, max_value=100_000))
    p = draw(st.floats(min_value=0.2, max_value=0.8))
    structure = nx.gnp_random_graph(n, p, seed=seed, directed=True)
    return structure


@st.composite
def weighted_instances(draw):
    graph = draw(digraphs())
    multipliers = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
            min_size=len(graph),
            max_size=len(graph),
        )
    )
    weight_of = dict(zip(graph.nodes, multipliers))

    def weight(s, r):
        return weight_of[s] * (1.0 + 0.1 * weight_of[r])

    return graph, weight


class TestBrandesEqualsEnumeration:
    @given(instance=weighted_instances())
    @settings(max_examples=60, deadline=None)
    def test_node_values_match(self, instance):
        graph, weight = instance
        fast = pair_weighted_betweenness(graph, weight)
        slow = pair_weighted_betweenness_exact(graph, weight)
        for node in graph.nodes:
            assert fast.node_value(node) == pytest.approx(
                slow.node_value(node), abs=1e-8
            )

    @given(instance=weighted_instances())
    @settings(max_examples=60, deadline=None)
    def test_edge_values_match(self, instance):
        graph, weight = instance
        fast = pair_weighted_betweenness(graph, weight)
        slow = pair_weighted_betweenness_exact(graph, weight)
        keys = set(fast.edge) | set(slow.edge)
        for key in keys:
            assert fast.edge.get(key, 0.0) == pytest.approx(
                slow.edge.get(key, 0.0), abs=1e-8
            )


class TestConservationLaws:
    @given(graph=digraphs())
    @settings(max_examples=60, deadline=None)
    def test_first_hop_mass_equals_reachable_weight(self, graph):
        """Sum of edge traffic out of s equals the number of targets s can
        reach (each unit of pair weight leaves the source exactly once)."""
        for s in graph.nodes:
            out_mass = sum(
                value
                for (src, _dst), value in pair_weighted_betweenness(
                    graph, uniform_pair_weight, sources=[s]
                ).edge.items()
                if src == s
            )
            reachable = len(nx.descendants(graph, s))
            assert out_mass == pytest.approx(reachable, abs=1e-8)

    @given(graph=digraphs())
    @settings(max_examples=40, deadline=None)
    def test_node_value_bounded_by_total_pairs(self, graph):
        n = graph.number_of_nodes()
        result = pair_weighted_betweenness(graph, uniform_pair_weight)
        for value in result.node.values():
            assert value <= n * (n - 1) + 1e-9


def per_source_reference(view, pair_weight=uniform_pair_weight, sources=None):
    """The one-source-at-a-time numpy Brandes pass the batched sweep replaced.

    One BFS and one backward sweep per source, calling ``pair_weight``
    once per reached pair. Kept as the oracle the batched sweep must
    match exactly.
    """
    n = view.num_nodes
    if sources is None:
        source_indices = range(n)
    else:
        source_indices = [
            view.node_index[s] for s in sources if s in view.node_index
        ]
    uniform = pair_weight is uniform_pair_weight
    node_acc = np.zeros(n, dtype=np.float64)
    edge_acc = np.zeros(view.num_entries, dtype=np.float64)
    delta = np.zeros(n, dtype=np.float64)
    weights = np.ones(n, dtype=np.float64) if uniform else np.zeros(n)
    for s in source_indices:
        tree = bfs_shortest_path_tree(view, s)
        if not tree.levels:
            continue
        if not uniform:
            s_label = view.nodes[s]
            # Weights are only consumed at reached targets; unreached
            # entries may stay zero.
            weights[:] = 0.0
            for t in np.nonzero(tree.dist >= 0)[0]:
                if t != s:
                    weights[t] = pair_weight(s_label, view.nodes[t])
        delta[:] = 0.0
        sigma = tree.sigma
        for entries, srcs, targets in reversed(tree.levels):
            contrib = (
                sigma[srcs] * (weights[targets] + delta[targets]) / sigma[targets]
            )
            # A CSR entry is a tree edge of exactly one level and appears
            # once in it, so plain fancy-index += is a safe scatter here;
            # sources repeat, so delta needs a true scatter-add.
            edge_acc[entries] += contrib
            delta += np.bincount(srcs, weights=contrib, minlength=n)
        delta[s] = 0.0
        node_acc += delta
    return node_acc, edge_acc


BALANCES = (0.0, 0.5, 1.0, 2.0, 4.0)


@st.composite
def channel_graphs(draw):
    """Small channel graphs: isolated nodes, parallel channels and
    one-sided balances, so reduced views drop single directions."""
    n = draw(st.integers(min_value=1, max_value=24))
    graph = ChannelGraph()
    for i in range(n):
        graph.add_node(f"v{i}")
    node = st.integers(min_value=0, max_value=n - 1)
    balance = st.sampled_from(BALANCES)
    for u, v, bu, bv in draw(
        st.lists(st.tuples(node, node, balance, balance), max_size=3 * n)
    ):
        if u != v:
            graph.add_channel(f"v{u}", f"v{v}", bu, bv)
    return graph


@st.composite
def sweep_instances(draw):
    graph = draw(channel_graphs())
    view = graph.view(directed=True, reduced=draw(st.sampled_from((0.0, 1.0, 2.5))))
    labels = list(view.nodes)
    sources = draw(
        st.one_of(
            st.none(),
            st.lists(
                st.sampled_from(labels + ["ghost", "phantom"]), unique=True
            ),
        )
    )
    count = len(labels) if sources is None else len(sources)
    kind = draw(st.sampled_from(("uniform", "random", "zero-rows")))
    if kind == "uniform":
        rows = None
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        rows = rng.random((count, len(labels))) * 5.0
        if kind == "zero-rows":
            rows[rng.random(count) < 0.5] = 0.0
    block_keys = draw(st.one_of(st.none(), st.integers(1, 3 * len(labels))))
    return view, sources, rows, block_keys


def _weight_of(view, sources, rows):
    """``w(s, r)`` reading ``rows`` (sources are unique labels here)."""
    if rows is None:
        return uniform_pair_weight
    row_of = {
        label: i for i, label in enumerate(view.nodes if sources is None else sources)
    }
    return lambda s, r: rows[row_of[s], view.node_index[r]]


def _batched(view, rows, sources, block_keys):
    if block_keys is None:
        return betweenness_arrays(view, rows, sources=sources)
    with mock.patch.object(betweenness, "_BLOCK_KEYS", block_keys):
        return betweenness_arrays(view, rows, sources=sources)


class TestSweepEqualsPerSourcePass:
    @given(instance=sweep_instances())
    @settings(max_examples=150, deadline=None)
    def test_arrays_bit_identical(self, instance):
        view, sources, rows, block_keys = instance
        node, edge = per_source_reference(
            view, _weight_of(view, sources, rows), sources
        )
        got = _batched(view, rows, sources, block_keys)
        assert np.array_equal(got.node_values, node)
        assert np.array_equal(got.edge_values, edge)

    @given(instance=sweep_instances())
    @settings(max_examples=60, deadline=None)
    def test_callable_entry_point_bit_identical(self, instance):
        """``pair_weighted_betweenness`` turns a callable into rows once;
        the dict result must equal the per-source pass's, float for float."""
        view, sources, rows, _ = instance
        weight = _weight_of(view, sources, rows)
        node, edge = per_source_reference(view, weight, sources)
        expected = BetweennessArrays(view, node, edge).to_result()
        got = pair_weighted_betweenness(view, weight, sources=sources)
        assert got.node == expected.node
        assert got.edge == expected.edge

    @pytest.mark.parametrize("weighted", [False, True])
    def test_large_graph_across_block_boundaries(self, weighted):
        graph = barabasi_albert_snapshot(205, seed=3)
        view = graph.view(directed=True)
        rows = None
        if weighted:
            rows = np.random.default_rng(5).random((view.num_nodes,) * 2)
        node, edge = per_source_reference(view, _weight_of(view, None, rows))
        for block_keys in (None, 7 * view.num_nodes + 3):
            got = _batched(view, rows, None, block_keys)
            assert np.array_equal(got.node_values, node)
            assert np.array_equal(got.edge_values, edge)

    def test_rows_must_match_sources_by_nodes(self):
        view = barabasi_albert_snapshot(10, seed=1).view(directed=True)
        with pytest.raises(InvalidParameter, match="weights must have shape"):
            betweenness_arrays(view, np.ones((3, 10)))
