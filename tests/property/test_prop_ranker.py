"""Property tests: the shared degree ranker against a brute-force reference.

The reference is the per-perspective loop the ranker replaced: count each
node's channels that avoid the perspective, sort by ``(-degree, str)``,
then tie-average with :func:`rank_factors_from_degrees` and normalise
with the builtin ``sum``. Rankings, factors and rows must match exactly —
same order, same floats — from every perspective, including ``None``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.graph import ChannelGraph
from repro.transactions.ranking import (
    DegreeRanker,
    degree_ranking,
    rank_factors,
    rank_factors_from_degrees,
)
from repro.transactions.zipf import ModifiedZipf

# ints and their str twins collide under ``str``; ties fall back to graph order.
LABELS = [0, 1, 2, 3, 10, 11, "1", "2", "10", "a", "b", "B", (1, 2), "(1, 2)"]


def reference_ranking(graph, perspective):
    degrees = {}
    for node in graph.nodes:
        if node == perspective:
            continue
        degree = 0
        for channel in graph.channels_of(node):
            if perspective is not None and perspective in channel.endpoints:
                continue
            degree += 1
        degrees[node] = degree
    return sorted(degrees.items(), key=lambda kv: (-kv[1], str(kv[0])))


def reference_factors(graph, perspective, s):
    ranked = reference_ranking(graph, perspective)
    factors = rank_factors_from_degrees([d for _, d in ranked], s)
    return {node: factor for (node, _), factor in zip(ranked, factors)}


def reference_row(graph, perspective, s):
    factors = reference_factors(graph, perspective, s)
    total = sum(factors.values())
    return {node: factor / total for node, factor in factors.items()}


@st.composite
def multigraphs(draw):
    nodes = draw(st.lists(st.sampled_from(LABELS), min_size=2, max_size=len(LABELS), unique=True))
    graph = ChannelGraph()
    for node in draw(st.permutations(nodes)):
        graph.add_node(node)
    pairs = st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)).filter(
        lambda pair: pair[0] != pair[1]
    )
    for u, v in draw(st.lists(pairs, max_size=40)):
        graph.add_channel(u, v, 1.0, 1.0)
    return graph


zipf_s = st.one_of(st.sampled_from([0.0, 1.0, 2.0]), st.floats(0.0, 30.0))


class TestRankerMatchesReference:
    @given(graph=multigraphs(), s=zipf_s)
    @settings(max_examples=150, deadline=None)
    def test_every_perspective(self, graph, s):
        ranker = DegreeRanker(graph, s)
        for perspective in [None, *graph.nodes]:
            expected = reference_ranking(graph, perspective)
            assert degree_ranking(graph, perspective) == expected
            factors = reference_factors(graph, perspective, s)
            assert list(ranker.rank_factors(perspective).items()) == list(factors.items())
            assert list(rank_factors(graph, perspective, s).items()) == list(factors.items())

    @given(graph=multigraphs(), s=zipf_s)
    @settings(max_examples=150, deadline=None)
    def test_rows_and_rank_factors(self, graph, s):
        zipf = ModifiedZipf(graph, s=s)
        for sender in graph.nodes:
            row = zipf.receivers(sender)
            assert list(row.items()) == list(reference_row(graph, sender, s).items())
            factors = reference_factors(graph, sender, s)
            for node in graph.nodes:
                assert zipf.rank_factor(sender, node) == factors.get(node, 0.0)
