"""Degree ranking and the tie-averaged rank factors of Section II-B.

The modified Zipf distribution ranks, from the perspective of a user ``u``,
every *other* node by in-degree (computed on the graph with ``u`` and its
incident channels removed) and assigns each node ``v`` a *rank factor*

    rf(v) = ( 1/r0^s + 1/(r0+1)^s + ... + 1/(r0+n(v)-1)^s ) / n(v)

where ``r0 = r0(v)`` is the first (best) rank of ``v``'s in-degree class and
``n(v)`` is the size of that class. Averaging over the tie block makes the
probability of transacting with two equal-degree nodes equal, which is the
paper's stated motivation for modifying plain Zipf.

The paper's formula writes the last term as ``1/(r0(v)+n(v))^s``; summing
``n(v)`` consecutive ranks starting at ``r0`` ends at ``r0+n(v)-1``, and we
use that reading (the off-by-one in the text would double-count one rank
between adjacent tie blocks and break normalisation).

The whole-network ranking and every sender's ranking come from one
:class:`DegreeRanker` per graph. It reads each node's degree once and
ranks nodes by ``str`` once; the ranking from ``u``'s perspective is the
global degree array minus ``u``'s channel multiplicities (parallel
channels count), ordered by ``(-degree, str rank)`` with ``u`` dropped.
That is exactly the order the stable ``sorted(key=(-degree, str(node)))``
of the graph's node order gives, including nodes whose ``str`` collide
(they keep graph order). Tie-block averages are memoised per ranker and
computed by the same expression as :func:`rank_factors_from_degrees`, so
every factor is the same float the per-node reference loop produced.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import InvalidParameter, NodeNotFound
from ..network.graph import ChannelGraph

__all__ = [
    "DegreeRanker",
    "degree_ranking",
    "rank_factors",
    "rank_factors_from_degrees",
]


def _check_s(s: float) -> None:
    if s < 0:
        raise InvalidParameter(f"Zipf parameter s must be >= 0, got {s}")


def _block_average(i: int, j: int, s: float) -> float:
    """Mean of ``1/r^s`` over the 1-based ranks ``i+1 .. j`` of one tie block."""
    block = [1.0 / float(rank) ** s for rank in range(i + 1, j + 1)]
    return sum(block) / len(block)


class DegreeRanker:
    """Degree rankings of one graph from every perspective.

    The degrees are read when the ranker is built; build a new ranker
    after the graph's topology changes.

    Args:
        graph: the PCN to rank.
        s: Zipf scale parameter (>= 0) used by :meth:`factors`.
    """

    def __init__(self, graph: ChannelGraph, s: float = 1.0) -> None:
        _check_s(s)
        self.graph = graph
        self.s = s
        nodes = graph.nodes
        count = len(nodes)
        #: node labels in graph order; rankings are arrays of indices into it.
        self.labels = np.fromiter(nodes, dtype=object, count=count)
        self._index = {node: i for i, node in enumerate(nodes)}
        self._degrees = np.fromiter(
            (graph.degree(node) for node in nodes), dtype=np.int64, count=count
        )
        strings = [str(node) for node in nodes]
        # Stable: equal strings keep graph order, as a stable sort by str does.
        by_string = sorted(range(count), key=strings.__getitem__)
        self._str_rank = np.empty(count, dtype=np.int64)
        self._str_rank[by_string] = np.arange(count, dtype=np.int64)
        self._blocks: Dict[Tuple[int, int], float] = {}

    def ranking(
        self, perspective: Optional[Hashable] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(node indices, degrees)`` highest degree first.

        With a ``perspective``, that node is left out and its channels are
        not counted (the subgraph ``G' = G - u`` of Section II-B).
        """
        degrees = self._degrees
        if perspective is not None:
            try:
                own = self._index[perspective]
            except KeyError:
                raise NodeNotFound(perspective) from None
            degrees = degrees.copy()
            for channel in self.graph.channels_of(perspective):
                degrees[self._index[channel.other(perspective)]] -= 1
            # Degrees are >= 0, so -(-1) sorts the perspective last.
            degrees[own] = -1
        order = np.lexsort((self._str_rank, -degrees))
        if perspective is not None:
            order = order[:-1]
        return order, degrees[order]

    def factors(
        self, perspective: Optional[Hashable] = None
    ) -> Tuple[np.ndarray, List[float]]:
        """``(node indices, rank factors)`` in rank order."""
        order, degrees = self.ranking(perspective)
        factors: List[float] = []
        if not len(order):
            return order, factors
        # Tie blocks are the runs of equal degree: ranks i+1 .. j (1-based).
        starts = (np.flatnonzero(degrees[1:] != degrees[:-1]) + 1).tolist()
        bounds = [0, *starts, len(order)]
        for i, j in zip(bounds, bounds[1:]):
            average = self._blocks.get((i, j))
            if average is None:
                average = self._blocks[(i, j)] = _block_average(i, j, self.s)
            factors += [average] * (j - i)
        return order, factors

    def rank_factors(self, perspective: Optional[Hashable] = None) -> Dict[Hashable, float]:
        """``rf(v)`` of every node from ``perspective``'s view, in rank order."""
        order, factors = self.factors(perspective)
        return dict(zip(self.labels[order].tolist(), factors))


def degree_ranking(
    graph: ChannelGraph, perspective: Optional[Hashable] = None
) -> List[Tuple[Hashable, int]]:
    """Nodes (excluding ``perspective``) with in-degrees, highest first.

    When ``perspective`` is given, its incident channels are ignored when
    counting degrees, matching the subgraph ``G' = G - u`` of Section II-B.
    Ties are broken deterministically by node representation so results are
    stable across runs; the rank *factors* are tie-invariant anyway.
    """
    ranker = DegreeRanker(graph)
    order, degrees = ranker.ranking(perspective)
    return list(zip(ranker.labels[order].tolist(), degrees.tolist()))


def rank_factors_from_degrees(
    degrees: Sequence[int], s: float
) -> List[float]:
    """Rank factors for a degree sequence sorted in non-increasing order.

    Args:
        degrees: in-degrees sorted highest first (rank 1 first).
        s: Zipf scale parameter (>= 0).

    Returns:
        rank factor per position, same order as ``degrees``.
    """
    _check_s(s)
    if any(d1 < d2 for d1, d2 in zip(degrees, degrees[1:])):
        raise InvalidParameter("degrees must be sorted in non-increasing order")
    factors: List[float] = []
    i = 0
    n = len(degrees)
    while i < n:
        j = i
        while j < n and degrees[j] == degrees[i]:
            j += 1
        # tie block occupies ranks i+1 .. j (1-based)
        factors.extend([_block_average(i, j, s)] * (j - i))
        i = j
    return factors


def rank_factors(
    graph: ChannelGraph,
    perspective: Optional[Hashable] = None,
    s: float = 1.0,
) -> Dict[Hashable, float]:
    """Rank factor ``rf(v)`` of every node from ``perspective``'s view.

    The returned factors are *unnormalised*; divide by their sum to obtain
    transaction probabilities (see :class:`~repro.transactions.zipf.ModifiedZipf`).
    """
    return DegreeRanker(graph, s).rank_factors(perspective)
