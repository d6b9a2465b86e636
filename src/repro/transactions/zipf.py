"""The modified Zipf transaction distribution of Section II-B.

From the perspective of a sender ``u``, every other node ``v`` gets a
tie-averaged rank factor ``rf(v)`` (see :mod:`repro.transactions.ranking`)
based on its in-degree in ``G - u``, and

    p_trans(u, v) = rf(v) / sum_{v'} rf(v').

Higher-degree nodes are more likely transaction partners — the
degree-proportional pairing the paper motivates from Barabási–Albert-style
real networks. ``s`` tunes the skew: ``s = 0`` recovers the uniform model
of prior work, large ``s`` concentrates all traffic on the top-degree node.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Tuple

import numpy as np

from ..errors import NodeNotFound
from ..network.graph import ChannelGraph
from .distributions import TransactionDistribution, sampling_cdf
from .ranking import DegreeRanker

__all__ = ["ModifiedZipf"]


class ModifiedZipf(TransactionDistribution):
    """Degree-ranked Zipf pairing with tie averaging.

    All senders share one :class:`~repro.transactions.ranking.DegreeRanker`,
    and each sender's sampling CDF is built once (rows from
    :meth:`receivers` and CDFs for :meth:`sample_receiver` are cached
    separately, so drawing never builds a row dict).

    Args:
        graph: the PCN whose degrees define the ranking.
        s: Zipf scale parameter (>= 0).
        cache: memoise the ranker, per-sender rows and per-sender CDFs.
            The cache must be dropped (create a new instance, or call
            :meth:`invalidate`) whenever the graph's topology changes,
            since ranks depend on degrees. With ``cache=False`` every
            call re-reads the graph.
    """

    def __init__(self, graph: ChannelGraph, s: float = 1.0, cache: bool = True) -> None:
        self.graph = graph
        self.s = s
        self._cache_enabled = cache
        self._ranker: Optional[DegreeRanker] = None
        self._rows: Dict[Hashable, Dict[Hashable, float]] = {}
        self._cdfs: Dict[Hashable, Tuple[np.ndarray, np.ndarray]] = {}

    def invalidate(self) -> None:
        """Drop the memoised ranker, rows and CDFs (call after mutating the graph)."""
        self._ranker = None
        self._rows.clear()
        self._cdfs.clear()

    def _ranking(self) -> DegreeRanker:
        if not self._cache_enabled:
            return DegreeRanker(self.graph, self.s)
        if self._ranker is None:
            self._ranker = DegreeRanker(self.graph, self.s)
        return self._ranker

    @staticmethod
    def _normalised(
        ranker: DegreeRanker, sender: Hashable
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``sender``'s receiver indices in rank order and ``p_trans`` of each."""
        order, factors = ranker.factors(sender)
        # The builtin sum in rank order, not numpy's pairwise sum: row floats
        # must equal the reference ranking's on every Python version.
        total = sum(factors)
        return order, np.array(factors) / total

    def _probabilities(self, sender: Hashable) -> Tuple[np.ndarray, np.ndarray]:
        """``sender``'s receivers (object array) in rank order and ``p_trans`` of each."""
        ranker = self._ranking()
        order, probs = self._normalised(ranker, sender)
        return ranker.labels[order], probs

    def probability_matrix(self) -> np.ndarray:
        """Every sender's row as one ``float64[n, n]`` matrix.

        Entry ``[i, j]`` is ``p_trans(nodes[i], nodes[j])`` in the graph's
        node order, the same float :meth:`probability` returns; the
        diagonal is zero.
        """
        ranker = self._ranking()
        count = len(ranker.labels)
        matrix = np.zeros((count, count), dtype=np.float64)
        for i, sender in enumerate(ranker.labels.tolist()):
            order, probs = self._normalised(ranker, sender)
            matrix[i, order] = probs
        return matrix

    def _row(self, sender: Hashable) -> Dict[Hashable, float]:
        """``sender``'s row, shared with the cache (callers must not mutate it)."""
        if sender not in self.graph:
            raise NodeNotFound(sender)
        row = self._rows.get(sender)
        if row is None:
            nodes, probs = self._probabilities(sender)
            row = dict(zip(nodes.tolist(), probs.tolist()))
            if self._cache_enabled:
                self._rows[sender] = row
        return row

    def receivers(self, sender: Hashable) -> Dict[Hashable, float]:
        return dict(self._row(sender))

    def receiver_cdf(self, sender: Hashable) -> Tuple[np.ndarray, np.ndarray]:
        if sender not in self.graph:
            raise NodeNotFound(sender)
        entry = self._cdfs.get(sender)
        if entry is None:
            nodes, probs = self._probabilities(sender)
            entry = nodes, sampling_cdf(probs, f"receiver distribution of {sender!r}")
            if self._cache_enabled:
                self._cdfs[sender] = entry
        return entry

    def probability(self, sender: Hashable, receiver: Hashable) -> float:
        if sender == receiver:
            return 0.0
        return self._row(sender).get(receiver, 0.0)

    def rank_factor(self, sender: Hashable, node: Hashable) -> float:
        """Unnormalised ``rf(node)`` from ``sender``'s perspective."""
        return self._ranking().rank_factors(sender).get(node, 0.0)
