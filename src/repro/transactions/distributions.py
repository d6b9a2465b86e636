"""Who-transacts-with-whom distributions.

The paper's headline model is the modified Zipf distribution (implemented
in :mod:`repro.transactions.zipf`); prior work assumed uniform pairing.
Both are provided behind one interface so algorithms and benches can swap
the assumption and measure its effect (bench E12's ablations rely on this).

Every receiver draw goes through :meth:`TransactionDistribution.sample_receiver`:
one ``rng.random()`` located in the sender's cumulative distribution with
``cdf.searchsorted(u, side="right")``. :func:`sampling_cdf` builds that CDF
the way ``Generator.choice(n, p=p)`` does (``p.cumsum()``, then divide by
the last entry), so the draw is the one ``choice`` would make, draw for
draw, and a cached CDF costs ``O(log n)`` per draw instead of ``O(n)``.
``tests/transactions/test_sampling_contract.py`` pins the equivalence
against the installed numpy.
"""

from __future__ import annotations

import abc
from typing import Dict, Hashable, Mapping, Sequence, Tuple

import numpy as np

from ..errors import InvalidParameter, NodeNotFound
from ..network.graph import ChannelGraph

__all__ = [
    "TransactionDistribution",
    "UniformDistribution",
    "EmpiricalDistribution",
    "sampling_cdf",
]

#: ``Generator.choice``'s tolerance on the total of ``p``.
_SUM_TOLERANCE = float(np.sqrt(np.finfo(np.float64).eps))


def sampling_cdf(weights: np.ndarray, what: str) -> np.ndarray:
    """The CDF ``Generator.choice(len(weights), p=weights / weights.sum())`` uses.

    Draw with ``cdf.searchsorted(rng.random(), side="right")``. The checks
    ``choice`` makes on ``p`` run here, once per CDF: positive total mass,
    no negative entry, and a total within ``sqrt(eps)`` of 1.

    Args:
        weights: unnormalised ``float64`` weights, in draw order.
        what: names the distribution in error messages.
    """
    total = weights.sum()
    if not total > 0:
        raise InvalidParameter(f"{what} has no positive mass")
    if weights.min() < 0:
        raise InvalidParameter(f"{what} has a negative weight")
    cdf = (weights / total).cumsum()
    if not abs(cdf[-1] - 1.0) <= _SUM_TOLERANCE:
        raise InvalidParameter(f"{what} does not sum to 1")
    cdf /= cdf[-1]
    return cdf


class TransactionDistribution(abc.ABC):
    """Probability that a given sender transacts with a given receiver."""

    @abc.abstractmethod
    def probability(self, sender: Hashable, receiver: Hashable) -> float:
        """``p_trans(sender, receiver)``; 0 when ``sender == receiver``."""

    @abc.abstractmethod
    def receivers(self, sender: Hashable) -> Dict[Hashable, float]:
        """Full receiver distribution of ``sender`` (sums to 1)."""

    def receiver_cdf(
        self, sender: Hashable
    ) -> Tuple[Sequence[Hashable], np.ndarray]:
        """``(receivers, cdf)`` of ``sender`` in :meth:`receivers` order."""
        dist = self.receivers(sender)
        weights = np.fromiter(dist.values(), dtype=float, count=len(dist))
        return list(dist), sampling_cdf(
            weights, f"receiver distribution of {sender!r}"
        )

    def sample_receiver(
        self, sender: Hashable, rng: np.random.Generator
    ) -> Hashable:
        """Draw one receiver for ``sender``: the draw ``rng.choice`` would make."""
        nodes, cdf = self.receiver_cdf(sender)
        return nodes[cdf.searchsorted(rng.random(), side="right")]


class UniformDistribution(TransactionDistribution):
    """Every other node is an equally likely receiver (the model of [19])."""

    def __init__(self, nodes: Sequence[Hashable]) -> None:
        if len(nodes) < 2:
            raise InvalidParameter("need at least two nodes")
        self._nodes = list(nodes)
        self._node_set = set(nodes)

    @classmethod
    def from_graph(cls, graph: ChannelGraph) -> "UniformDistribution":
        return cls(list(graph.nodes))

    def probability(self, sender: Hashable, receiver: Hashable) -> float:
        if sender not in self._node_set:
            raise NodeNotFound(sender)
        if receiver == sender or receiver not in self._node_set:
            return 0.0
        return 1.0 / (len(self._nodes) - 1)

    def receivers(self, sender: Hashable) -> Dict[Hashable, float]:
        if sender not in self._node_set:
            raise NodeNotFound(sender)
        p = 1.0 / (len(self._nodes) - 1)
        return {node: p for node in self._nodes if node != sender}


class EmpiricalDistribution(TransactionDistribution):
    """A distribution given explicitly as per-sender receiver weights.

    Useful for feeding measured traffic matrices (or adversarial ones in
    tests) through the same code paths as the analytic models. Weights are
    normalised per sender.
    """

    def __init__(
        self, weights: Mapping[Hashable, Mapping[Hashable, float]]
    ) -> None:
        self._table: Dict[Hashable, Dict[Hashable, float]] = {}
        for sender, row in weights.items():
            cleaned = {
                receiver: float(weight)
                for receiver, weight in row.items()
                if receiver != sender and weight > 0
            }
            total = sum(cleaned.values())
            if total <= 0:
                raise InvalidParameter(
                    f"sender {sender!r} has no positive receiver weight"
                )
            self._table[sender] = {r: w / total for r, w in cleaned.items()}

    def probability(self, sender: Hashable, receiver: Hashable) -> float:
        if sender not in self._table:
            raise NodeNotFound(sender)
        return self._table[sender].get(receiver, 0.0)

    def receivers(self, sender: Hashable) -> Dict[Hashable, float]:
        if sender not in self._table:
            raise NodeNotFound(sender)
        return dict(self._table[sender])
