"""The joining user's utility model (Section II-C).

:class:`JoiningUserModel` evaluates, for a new user ``u`` with candidate
strategy ``S``:

    U(S)   = E_rev(S) - E_fees(S) - Σ_{(v,l) in S} L_u(v, l)
    U'(S)  = E_rev(S) - E_fees(S)               (Thm 2's monotone part)
    U^b(S) = C_u + U(S)                         (Section III-D benefit)

Following the paper's submodularity proofs ("we assume λ_xy / p_trans are
fixed values"), the transaction distribution is *frozen* at construction:
pair probabilities are computed once on the base graph and held constant
while strategies vary. The equilibrium module re-derives distributions per
deviation instead (Section IV recomputes rank factors after each change).

The model mutates one internal working copy of the graph between
evaluations (cheap diffs), so a single instance is not thread-safe.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, Hashable, Mapping, Optional, Union

import numpy as np

from ..errors import InvalidParameter, NodeNotFound
from ..network.betweenness import pair_weighted_betweenness
from ..network.graph import ChannelGraph
from ..params import DEFAULT_PARAMS, ModelParameters
from ..transactions.distributions import (
    TransactionDistribution,
    UniformDistribution,
)
from ..transactions.ranking import rank_factors
from ..transactions.zipf import ModifiedZipf
from .costmodels import CostModel
from .fees_paid import expected_fees
from .revenue import expected_revenue
from .strategy import Action, Strategy

__all__ = ["JoiningUserModel"]


class JoiningUserModel:
    """Utility of a new user joining a PCN with a given strategy.

    Args:
        graph: the existing PCN; must *not* contain ``new_user``.
        new_user: identifier of the joining node.
        params: model scalars (``C``, ``r``, ``f_avg``, ``f^T_avg``, ``N``,
            ``N_u``, ``s``).
        distribution: ``p_trans`` among existing nodes; defaults to the
            paper's modified Zipf with ``params.zipf_s``.
        own_probs: ``p_trans(new_user, v)`` — the joining user's receiver
            distribution. Defaults to modified-Zipf rank factors over the
            base graph, with the ``s`` of ``distribution`` when it is a
            :class:`ModifiedZipf` and ``params.zipf_s`` otherwise (or
            uniform when ``distribution`` is uniform).
        sender_rates: ``N_v`` per existing node; defaults to splitting
            ``params.total_tx_rate`` equally.
        hop_convention: fee distance convention, see
            :mod:`repro.core.fees_paid`.
        peer_deposit: coins the counterparty locks on its side of each new
            channel: a float, or ``"match"`` to mirror ``u``'s lock
            (dual-funded channel).
        routing_amount: when > 0, evaluate on the reduced subgraph that can
            carry this amount (Section II-B); makes locked capital matter.
        backend: ``"views"`` (default) evaluates revenue and fees on
            immutable CSR :class:`~repro.network.views.GraphView` snapshots
            (vectorised Brandes/BFS); ``"networkx"`` keeps the legacy
            dict-of-dict path — retained for parity tests and the
            old-vs-new perf benchmark.
        revenue_mode: how ``E_rev`` is computed.

            * ``"betweenness"`` (default) — exact pair-weighted intermediary
              betweenness of ``u`` in the augmented graph. Physically
              faithful, but **not** submodular: a second channel can create
              transit where one channel earns nothing, so marginal revenue
              can jump upward.
            * ``"fixed-rate"`` — the paper's Thm 1-5 assumption that
              "λ_xy is a fixed value": each candidate peer ``v`` gets a
              rate ``λ̂(v)`` estimated once (traffic on the directed edge
              ``u -> v`` when ``u`` is connected to *every* peer) and
              ``E_rev(S) = f_avg * Σ_{v in peers(S)} λ̂(v)`` is modular.
              This is the mode under which the submodularity/monotonicity
              theorems and the greedy guarantee hold exactly.
    """

    def __init__(
        self,
        graph: ChannelGraph,
        new_user: Hashable,
        params: ModelParameters = DEFAULT_PARAMS,
        distribution: Optional[TransactionDistribution] = None,
        own_probs: Optional[Mapping[Hashable, float]] = None,
        sender_rates: Optional[Mapping[Hashable, float]] = None,
        hop_convention: str = "path-length",
        peer_deposit: Union[float, str] = "match",
        routing_amount: float = 0.0,
        revenue_mode: str = "betweenness",
        cost_model: Optional["CostModel"] = None,
        backend: str = "views",
    ) -> None:
        if new_user in graph:
            raise InvalidParameter(
                f"new user {new_user!r} is already in the graph; "
                "JoiningUserModel models a node that has not joined yet"
            )
        if len(graph) < 1:
            raise InvalidParameter("base graph must have at least one node")
        if routing_amount < 0:
            raise InvalidParameter("routing_amount must be >= 0")
        if isinstance(peer_deposit, str) and peer_deposit != "match":
            raise InvalidParameter("peer_deposit must be a float or 'match'")
        if revenue_mode not in ("betweenness", "fixed-rate"):
            raise InvalidParameter(
                "revenue_mode must be 'betweenness' or 'fixed-rate', "
                f"got {revenue_mode!r}"
            )
        if backend not in ("views", "networkx"):
            raise InvalidParameter(
                f"backend must be 'views' or 'networkx', got {backend!r}"
            )

        self.base_graph = graph
        self.new_user = new_user
        self.params = params
        self.hop_convention = hop_convention
        self.peer_deposit = peer_deposit
        self.routing_amount = routing_amount
        self.revenue_mode = revenue_mode
        self.cost_model = cost_model
        self.backend = backend
        self._fixed_rates: Optional[Dict[Hashable, float]] = None

        if distribution is None:
            distribution = ModifiedZipf(graph, s=params.zipf_s)
        self.distribution = distribution

        # Freeze pair probabilities among existing nodes (paper's fixed
        # p_trans assumption for Thm 1-5) as one matrix in graph node order.
        nodes = graph.nodes
        self._index = {node: i for i, node in enumerate(nodes)}
        self._pair_probs = _probability_matrix(distribution, graph)

        # Freeze the joining user's own receiver distribution.
        if own_probs is not None:
            total = sum(p for p in own_probs.values() if p > 0)
            if total <= 0:
                raise InvalidParameter("own_probs must have positive mass")
            self._own_probs = {
                v: p / total for v, p in own_probs.items() if p > 0
            }
        elif isinstance(distribution, UniformDistribution):
            n = len(graph)
            self._own_probs = {v: 1.0 / n for v in graph.nodes}
        else:
            s = (
                distribution.s
                if isinstance(distribution, ModifiedZipf)
                else params.zipf_s
            )
            factors = rank_factors(graph, perspective=None, s=s)
            total = sum(factors.values())
            self._own_probs = {v: f / total for v, f in factors.items()}
        for receiver in self._own_probs:
            if receiver not in graph:
                raise NodeNotFound(receiver)

        if sender_rates is None:
            per_node = params.total_tx_rate / len(graph)
            sender_rates = {v: per_node for v in graph.nodes}
        self._sender_rates = dict(sender_rates)

        # Eq. 3 weight rows ``N_s * p_trans(s, r)``, one per sending node,
        # over the working graph's nodes: the base graph's, then the new
        # user, whose column stays zero (its own traffic is not revenue).
        rates = np.array([self._sender_rates.get(v, 0.0) for v in nodes], dtype=float)
        senders = np.flatnonzero(rates > 0)
        self._sources = [nodes[i] for i in senders.tolist()]
        self._revenue_weights = np.zeros((len(senders), len(nodes) + 1))
        self._revenue_weights[:, :-1] = rates[senders, None] * self._pair_probs[senders]

        # Working copy for cheap strategy diffs.
        self._work = graph.copy()
        self._work.add_node(new_user)
        self._applied: Dict[Action, list] = {}
        self._applied_counter: Counter = Counter()

        # Evaluation accounting (Thm 4/5 cost claims).
        self.stats = {"revenue_evals": 0, "fee_evals": 0, "graph_edits": 0}

    # -- strategy application --------------------------------------------------

    def _routing_view(self, graph: ChannelGraph):
        """The reduced directed view in the configured backend's form."""
        view = graph.view(directed=True, reduced=self.routing_amount)
        if self.backend == "views":
            return view
        return view.to_networkx()

    def _deposit_for(self, action: Action) -> float:
        if self.peer_deposit == "match":
            return action.locked
        return float(self.peer_deposit)

    def _apply(self, strategy: Strategy) -> None:
        """Mutate the working graph to reflect exactly ``strategy``."""
        target = Counter(strategy.actions)
        # Remove surplus channels.
        for action in list(self._applied_counter):
            surplus = self._applied_counter[action] - target.get(action, 0)
            for _ in range(surplus):
                channel_id = self._applied[action].pop()
                self._work.remove_channel(channel_id)
                self._applied_counter[action] -= 1
                self.stats["graph_edits"] += 1
            if self._applied_counter[action] == 0:
                del self._applied_counter[action]
                self._applied.pop(action, None)
        # Add missing channels.
        for action, count in target.items():
            missing = count - self._applied_counter.get(action, 0)
            if missing <= 0:
                continue
            if action.peer not in self.base_graph:
                raise NodeNotFound(action.peer)
            for _ in range(missing):
                channel = self._work.add_channel(
                    self.new_user,
                    action.peer,
                    action.locked,
                    self._deposit_for(action),
                )
                self._applied.setdefault(action, []).append(channel.channel_id)
                self._applied_counter[action] += 1
                self.stats["graph_edits"] += 1

    def with_strategy(self, strategy: Strategy) -> ChannelGraph:
        """A fresh, independent copy of the network with ``strategy`` applied."""
        graph = self.base_graph.copy()
        graph.add_node(self.new_user)
        for action in strategy:
            graph.add_channel(
                self.new_user, action.peer, action.locked, self._deposit_for(action)
            )
        return graph

    # -- utility components --------------------------------------------------------

    def _estimate_fixed_rates(self) -> Dict[Hashable, float]:
        """``λ̂(v)``: rate on the directed edge ``u -> v`` when ``u`` is
        connected to every existing node (the fixed-λ estimate)."""
        if self._fixed_rates is not None:
            return self._fixed_rates
        full = self.base_graph.copy()
        full.add_node(self.new_user)
        nominal = max(self.routing_amount, 1.0)
        for peer in self.base_graph.nodes:
            full.add_channel(self.new_user, peer, nominal, nominal)
        digraph = self._routing_view(full)
        profile = pair_weighted_betweenness(
            digraph, self._revenue_weights, sources=self._sources
        )
        self._fixed_rates = {
            peer: profile.edge_value(self.new_user, peer)
            for peer in self.base_graph.nodes
        }
        return self._fixed_rates

    def expected_revenue(self, strategy: Strategy) -> float:
        """``E_rev(S)`` — routing revenue per unit time (Eq. 3).

        See the class docstring for the two revenue modes.
        """
        self.stats["revenue_evals"] += 1
        if self.revenue_mode == "fixed-rate":
            rates = self._estimate_fixed_rates()
            # Distinct peers in strategy order: a set of str labels would
            # sum in an order that changes with the interpreter's hash seed.
            peers: Dict[Hashable, None] = {}
            for action in strategy:
                if self.routing_amount > 0 and action.locked < self.routing_amount:
                    continue  # channel too thin to route the amount
                peers[action.peer] = None
            return self.params.fee_avg * sum(rates.get(p, 0.0) for p in peers)
        self._apply(strategy)
        digraph = self._routing_view(self._work)
        return expected_revenue(
            digraph,
            self.new_user,
            self._revenue_weights,
            self.params.fee_avg,
            sources=self._sources,
        )

    def expected_fees(self, strategy: Strategy) -> float:
        """``E_fees(S)`` — fees paid for the user's own traffic."""
        self._apply(strategy)
        self.stats["fee_evals"] += 1
        digraph = self._routing_view(self._work)
        return expected_fees(
            digraph,
            self.new_user,
            self._own_probs,
            self.params.user_tx_rate,
            self.params.fee_out_avg,
            hop_convention=self.hop_convention,
        )

    def channel_costs(self, strategy: Strategy) -> float:
        """``Σ L_u(v, l)`` for the strategy.

        Uses the pluggable ``cost_model`` when one was supplied (e.g. the
        Guasoni-style :class:`~repro.core.costmodels.DiscountedOpportunityCost`);
        defaults to the paper's linear ``C + r*l`` from the parameters.
        """
        if self.cost_model is not None:
            return self.cost_model.strategy_cost(
                action.locked for action in strategy
            )
        return strategy.utility_cost(self.params)

    # -- objectives -----------------------------------------------------------------

    def utility(self, strategy: Strategy) -> float:
        """Full utility ``U(S)``; ``-inf`` when disconnected (Section II-C)."""
        fees = self.expected_fees(strategy)
        if math.isinf(fees):
            return -math.inf
        return self.expected_revenue(strategy) - fees - self.channel_costs(strategy)

    def simplified_utility(self, strategy: Strategy) -> float:
        """``U'(S) = E_rev - E_fees`` — the monotone submodular objective."""
        fees = self.expected_fees(strategy)
        if math.isinf(fees):
            return -math.inf
        return self.expected_revenue(strategy) - fees

    def benefit(self, strategy: Strategy) -> float:
        """``U^b(S) = C_u + U(S)`` (Section III-D)."""
        utility = self.utility(strategy)
        if math.isinf(utility):
            return -math.inf
        return self.params.onchain_alternative_cost() + utility

    def objective(self, strategy: Strategy, kind: str = "simplified") -> float:
        """Dispatch helper used by the optimisation algorithms."""
        if kind == "simplified":
            return self.simplified_utility(strategy)
        if kind == "utility":
            return self.utility(strategy)
        if kind == "benefit":
            return self.benefit(strategy)
        raise InvalidParameter(
            f"objective kind must be simplified/utility/benefit, got {kind!r}"
        )

    # -- introspection ---------------------------------------------------------------

    @property
    def own_probs(self) -> Dict[Hashable, float]:
        """The joining user's frozen receiver distribution."""
        return dict(self._own_probs)

    @property
    def sender_rates(self) -> Dict[Hashable, float]:
        return dict(self._sender_rates)

    def pair_probability(self, sender: Hashable, receiver: Hashable) -> float:
        """Frozen ``p_trans(sender, receiver)`` among existing nodes."""
        i = self._index.get(sender)
        j = self._index.get(receiver)
        if i is None or j is None:
            return 0.0
        return float(self._pair_probs[i, j])


def _probability_matrix(
    distribution: TransactionDistribution, graph: ChannelGraph
) -> np.ndarray:
    """``p_trans`` among ``graph``'s nodes as ``float64[n, n]`` in node order.

    A :class:`ModifiedZipf` over the same nodes fills it from its ranker's
    factor arrays; any other distribution row by row from
    :meth:`~TransactionDistribution.receivers`, where senders it does not
    know about send nothing.
    """
    nodes = graph.nodes
    if isinstance(distribution, ModifiedZipf) and distribution.graph.nodes == nodes:
        return distribution.probability_matrix()
    index = {node: i for i, node in enumerate(nodes)}
    matrix = np.zeros((len(nodes), len(nodes)), dtype=np.float64)
    for i, sender in enumerate(nodes):
        try:
            row = distribution.receivers(sender)
        except NodeNotFound:
            continue
        for receiver, p in row.items():
            j = index.get(receiver)
            if j is not None:
                matrix[i, j] = p
    return matrix
