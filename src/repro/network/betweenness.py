"""Pair-weighted betweenness: the workhorse behind Eq. 2 and Eq. 3.

The paper estimates the rate at which a directed edge ``e`` carries
transactions as

    p_e = sum over ordered pairs (s, r), s != r, m(s,r) > 0 of
          m_e(s, r) / m(s, r) * p_trans(s, r)                     (Eq. 2)

where ``m_e(s, r)`` counts shortest ``s -> r`` paths through ``e`` and
``m(s, r)`` counts all shortest ``s -> r`` paths. The expected routing
revenue of a node ``u`` (Eq. 3 / Section IV assumption 1) has the same
shape with node-through-traffic ``m_u(s, r)``, restricted to ``u`` being an
*intermediary* (``u != s, r``).

Plain ``networkx`` betweenness weights every pair equally, so we implement:

* :func:`pair_weighted_betweenness` — a generalisation of Brandes'
  accumulation in which the dependency seeded at each target ``r`` is an
  arbitrary weight ``w(s, r)`` rather than 1. ``O(n * m)`` for unweighted
  graphs — the paper's "efficient O(n^2) estimation" for sparse graphs.
* :func:`pair_weighted_betweenness_exact` — literal enumeration of all
  shortest paths per pair. Exponentially slower; used as the ground-truth
  cross-check in tests and bench E11.

On a :class:`~repro.network.views.GraphView` the accumulation is
:func:`betweenness_arrays`: one level-synchronous numpy pass that runs
every source's BFS and backward sweep at once, keyed by flat
``(source row, node)`` integers over the view's CSR arrays. It takes the
pair weights as ``float64`` rows (one per source, columns in view node
order), so callers with a frozen ``p_trans`` matrix make no per-pair
python call; :func:`pair_weighted_betweenness` turns a ``w(s, r)``
callable into such rows once. A legacy ``nx.DiGraph`` still takes the
original dict-of-dict Brandes pass.
"""

from __future__ import annotations

import functools
from collections import deque
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import networkx as nx
import numpy as np

from ..errors import InvalidParameter
from .views import GraphView

__all__ = [
    "BetweennessArrays",
    "BetweennessResult",
    "betweenness_arrays",
    "pair_weighted_betweenness",
    "pair_weighted_betweenness_exact",
    "uniform_pair_weight",
]

PairWeight = Callable[[Hashable, Hashable], float]
#: A ``w(s, r)`` callable, or ``float64[len(sources), n]`` weight rows.
PairWeights = Union[PairWeight, np.ndarray]
Edge = Tuple[Hashable, Hashable]

#: Flat ``(source, node)`` keys per block of sources. Bounds the sweep's
#: working arrays (a few words per key and per shortest-path tree edge)
#: however many sources one call asks for.
_BLOCK_KEYS = 1 << 14


def uniform_pair_weight(_s: Hashable, _r: Hashable) -> float:
    """Weight function that reduces everything to classic betweenness."""
    return 1.0


class BetweennessResult:
    """Node and edge pair-weighted betweenness of one graph.

    Attributes:
        node: ``node -> sum over pairs (s, r) with s, r != node of
        m_node(s,r)/m(s,r) * w(s, r)`` (intermediary traffic through node).
        edge: ``(src, dst) -> p_e`` as in Eq. 2 (endpoint hops included).
    """

    __slots__ = ("node", "edge")

    def __init__(self, node: Dict[Hashable, float], edge: Dict[Edge, float]) -> None:
        self.node = node
        self.edge = edge

    def edge_value(self, src: Hashable, dst: Hashable) -> float:
        return self.edge.get((src, dst), 0.0)

    def node_value(self, node: Hashable) -> float:
        return self.node.get(node, 0.0)


class BetweennessArrays:
    """Array-form pair-weighted betweenness of one :class:`GraphView`.

    Attributes:
        view: the CSR snapshot the accumulation ran on.
        node_values: ``float64[n]`` intermediary traffic per node index.
        edge_values: ``float64[m]`` Eq. 2 accumulation per CSR entry.
    """

    __slots__ = ("view", "node_values", "edge_values")

    def __init__(
        self, view: GraphView, node_values: np.ndarray, edge_values: np.ndarray
    ) -> None:
        self.view = view
        self.node_values = node_values
        self.edge_values = edge_values

    def to_result(self) -> "BetweennessResult":
        """Translate the arrays into the dict-keyed legacy result shape."""
        nodes = self.view.nodes
        node = dict(zip(nodes, self.node_values.tolist()))
        nonzero = np.flatnonzero(self.edge_values)
        edge: Dict[Edge, float] = {
            (nodes[src], nodes[dst]): value
            for src, dst, value in zip(
                self.view.entry_rows()[nonzero].tolist(),
                self.view.indices[nonzero].tolist(),
                self.edge_values[nonzero].tolist(),
            )
        }
        return BetweennessResult(node, edge)


def _sweep_block(
    view: GraphView,
    sources: np.ndarray,
    weights: Optional[np.ndarray],
    node_acc: np.ndarray,
    edge_acc: np.ndarray,
) -> None:
    """Brandes' BFS and backward sweep for a block of sources at once.

    State lives in flat arrays indexed by ``key = row * n + node`` (row =
    position in ``sources``). The BFS frontier is kept sorted by key, so
    within each row it is visited in node order and each out-edge in CSR
    order: every ``sigma`` and ``delta`` key receives its terms in the same
    order a single-source pass gives it. Edge and node contributions are
    then folded into the accumulators row by row (``np.add.at`` adds in
    index order), which is source order.
    """
    n = view.num_nodes
    indptr, indices = view.indptr, view.indices
    size = len(sources) * n
    roots = np.arange(0, size, n, dtype=np.int64) + sources
    found = np.zeros(size, dtype=bool)
    sigma = np.zeros(size, dtype=np.float64)
    found[roots] = True
    sigma[roots] = 1.0
    fresh = np.zeros(size, dtype=bool)
    # Per BFS level: the shortest-path tree edges entering it, as
    # (CSR entries, source keys, target keys, sigma of the source keys).
    levels: List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
    frontier = roots
    while frontier.size:
        # expand_frontier's expansion, inline: the keys reuse its counts.
        nodes = frontier % n
        starts = indptr[nodes]
        counts = indptr[nodes + 1] - starts
        ends = np.cumsum(counts)
        total = int(ends[-1])
        if total == 0:
            break
        entries = np.repeat(starts - (ends - counts), counts) + np.arange(
            total, dtype=np.int64
        )
        keys = np.repeat(frontier, counts)
        targets = np.repeat(frontier - nodes, counts) + indices[entries]
        # Every edge into a key no earlier level reached is a tree edge
        # of this level.
        tree = ~found[targets]
        targets = targets[tree]
        if targets.size == 0:
            break
        entries, keys = entries[tree], keys[tree]
        found[targets] = True
        pulled = sigma[keys]
        # bincount adds each target's terms in order, starting from 0.0.
        sigma += np.bincount(targets, weights=pulled, minlength=size)
        levels.append((entries, keys, targets, pulled))
        # The next frontier: this level's keys, deduplicated and sorted.
        fresh[targets] = True
        frontier = np.flatnonzero(fresh)
        fresh[frontier] = False

    flat = None if weights is None else weights.ravel()
    delta = np.zeros(size, dtype=np.float64)
    parts: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for entries, keys, targets, pulled in reversed(levels):
        seed = 1.0 if flat is None else flat[targets]
        contrib = pulled * (seed + delta[targets]) / sigma[targets]
        delta += np.bincount(keys, weights=contrib, minlength=size)
        parts.append((keys, entries, contrib))
    if not parts:
        return
    keys, entries, contrib = (np.concatenate(column) for column in zip(*parts))
    # A CSR entry is a tree edge at most once per source, so ordering by
    # key (hence by row) is all the edge fold needs.
    order = np.argsort(keys, kind="stable")
    np.add.at(edge_acc, entries[order], contrib[order])
    delta[roots] = 0.0
    hit = np.flatnonzero(delta)
    np.add.at(node_acc, hit % n, delta[hit])


def betweenness_arrays(
    view: GraphView,
    weights: Optional[np.ndarray] = None,
    sources: Optional[Iterable[Hashable]] = None,
) -> BetweennessArrays:
    """Brandes' accumulation with per-pair weight rows over CSR arrays.

    Args:
        view: the directed CSR snapshot to accumulate on.
        weights: ``float64[len(sources), n]``; row ``i`` holds
            ``w(sources[i], t)`` for every node ``t`` in ``view.nodes``
            order (the row's own source column and unreachable columns are
            never read). ``None`` weighs every pair 1.
        sources: source labels, in accumulation order (defaults to
            ``view.nodes``). Labels not in the view are skipped together
            with their weight row.

    Every source runs in one level-synchronous pass, in blocks of
    ``_BLOCK_KEYS`` flat ``(source, node)`` keys. Each accumulator
    element is built by the same float operations in the same order as a
    one-source-at-a-time Brandes pass over the same CSR arrays.
    """
    n = view.num_nodes
    labels: Sequence[Hashable] = view.nodes if sources is None else list(sources)
    if weights is not None:
        weights = _checked_rows(weights, len(labels), n)
    known = [i for i, label in enumerate(labels) if label in view.node_index]
    source_indices = np.fromiter(
        (view.node_index[labels[i]] for i in known), dtype=np.int64, count=len(known)
    )
    if weights is not None and len(known) != len(labels):
        weights = weights[known]
    node_acc = np.zeros(n, dtype=np.float64)
    edge_acc = np.zeros(view.num_entries, dtype=np.float64)
    block = max(1, _BLOCK_KEYS // max(n, 1))
    for start in range(0, len(source_indices), block):
        _sweep_block(
            view,
            source_indices[start:start + block],
            None if weights is None else weights[start:start + block],
            node_acc,
            edge_acc,
        )
    return BetweennessArrays(view, node_acc, edge_acc)


def _checked_rows(weights: np.ndarray, count: int, n: int) -> np.ndarray:
    """``weights`` as ``float64``, or an error unless it is ``[count, n]``."""
    rows = np.asarray(weights, dtype=np.float64)
    if rows.shape != (count, n):
        raise InvalidParameter(
            f"weights must have shape {(count, n)} (sources x nodes), "
            f"got {rows.shape}"
        )
    return rows


def _weight_rows(
    view: GraphView, pair_weight: PairWeight, labels: Sequence[Hashable]
) -> np.ndarray:
    """``pair_weight`` evaluated into :func:`betweenness_arrays` rows.

    A source with no out-edge reaches nobody; its row stays zero without
    a call. Unknown labels get a zero row too (the core skips them).
    """
    nodes = view.nodes
    rows = np.zeros((len(labels), view.num_nodes), dtype=np.float64)
    for i, s in enumerate(labels):
        index = view.node_index.get(s)
        if index is None or view.indptr[index] == view.indptr[index + 1]:
            continue
        rows[i] = [
            0.0 if j == index else pair_weight(s, t) for j, t in enumerate(nodes)
        ]
    return rows


def _bfs_shortest_paths(
    graph: nx.DiGraph, source: Hashable
) -> Tuple[list, Dict[Hashable, list], Dict[Hashable, float], Dict[Hashable, int]]:
    """Single-source BFS returning Brandes' bookkeeping.

    Returns ``(order, predecessors, sigma, dist)`` where ``order`` lists
    nodes in non-decreasing distance, ``sigma`` counts shortest paths.
    """
    sigma: Dict[Hashable, float] = {source: 1.0}
    dist: Dict[Hashable, int] = {source: 0}
    preds: Dict[Hashable, list] = {source: []}
    order = [source]
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in graph.successors(v):
            if w not in dist:
                dist[w] = dist[v] + 1
                sigma[w] = 0.0
                preds[w] = []
                order.append(w)
                queue.append(w)
            if dist[w] == dist[v] + 1:
                sigma[w] += sigma[v]
                preds[w].append(v)
    return order, preds, sigma, dist


def pair_weighted_betweenness(
    graph: nx.DiGraph,
    pair_weight: PairWeights = uniform_pair_weight,
    sources: Optional[Iterable[Hashable]] = None,
) -> BetweennessResult:
    """Brandes' algorithm with per-pair dependency weights.

    Args:
        graph: a :class:`~repro.network.views.GraphView` CSR snapshot (the
            fast vectorised path) or a legacy directed networkx graph;
            shortest paths are hop counts either way.
        pair_weight: ``w(s, r)`` — the weight each ordered pair contributes
            (e.g. ``N_s * p_trans(s, r)`` for transaction rates) — or the
            same weights as ``float64[len(sources), n]`` rows in node
            order (see :func:`betweenness_arrays`).
        sources: restrict the outer loop to these sources (defaults to all
            nodes). Restricting is how callers compute "traffic sent by a
            single node" cheaply.

    Returns:
        :class:`BetweennessResult` with node (intermediary-only) and edge
        accumulations.
    """
    labels = list(graph.nodes) if sources is None else list(sources)
    if isinstance(graph, GraphView):
        if pair_weight is uniform_pair_weight:
            weights = None
        elif callable(pair_weight):
            weights = _weight_rows(graph, pair_weight, labels)
        else:
            weights = pair_weight
        return betweenness_arrays(graph, weights, sources=labels).to_result()
    rows = (
        None if callable(pair_weight)
        else _checked_rows(pair_weight, len(labels), len(graph))
    )
    node_acc: Dict[Hashable, float] = {v: 0.0 for v in graph.nodes}
    edge_acc: Dict[Edge, float] = {}
    for i, s in enumerate(labels):
        if s not in graph:
            continue
        if rows is None:
            weight_of = functools.partial(pair_weight, s)
        else:
            weight_of = dict(zip(graph.nodes, rows[i].tolist())).__getitem__
        order, preds, sigma, _dist = _bfs_shortest_paths(graph, s)
        # Brandes' accumulation, with the classic "+1" per reached target
        # replaced by "+w(s, target)".
        delta: Dict[Hashable, float] = {v: 0.0 for v in order}
        for w in reversed(order):
            if w == s:
                continue
            coeff = (weight_of(w) + delta[w]) / sigma[w]
            for v in preds[w]:
                contribution = sigma[v] * coeff
                if contribution != 0.0:
                    edge_acc[(v, w)] = edge_acc.get((v, w), 0.0) + contribution
                    delta[v] += contribution
        for v in order:
            if v != s:
                node_acc[v] += delta[v]
    return BetweennessResult(node_acc, edge_acc)


def pair_weighted_betweenness_exact(
    graph: nx.DiGraph,
    pair_weight: PairWeight = uniform_pair_weight,
) -> BetweennessResult:
    """Ground-truth Eq. 2 by explicit shortest-path enumeration.

    Enumerates every shortest path of every ordered pair and accumulates
    fractional traffic. Exponential in the worst case; only for small
    graphs (tests, cross-validation benches).
    """
    if isinstance(graph, GraphView):
        graph = graph.to_networkx()
    node_acc: Dict[Hashable, float] = {v: 0.0 for v in graph.nodes}
    edge_acc: Dict[Edge, float] = {}
    for s in graph.nodes:
        for r in graph.nodes:
            if s == r:
                continue
            try:
                paths = list(nx.all_shortest_paths(graph, s, r))
            except nx.NetworkXNoPath:
                continue
            weight = pair_weight(s, r)
            if weight == 0.0 or not paths:
                continue
            share = weight / len(paths)
            for path in paths:
                for v in path[1:-1]:
                    node_acc[v] += share
                for src, dst in zip(path, path[1:]):
                    edge_acc[(src, dst)] = edge_acc.get((src, dst), 0.0) + share
    return BetweennessResult(node_acc, edge_acc)
