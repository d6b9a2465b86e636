"""Outside-in layer spans for the benchmark's traced run.

The timed runs install nothing. The traced run wraps the public entry
point of each ``src/repro`` layer (see :data:`SPAN_TARGETS`) with a
recorder, keeps every span in memory, and derives per-layer *self* time:
a span's duration minus the part of its interval that child spans cover.
Spans nest by thread: a span opened while another is open on the same
thread is its child. A span opened on a thread with nothing open (the
daemon's event loop and worker threads) is a child of the tracer's
``ambient`` span, which the client sets for the duration of a request,
so daemon-side work is subtracted from the client's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.obs.clock import monotonic

#: Name of the span the benchmark opens around each traced op. Its self
#: time is the op time no layer span covers.
OP_SPAN = "obs.op"

#: (span name, module, attribute path, kind). ``kind`` is ``span`` for a
#: timed wrapper, ``gen`` for a generator whose every ``next`` is timed,
#: ``count`` for a call counter without a span. A dotted attribute names
#: a method on a class; a plain one a function, rebound in every
#: ``repro`` module that imported it by name.
SPAN_TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("snapshots.build", "repro.scenarios.factory", "build_topology", "span"),
    ("transactions.trace", "repro.scenarios.factory", "build_workload", "span"),
    ("transactions.trace", "repro.transactions.workload",
     "PoissonWorkload.generate", "gen"),
    ("transactions.ranking", "repro.transactions.ranking", "degree_ranking", "span"),
    ("simulation.replay", "repro.simulation.fastpath",
     "BatchedSimulationEngine.run_trace", "span"),
    ("simulation.replay", "repro.simulation.fastpath",
     "BatchedSimulationEngine.run", "span"),
    ("simulation.replay", "repro.simulation.engine", "SimulationEngine.run", "span"),
    ("network.view", "repro.network.graph", "ChannelGraph.view", "span"),
    ("network.view_build", "repro.network.views", "build_view", "count"),
    ("network.route", "repro.network.routing", "Router.find_route", "span"),
    ("network.htlc", "repro.network.htlc", "HtlcRouter.lock", "span"),
    ("network.htlc", "repro.network.htlc", "HtlcRouter.settle", "span"),
    ("network.htlc", "repro.network.htlc", "HtlcRouter.fail", "span"),
    ("network.htlc", "repro.network.htlc", "HtlcRouter.expire", "span"),
    ("network.betweenness", "repro.network.betweenness",
     "pair_weighted_betweenness", "span"),
    ("core.join_model", "repro.core.utility", "JoiningUserModel.__init__", "span"),
    ("equilibrium.best_response", "repro.equilibrium.nash", "best_response", "span"),
    ("evolution.join", "repro.evolution.growth", "ArrivalProcess.join", "span"),
    ("service.serialise", "repro.scenarios.runner", "ScenarioResult.to_dict", "span"),
    ("service.serialise", "repro.service.hashing", "canonical_json", "span"),
    ("service.store_put", "repro.service.store", "ResultStore.put", "span"),
    ("service.store_get", "repro.service.store", "ResultStore.get", "span"),
    ("service.hash", "repro.scenarios.specs", "Scenario.content_hash", "span"),
    ("service.hash", "repro.service.hashing", "scenario_content_hash", "span"),
    ("service.client", "repro.service.daemon", "ServiceClient.request", "client"),
)

#: Attack strategy hooks, wrapped on every strategy class that defines them.
STRATEGY_HOOKS = ("start", "on_tick", "on_resolve")
STRATEGY_SPAN = "attacks.strategy"


class Tracer:
    """In-memory span recorder.

    ``spans`` holds one ``[name, parent, start, end]`` list per span, in
    opening order; ``parent`` is the index of the enclosing span or -1.
    ``counts`` holds the ``count``-kind call counters.
    """

    def __init__(self, clock: Callable[[], float] = monotonic) -> None:
        self.spans: List[List[Any]] = []
        self.counts: Counter = Counter()
        self.ambient = -1
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()

    def begin(self, name: str) -> int:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span = [name, stack[-1] if stack else self.ambient, self._clock(), None]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][3] = self._clock()
        self._local.stack.pop()

    def count(self, name: str) -> None:
        with self._lock:
            self.counts[name] += 1

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line (name, parent, start, end)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def covered(intervals: Iterable[Tuple[float, float]], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: Sequence[Sequence[Any]]) -> Dict[str, float]:
    """Total self time per span name.

    A span's self time is its duration minus the part of its interval
    covered by its direct children (overlapping children, as on the
    daemon's threads, count once).
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for _name, parent, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    totals: Dict[str, float] = defaultdict(float)
    for index, (name, _parent, start, end) in enumerate(spans):
        totals[name] += (end - start) - covered(children.get(index, ()), start, end)
    return dict(totals)


# -- wrappers -----------------------------------------------------------------


def _span(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        token = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(token)

    return wrapper


def _client_span(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """A span that parents the spans other threads open meanwhile."""

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        token = tracer.begin(name)
        tracer.ambient = token
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.ambient = -1
            tracer.end(token)

    return wrapper


def _gen_span(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        inner = fn(*args, **kwargs)
        while True:
            token = tracer.begin(name)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                tracer.end(token)
            yield item

    return wrapper


def _counter(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        tracer.count(name)
        return fn(*args, **kwargs)

    return wrapper


_WRAPPERS = {"span": _span, "client": _client_span, "gen": _gen_span, "count": _counter}


@contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Wrap every target and attack strategy hook for the ``with`` body."""
    undo: List[Tuple[Any, str, Any]] = []

    def patch(owner: Any, attr: str, value: Any) -> None:
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    try:
        for name, module_name, attr, kind in SPAN_TARGETS:
            module = importlib.import_module(module_name)
            make = _WRAPPERS[kind]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                patch(cls, method, make(tracer, name, cls.__dict__[method]))
                continue
            original = getattr(module, attr)
            wrapper = make(tracer, name, original)
            # Rebind every `from ... import name` copy, not just the home module.
            for loaded in list(sys.modules.values()):
                if getattr(loaded, "__name__", "").startswith("repro") and (
                    loaded.__dict__.get(attr) is original
                ):
                    patch(loaded, attr, wrapper)
        strategies = importlib.import_module("repro.attacks.strategies")
        for cls in vars(strategies).values():
            if inspect.isclass(cls) and cls.__module__ == strategies.__name__:
                for hook in STRATEGY_HOOKS:
                    if hook in cls.__dict__:
                        patch(cls, hook, _span(tracer, STRATEGY_SPAN, cls.__dict__[hook]))
        yield
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


def op(tracer: Tracer, fn: Callable[[], Any]) -> Tuple[Any, float]:
    """Run ``fn`` under an :data:`OP_SPAN` root span; returns ``(value, seconds)``."""
    token = tracer.begin(OP_SPAN)
    try:
        value = fn()
    finally:
        tracer.end(token)
    start, end = tracer.spans[token][2:4]
    return value, end - start


def summary(tracer: Tracer) -> Dict[str, Any]:
    """Self time and span count per name, plus the call counters."""
    return {
        "self": self_times(tracer.spans),
        "spans": dict(Counter(span[0] for span in tracer.spans)),
        "counts": dict(tracer.counts),
    }
