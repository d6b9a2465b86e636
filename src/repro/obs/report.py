"""The :class:`RunTelemetry` artifact and the hot-spot report built on it.

``RunTelemetry`` is the frozen, schema-versioned summary of one
instrumented run: counters, per-phase wall time, histograms, the top
conflicting edges of the batched backend, and derived cache rates. It
rides *alongside* the result artifacts — :func:`attach_telemetry` pins
it onto a ``SimulationMetrics`` / ``AttackReport`` / ``Trajectory``
without entering their ``to_dict`` documents, so result hashing, the
content-addressed store, and every existing round-trip contract are
untouched by instrumentation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

__all__ = [
    "RunTelemetry",
    "TELEMETRY_SCHEMA_VERSION",
    "attach_telemetry",
    "hotspot_table",
    "telemetry_of",
]

#: Version stamp of the ``RunTelemetry.to_dict`` document layout.
TELEMETRY_SCHEMA_VERSION = 1

#: Side-channel attribute telemetry rides on (never serialised by the
#: host artifact's ``to_dict``).
_TELEMETRY_ATTR = "_repro_telemetry"


@dataclass(frozen=True)
class RunTelemetry:
    """Everything one instrumented run measured, in plain JSON types.

    Attributes:
        counters / gauges: flat name -> value instrument snapshots.
        phase_seconds: wall time per named phase (topology, workload,
            trace, simulate, attack baseline/attacked, evolution phases, ...).
        histograms: name -> ``{"bounds", "counts", "count", "sum"}``.
        top_conflicting_edges: ``(src, dst, conflicts)`` triples, worst
            first — which directed edges invalidated the batched
            backend's cached routing trees.
        cache: derived rates (``conflict_rate``, ``tree_hit_rate``,
            ``mask_builds``, ...) for the hot-spot report.
    """

    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    top_conflicting_edges: Tuple[Tuple[Any, Any, int], ...] = ()
    cache: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": TELEMETRY_SCHEMA_VERSION,
            "counters": {name: self.counters[name]
                         for name in sorted(self.counters)},
            "gauges": {name: self.gauges[name]
                       for name in sorted(self.gauges)},
            "phase_seconds": {name: self.phase_seconds[name]
                              for name in sorted(self.phase_seconds)},
            "histograms": {name: dict(self.histograms[name])
                           for name in sorted(self.histograms)},
            "top_conflicting_edges": [
                [src, dst, count]
                for src, dst, count in self.top_conflicting_edges
            ],
            "cache": {name: self.cache[name] for name in sorted(self.cache)},
        }

    @classmethod
    def from_dict(cls, document: Mapping[str, Any]) -> "RunTelemetry":
        """Rebuild telemetry from a :meth:`to_dict` document (strict)."""
        if not isinstance(document, Mapping):
            raise ValueError(
                f"RunTelemetry document must be a mapping, "
                f"got {type(document).__name__}"
            )
        version = document.get("schema_version", TELEMETRY_SCHEMA_VERSION)
        if version != TELEMETRY_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported RunTelemetry schema_version {version!r}"
            )
        known = {
            "schema_version", "counters", "gauges", "phase_seconds",
            "histograms", "top_conflicting_edges", "cache",
        }
        unknown = set(document) - known
        if unknown:
            raise ValueError(f"unknown RunTelemetry fields: {sorted(unknown)}")
        return cls(
            counters=dict(document.get("counters", {})),
            gauges=dict(document.get("gauges", {})),
            phase_seconds=dict(document.get("phase_seconds", {})),
            histograms={
                name: dict(histogram)
                for name, histogram in document.get("histograms", {}).items()
            },
            top_conflicting_edges=tuple(
                (src, dst, count)
                for src, dst, count in document.get(
                    "top_conflicting_edges", []
                )
            ),
            cache=dict(document.get("cache", {})),
        )

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunTelemetry":
        return cls.from_dict(json.loads(text))


def attach_telemetry(artifact: Any, telemetry: RunTelemetry) -> Any:
    """Pin ``telemetry`` onto ``artifact`` (frozen dataclasses included).

    The attribute is a side channel: it never appears in the artifact's
    ``to_dict`` document, so content hashes and store round-trips are
    byte-identical with and without it.
    """
    object.__setattr__(artifact, _TELEMETRY_ATTR, telemetry)
    return artifact


def telemetry_of(artifact: Any) -> Optional[RunTelemetry]:
    """The telemetry attached to ``artifact``, or ``None``."""
    return getattr(artifact, _TELEMETRY_ATTR, None)


def hotspot_table(telemetry: RunTelemetry, top: int = 10) -> str:
    """Human-readable hot-spot report: edges, phases, cache rates."""
    from ..analysis import format_table

    sections: List[str] = []
    edges = telemetry.top_conflicting_edges[:top]
    if edges:
        rows = [
            {"src": src, "dst": dst, "conflicts": count}
            for src, dst, count in edges
        ]
        sections.append(
            format_table(rows, title=f"top {len(rows)} conflicting edges")
        )
    if telemetry.phase_seconds:
        total = sum(telemetry.phase_seconds.values())
        rows = [
            {
                "phase": name,
                "seconds": seconds,
                "share": seconds / total if total > 0 else 0.0,
            }
            for name, seconds in sorted(
                telemetry.phase_seconds.items(), key=lambda kv: -kv[1]
            )
        ]
        sections.append(format_table(rows, title="per-phase wall time"))
    if telemetry.cache:
        rows = [
            {"rate": name, "value": value}
            for name, value in sorted(telemetry.cache.items())
        ]
        sections.append(format_table(rows, title="cache / conflict rates"))
    if not sections:
        return "no telemetry recorded (was the run instrumented?)"
    return "\n\n".join(sections)
