"""The snapshot tree behind every cache-report surface.

Both managers' composition reports, ``StreamMetrics.stage_summary()``
and the store's ``contention()`` and ``tiers()`` meet in one frozen
dataclass tree rooted at :class:`Snapshot`:

- ``manager.snapshot()`` (both schemes) returns a :class:`Snapshot`;
- :meth:`Snapshot.to_json` renders one canonical JSON-serializable
  form for tooling.

The tree types what it computes (the per-group-by and per-shape
residency, the fault summary) and keeps the mappings the stream and the
store produce as they were returned: ``stages`` is
``stage_summary()``, ``resolved_by`` is ``resolver_summary()``,
``contention`` is ``contention()`` and ``tiers`` is ``tiers()``.

The tree is built in one accumulation pass per store, in store
iteration order, so its float sums are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Hashable, Iterable, Mapping, TypeVar

from repro.core.cache import CacheEntry, ChunkStore
from repro.core.metrics import StreamMetrics
from repro.schema.star import GroupBy

__all__ = [
    "ChunkCacheSnapshot",
    "FaultStats",
    "GroupByUsage",
    "QueryCacheSnapshot",
    "ShapeUsage",
    "Snapshot",
    "build_chunk_snapshot",
    "residency",
]

GroupT = TypeVar("GroupT", bound=Hashable)

#: ``StreamMetrics.stage_summary()``: stage name -> per-stage totals.
StageSummary = Mapping[str, Mapping[str, float]]


@dataclass(frozen=True)
class GroupByUsage:
    """Cache residency of one group-by (chunk scheme).

    ``chunks`` and ``bytes`` are exact integers; ``benefit`` is the
    float sum of the resident entries' benefit values, accumulated in
    cache-snapshot order.
    """

    groupby: GroupBy
    chunks: int
    bytes: int
    benefit: float


@dataclass(frozen=True)
class ShapeUsage:
    """Cache residency of one query shape (query-caching baseline).

    ``key`` is the shape's cache-compatibility key (an opaque hashable;
    stringified by :meth:`Snapshot.to_json`).
    """

    key: object
    results: int
    bytes: int
    benefit: float


@dataclass(frozen=True)
class FaultStats:
    """Injected-fault outcomes summed over the stream (zeros when
    fault-free).

    Cache-level outcomes (``poisoned_puts``, ``pressure_evictions``)
    come from the store's statistics, the rest are sums over the
    per-stage totals.
    """

    poisoned_puts: int
    pressure_evictions: int
    faults: float
    retries: float
    degraded: float
    backoff_seconds: float


@dataclass(frozen=True)
class ChunkCacheSnapshot:
    """Composition and stream aggregates of a chunk-cache manager."""

    used_bytes: int
    capacity_bytes: int
    entries: int
    hit_ratio: float
    evictions: int
    per_groupby: tuple[GroupByUsage, ...]
    stages: StageSummary
    resolved_by: Mapping[str, int]
    poisoned_puts: int
    pressure_evictions: int
    # The store's ``contention()`` and ``tiers()`` mappings; None when
    # the store returns an empty one (it has no counted lock, or one
    # tier), and then the rendered tree has no such node.
    contention: Mapping[str, object] | None
    tiers: Mapping[str, object] | None = None

    def fault_stats(self) -> FaultStats:
        """The fault summary, derived from the per-stage totals.

        Sums are taken in stage order.
        """
        buckets = self.stages.values()
        return FaultStats(
            poisoned_puts=self.poisoned_puts,
            pressure_evictions=self.pressure_evictions,
            faults=sum((b["faults"] for b in buckets), 0.0),
            retries=sum((b["retries"] for b in buckets), 0.0),
            degraded=sum((b["degraded"] for b in buckets), 0.0),
            backoff_seconds=sum((b["backoff_seconds"] for b in buckets), 0.0),
        )

    def to_json(self) -> dict[str, object]:
        out: dict[str, object] = {
            "used_bytes": self.used_bytes,
            "capacity_bytes": self.capacity_bytes,
            "entries": self.entries,
            "hit_ratio": self.hit_ratio,
            "evictions": self.evictions,
            "per_groupby": [
                {
                    "groupby": list(usage.groupby),
                    "chunks": usage.chunks,
                    "bytes": usage.bytes,
                    "benefit": usage.benefit,
                }
                for usage in self.per_groupby
            ],
            "stages": {
                name: dict(bucket) for name, bucket in self.stages.items()
            },
            "resolved_by": dict(self.resolved_by),
            "faults": asdict(self.fault_stats()),
        }
        if self.contention is not None:
            out["contention"] = dict(self.contention)
        if self.tiers:
            out["tiers"] = dict(self.tiers)
        return out


@dataclass(frozen=True)
class QueryCacheSnapshot:
    """Composition and stream aggregates of the query-caching baseline."""

    used_bytes: int
    capacity_bytes: int
    entries: int
    redundancy_ratio: float
    per_shape: tuple[ShapeUsage, ...]
    stages: StageSummary
    resolved_by: Mapping[str, int]

    def to_json(self) -> dict[str, object]:
        return {
            "used_bytes": self.used_bytes,
            "capacity_bytes": self.capacity_bytes,
            "entries": self.entries,
            "redundancy_ratio": self.redundancy_ratio,
            "per_shape": [
                {
                    "key": str(usage.key),
                    "results": usage.results,
                    "bytes": usage.bytes,
                    "benefit": usage.benefit,
                }
                for usage in self.per_shape
            ],
            "stages": {
                name: dict(bucket) for name, bucket in self.stages.items()
            },
            "resolved_by": dict(self.resolved_by),
        }


@dataclass(frozen=True)
class Snapshot:
    """Root of the typed report tree: one cache manager, one instant.

    Attributes:
        kind: ``"chunk"`` or ``"query"`` — which caching scheme the
            snapshot describes.
        cache: The scheme-specific subtree.
    """

    kind: str
    cache: ChunkCacheSnapshot | QueryCacheSnapshot

    def to_json(self) -> dict[str, object]:
        """One canonical JSON-serializable rendering of the tree."""
        return {"kind": self.kind, "cache": self.cache.to_json()}


def residency(
    groups: Iterable[tuple[GroupT, CacheEntry[Any]]],
) -> list[tuple[GroupT, int, int, float]]:
    """``(group, entries, bytes, benefit)`` per group of resident entries.

    Accumulated in a single pass in the given (store) order, so the
    float benefit sums are reproducible, then sorted by bytes
    descending (stable: first-seen order among ties).
    """
    counts: dict[GroupT, int] = {}
    sizes: dict[GroupT, int] = {}
    benefits: dict[GroupT, float] = {}
    for group, entry in groups:
        counts[group] = counts.get(group, 0) + 1
        sizes[group] = sizes.get(group, 0) + entry.size_bytes
        benefits[group] = benefits.get(group, 0.0) + entry.benefit
    rows = [
        (group, counts[group], sizes[group], benefits[group])
        for group in counts
    ]
    rows.sort(key=lambda row: row[2], reverse=True)
    return rows


def build_chunk_snapshot(
    cache: ChunkStore, metrics: StreamMetrics
) -> Snapshot:
    """Snapshot a chunk-scheme cache and its stream aggregates."""
    per_groupby = residency(
        (key.groupby, entry) for key, entry in cache.snapshot()
    )
    stats = cache.stats
    contention = cache.contention()
    tiers = cache.tiers()
    return Snapshot(
        kind="chunk",
        cache=ChunkCacheSnapshot(
            used_bytes=cache.used_bytes,
            capacity_bytes=cache.capacity_bytes,
            entries=len(cache),
            hit_ratio=stats.hit_ratio,
            evictions=stats.evictions,
            per_groupby=tuple(GroupByUsage(*row) for row in per_groupby),
            stages=metrics.stage_summary(),
            resolved_by=metrics.resolver_summary(),
            poisoned_puts=stats.poisoned,
            pressure_evictions=stats.pressure_evictions,
            contention=contention or None,
            tiers=tiers or None,
        ),
    )
