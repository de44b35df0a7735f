"""The typed snapshot tree behind every cache-report surface.

Both managers' composition reports, ``StreamMetrics.stage_summary()``
and the sharded store's ``contention()`` meet in one frozen dataclass
tree rooted at :class:`Snapshot`:

- ``manager.snapshot()`` (both schemes) returns a :class:`Snapshot`;
- :meth:`Snapshot.to_json` renders one canonical JSON-serializable
  form for tooling.

The tree is built in one accumulation pass per store, in store
iteration order, so its float sums are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Mapping, Sequence

from repro.core.cache import ChunkStore
from repro.core.metrics import StreamMetrics
from repro.schema.star import GroupBy

__all__ = [
    "CacheContention",
    "ChunkCacheSnapshot",
    "FaultStats",
    "GroupByUsage",
    "QueryCacheSnapshot",
    "ShapeUsage",
    "ShardStats",
    "Snapshot",
    "StageStats",
    "build_chunk_snapshot",
]


@dataclass(frozen=True)
class StageStats:
    """Per-stage totals over a stream's execution traces.

    One entry per pipeline stage, in first-seen stage order — the typed
    form of one ``stage_summary()`` bucket: the fields after ``name``
    are the bucket's keys, in the bucket's order.
    """

    name: str
    calls: float
    wall_seconds: float
    modelled_time: float
    partitions: float
    pages_read: float
    tuples_scanned: float
    faults: float
    retries: float
    degraded: float
    backoff_seconds: float
    coalesce_seconds: float

    @classmethod
    def from_bucket(
        cls, name: str, bucket: Mapping[str, float]
    ) -> "StageStats":
        """Typed view of one ``stage_summary()`` bucket."""
        return cls(name=name, **bucket)

    def to_json(self) -> dict[str, float]:
        """The ``stage_summary()`` bucket again, key order included."""
        bucket: dict[str, float] = asdict(self)
        del bucket["name"]
        return bucket


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
class ShardStats:
    """One shard's counters inside a sharded store's contention report."""

    shard: int
    capacity_bytes: int
    used_bytes: int
    entries: int
    hits: int
    misses: int
    evictions: int
    lock_wait_seconds: float
    lock_acquisitions: int
    quarantined: bool
    quarantines: int
    readmissions: int
    quarantine_rejects: int

    def to_json(self) -> dict[str, object]:
        return asdict(self)


@dataclass(frozen=True)
class CacheContention:
    """A sharded store's lock-contention and skew report, typed.

    The typed form of :meth:`repro.serve.ShardedChunkCache.contention`;
    an unsharded store (``contention() == {}``) simply has no
    contention node in its snapshot.
    """

    num_shards: int
    lock_wait_seconds: float
    lock_acquisitions: int
    hit_skew: float
    quarantines: int
    readmissions: int
    quarantine_rejects: int
    per_shard: tuple[ShardStats, ...]

    @classmethod
    def from_mapping(
        cls, raw: Mapping[str, object]
    ) -> "CacheContention":
        """Parse a store's ``contention()`` dictionary."""
        shards = []
        per_shard = raw.get("per_shard")
        if isinstance(per_shard, Sequence):
            for entry in per_shard:
                if isinstance(entry, Mapping):
                    shards.append(
                        ShardStats(
                            shard=int(entry["shard"]),  # type: ignore[call-overload]
                            capacity_bytes=int(entry["capacity_bytes"]),  # type: ignore[call-overload]
                            used_bytes=int(entry["used_bytes"]),  # type: ignore[call-overload]
                            entries=int(entry["entries"]),  # type: ignore[call-overload]
                            hits=int(entry["hits"]),  # type: ignore[call-overload]
                            misses=int(entry["misses"]),  # type: ignore[call-overload]
                            evictions=int(entry["evictions"]),  # type: ignore[call-overload]
                            lock_wait_seconds=float(
                                entry["lock_wait_seconds"]  # type: ignore[arg-type]
                            ),
                            lock_acquisitions=int(
                                entry["lock_acquisitions"]  # type: ignore[call-overload]
                            ),
                            quarantined=bool(entry["quarantined"]),
                            quarantines=int(entry["quarantines"]),  # type: ignore[call-overload]
                            readmissions=int(entry["readmissions"]),  # type: ignore[call-overload]
                            quarantine_rejects=int(
                                entry["quarantine_rejects"]  # type: ignore[call-overload]
                            ),
                        )
                    )
        return cls(
            num_shards=int(raw.get("num_shards", 0)),  # type: ignore[call-overload]
            lock_wait_seconds=float(raw.get("lock_wait_seconds", 0.0)),  # type: ignore[arg-type]
            lock_acquisitions=int(raw.get("lock_acquisitions", 0)),  # type: ignore[call-overload]
            hit_skew=float(raw.get("hit_skew", 0.0)),  # type: ignore[arg-type]
            quarantines=int(raw.get("quarantines", 0)),  # type: ignore[call-overload]
            readmissions=int(raw.get("readmissions", 0)),  # type: ignore[call-overload]
            quarantine_rejects=int(raw.get("quarantine_rejects", 0)),  # type: ignore[call-overload]
            per_shard=tuple(shards),
        )

    def to_json(self) -> dict[str, object]:
        return {
            "num_shards": self.num_shards,
            "lock_wait_seconds": self.lock_wait_seconds,
            "lock_acquisitions": self.lock_acquisitions,
            "hit_skew": self.hit_skew,
            "quarantines": self.quarantines,
            "readmissions": self.readmissions,
            "quarantine_rejects": self.quarantine_rejects,
            "per_shard": [s.to_json() for s in self.per_shard],
        }


@dataclass(frozen=True)
class ChunkCacheSnapshot:
    """Composition and stream aggregates of a chunk-cache manager."""

    used_bytes: int
    capacity_bytes: int
    entries: int
    hit_ratio: float
    evictions: int
    per_groupby: tuple[GroupByUsage, ...]
    stages: tuple[StageStats, ...]
    resolved_by: tuple[tuple[str, int], ...]
    poisoned_puts: int
    pressure_evictions: int
    contention: CacheContention | None
    # Per-tier counters of a multi-tier store (the raw ``tiers()``
    # mapping); None for single-tier stores so their rendered output
    # stays byte-identical to the pre-tiering tree.
    tiers: Mapping[str, object] | None = None

    def fault_stats(self) -> FaultStats:
        """The fault summary, derived from the per-stage totals.

        Sums are taken in stage order.
        """
        return FaultStats(
            poisoned_puts=self.poisoned_puts,
            pressure_evictions=self.pressure_evictions,
            faults=sum(s.faults for s in self.stages),
            retries=sum(s.retries for s in self.stages),
            degraded=sum(s.degraded for s in self.stages),
            backoff_seconds=sum(s.backoff_seconds for s in self.stages),
        )

    def to_json(self) -> dict[str, object]:
        faults = self.fault_stats()
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
                stage.name: stage.to_json()
                for stage in self.stages
            },
            "resolved_by": dict(self.resolved_by),
            "faults": {
                "poisoned_puts": faults.poisoned_puts,
                "pressure_evictions": faults.pressure_evictions,
                "faults": float(faults.faults),
                "retries": float(faults.retries),
                "degraded": float(faults.degraded),
                "backoff_seconds": float(faults.backoff_seconds),
            },
        }
        if self.contention is not None:
            out["contention"] = self.contention.to_json()
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
    stages: tuple[StageStats, ...]
    resolved_by: tuple[tuple[str, int], ...]

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
                stage.name: stage.to_json()
                for stage in self.stages
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


def collect_stages(metrics: StreamMetrics) -> tuple[StageStats, ...]:
    """Typed per-stage totals, in first-seen stage order."""
    summary = metrics.stage_summary()
    return tuple(
        StageStats.from_bucket(name, bucket)
        for name, bucket in summary.items()
    )


def collect_resolved(
    metrics: StreamMetrics,
) -> tuple[tuple[str, int], ...]:
    """Typed per-resolver totals, in first-seen resolver order."""
    return tuple(metrics.resolver_summary().items())


def build_chunk_snapshot(
    cache: ChunkStore, metrics: StreamMetrics
) -> Snapshot:
    """Snapshot a chunk-scheme cache and its stream aggregates.

    Accumulates the per-group-by breakdown in a single pass in store
    order (so the float benefit sums are reproducible), then sorts by
    resident bytes descending (stable, preserving first-seen order
    among ties).
    """
    per_groupby: dict[GroupBy, dict[str, float]] = {}
    for key, entry in cache.snapshot():
        bucket = per_groupby.setdefault(
            key.groupby, {"chunks": 0, "bytes": 0, "benefit": 0.0}
        )
        bucket["chunks"] += 1
        bucket["bytes"] += entry.size_bytes
        bucket["benefit"] += entry.benefit
    usages = tuple(
        GroupByUsage(
            groupby=groupby,
            chunks=int(bucket["chunks"]),
            bytes=int(bucket["bytes"]),
            benefit=bucket["benefit"],
        )
        for groupby, bucket in sorted(
            per_groupby.items(),
            key=lambda item: item[1]["bytes"],
            reverse=True,
        )
    )
    stats = cache.stats
    raw_contention = cache.contention()
    raw_tiers = cache.tiers()
    return Snapshot(
        kind="chunk",
        cache=ChunkCacheSnapshot(
            used_bytes=cache.used_bytes,
            capacity_bytes=cache.capacity_bytes,
            entries=len(cache),
            hit_ratio=stats.hit_ratio,
            evictions=stats.evictions,
            per_groupby=usages,
            stages=collect_stages(metrics),
            resolved_by=collect_resolved(metrics),
            poisoned_puts=stats.poisoned,
            pressure_evictions=stats.pressure_evictions,
            contention=(
                CacheContention.from_mapping(raw_contention)
                if raw_contention
                else None
            ),
            tiers=raw_tiers if raw_tiers else None,
        ),
    )
