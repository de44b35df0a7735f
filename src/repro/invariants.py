"""Checkable runtime invariants of the chunk-caching design.

The paper's algorithms rest on a handful of structural properties —
chunk-range **closure** (Section 3.4), exact partition **coverage** by
``ComputeChunkNums`` (Section 5.2.2), byte conservation in the
byte-budgeted caches, and conservation between an answer's trace and its
accounting record.  This module makes those properties *checkable at
runtime*: subsystems call in at their mutation points and a failed check
raises :class:`~repro.exceptions.InvariantViolation`, which always means
a library bug.

Checking is controlled by the ``REPRO_INVARIANTS`` environment variable
(read at import; tests and tools can override via :func:`set_mode`):

- ``off`` — no checking at all;
- ``cheap`` (the default; ``on``/``1``/``true`` are aliases) — O(1)-ish
  assertions at subsystem boundaries, always safe to leave on;
- ``deep`` (``full`` is an alias) — full structural verification:
  closure per hierarchy level pair, partition disjointness/coverage per
  analyzed query, per-entry cache byte/benefit conservation.

Everything here is duck-typed on purpose: the module imports only
:mod:`repro.exceptions` at runtime, so every layer (``chunks``,
``core``, ``pipeline``) may call it without creating import cycles, and
:mod:`tools.reprolint`'s layering rule (R001) stays intact.
"""

from __future__ import annotations

import math
import os
from typing import TYPE_CHECKING, Any, Iterable

from repro.exceptions import InvariantViolation

if TYPE_CHECKING:
    from repro.chunks.grid import ChunkGrid
    from repro.chunks.ranges import DimensionChunking
    from repro.core.metrics import QueryRecord
    from repro.pipeline.stages import AnalyzedQuery
    from repro.pipeline.trace import ExecutionTrace

__all__ = [
    "OFF",
    "CHEAP",
    "DEEP",
    "mode",
    "set_mode",
    "enabled",
    "deep",
    "counters",
    "reset_counters",
    "require",
    "check_closure",
    "check_partition",
    "check_cache_accounting",
    "check_shard_accounting",
    "check_trace_conservation",
]

OFF = "off"
CHEAP = "cheap"
DEEP = "deep"

_ALIASES = {
    "": CHEAP,
    "on": CHEAP,
    "1": CHEAP,
    "true": CHEAP,
    "cheap": CHEAP,
    "default": CHEAP,
    "off": OFF,
    "0": OFF,
    "false": OFF,
    "none": OFF,
    "deep": DEEP,
    "full": DEEP,
}

#: Checks executed since import / the last :func:`reset_counters`.
_counters = {"cheap": 0, "deep": 0}


def _resolve(raw: str | None) -> str:
    value = (raw or "").strip().lower()
    try:
        return _ALIASES[value]
    except KeyError:
        raise InvariantViolation(
            f"unknown REPRO_INVARIANTS mode {raw!r}; expected one of "
            f"{sorted(set(_ALIASES.values()))}"
        ) from None


_mode = _resolve(os.environ.get("REPRO_INVARIANTS"))


def mode() -> str:
    """The active checking mode (``off`` / ``cheap`` / ``deep``)."""
    return _mode


def set_mode(value: str) -> str:
    """Override the checking mode; returns the previous mode.

    Intended for tests and tools; library code never calls this.
    """
    global _mode
    previous = _mode
    _mode = _resolve(value)
    return previous


def enabled() -> bool:
    """Whether any checking (cheap or deep) is active."""
    return _mode != OFF


def deep() -> bool:
    """Whether deep structural checking is active."""
    return _mode == DEEP


def counters() -> dict[str, int]:
    """How many cheap / deep checks have executed (for tests)."""
    return dict(_counters)


def reset_counters() -> None:
    """Zero the check counters."""
    _counters["cheap"] = 0
    _counters["deep"] = 0


def require(condition: bool, message: str) -> None:
    """Raise :class:`InvariantViolation` unless ``condition`` holds."""
    if not condition:
        raise InvariantViolation(message)


# ----------------------------------------------------------------------
# Closure property (Section 3.4)
# ----------------------------------------------------------------------
def check_closure(chunking: "DimensionChunking") -> None:
    """Verify the closure property of one dimension's chunk ranges.

    For every level: the ranges are disjoint, contiguous, and complete
    (they tile ``[0, cardinality)`` in order).  For every adjacent level
    pair: each parent range's child span is non-empty, the spans tile
    the child index space in order (disjointness + coverage), and each
    span's ordinal extent equals what the hierarchy maps the parent
    range to.
    """
    _counters["deep"] += 1
    dimension = chunking.dimension
    hierarchy = dimension.hierarchy
    name = dimension.name
    for level in range(1, hierarchy.size + 1):
        ranges = chunking.ranges(level)
        cardinality = dimension.cardinality(level)
        require(
            len(ranges) > 0,
            f"{name!r} level {level}: no chunk ranges",
        )
        require(
            ranges[0].lo == 0,
            f"{name!r} level {level}: first range starts at "
            f"{ranges[0].lo}, not 0",
        )
        require(
            ranges[-1].hi == cardinality,
            f"{name!r} level {level}: last range ends at "
            f"{ranges[-1].hi}, not the cardinality {cardinality}",
        )
        for prev, cur in zip(ranges, ranges[1:]):
            require(
                prev.hi == cur.lo,
                f"{name!r} level {level}: ranges [{prev.lo}, {prev.hi}) "
                f"and [{cur.lo}, {cur.hi}) are not contiguous/disjoint",
            )
    for level in range(1, hierarchy.size):
        child_ranges = chunking.ranges(level + 1)
        cursor = 0
        for index, parent in enumerate(chunking.ranges(level)):
            ilo, ihi = chunking.child_span(level, index)
            require(
                ilo == cursor,
                f"{name!r} level {level} range {index}: child span "
                f"starts at {ilo}, expected {cursor} (spans must tile "
                "the child level in order)",
            )
            require(
                ihi > ilo,
                f"{name!r} level {level} range {index}: empty child span",
            )
            lo, hi = hierarchy.map_range(
                level, (parent.lo, parent.hi), level + 1
            )
            require(
                child_ranges[ilo].lo == lo
                and child_ranges[ihi - 1].hi == hi,
                f"{name!r} level {level} range {index}: child span "
                f"covers [{child_ranges[ilo].lo}, "
                f"{child_ranges[ihi - 1].hi}) but the hierarchy maps the "
                f"parent to [{lo}, {hi})",
            )
            cursor = ihi
        require(
            cursor == len(child_ranges),
            f"{name!r} level {level}: child spans cover {cursor} of "
            f"{len(child_ranges)} ranges at level {level + 1}",
        )


# ----------------------------------------------------------------------
# Partition disjointness / coverage (Section 5.2.2)
# ----------------------------------------------------------------------
def check_partition(analyzed: "AnalyzedQuery", grid: "ChunkGrid") -> None:
    """Verify an analyzed query's partitions against the chunk grid.

    The partition list must be strictly ascending (unique chunk numbers
    — grid cells are disjoint by construction, so uniqueness is
    geometric disjointness), every number's coordinates must lie inside
    the selection's per-dimension chunk spans, the count must equal the
    spans' cross-product size (with membership and uniqueness this is
    exact coverage), and every chunk's cell ranges must genuinely
    intersect the selection intervals (the bounding envelope is tight at
    chunk granularity).
    """
    _counters["deep"] += 1
    partitions = list(analyzed.partitions)
    for prev, cur in zip(partitions, partitions[1:]):
        require(
            prev < cur,
            f"partitions not strictly ascending: {prev} before {cur}",
        )
    selections = analyzed.query.selections
    spans = grid.selection_spans(selections)
    expected = math.prod(hi - lo for lo, hi in spans)
    require(
        len(partitions) == expected,
        f"partition count {len(partitions)} != {expected} chunks in the "
        f"selection's spans {spans}",
    )
    for number in partitions:
        coords = grid.coords_of(number)
        for axis, (coord, (lo, hi)) in enumerate(zip(coords, spans)):
            require(
                lo <= coord < hi,
                f"chunk {number} coordinate {coord} on dimension {axis} "
                f"outside the selection span [{lo}, {hi})",
            )
        for axis, (rng, interval) in enumerate(
            zip(grid.cell_ranges(number), selections)
        ):
            if rng is None or interval is None:
                continue
            require(
                rng.lo < interval[1] and interval[0] < rng.hi,
                f"chunk {number} range [{rng.lo}, {rng.hi}) on dimension "
                f"{axis} does not intersect the selection "
                f"[{interval[0]}, {interval[1]})",
            )


# ----------------------------------------------------------------------
# Cache byte / benefit conservation
# ----------------------------------------------------------------------
def check_cache_accounting(
    used_bytes: int,
    capacity_bytes: int,
    entries: Iterable[Any] | None = None,
    owner: str = "cache",
) -> None:
    """Verify a byte-budgeted cache's accounting after a mutation.

    Cheap: the charged bytes are within ``[0, capacity]``.  Deep (pass
    ``entries``, anything with ``size_bytes`` and ``benefit``): the
    charged bytes equal the sum of resident entry sizes exactly, and
    every entry carries a finite, non-negative benefit weight.
    """
    _counters["cheap"] += 1
    require(
        used_bytes >= 0,
        f"{owner}: used_bytes went negative ({used_bytes})",
    )
    require(
        used_bytes <= capacity_bytes,
        f"{owner}: used_bytes {used_bytes} exceeds capacity "
        f"{capacity_bytes}",
    )
    if entries is None:
        return
    _counters["deep"] += 1
    total = 0
    count = 0
    for entry in entries:
        size = entry.size_bytes
        require(
            size >= 0,
            f"{owner}: entry with negative size {size}",
        )
        benefit = entry.benefit
        require(
            math.isfinite(benefit) and benefit >= 0.0,
            f"{owner}: entry with non-finite or negative benefit "
            f"{benefit!r}",
        )
        total += size
        count += 1
    require(
        total == used_bytes,  # reprolint: ignore[R002] exact byte counts
        f"{owner}: used_bytes {used_bytes} != {total} summed over "
        f"{count} resident entries (byte conservation)",
    )


def check_shard_accounting(
    shard_used: Iterable[int],
    shard_capacities: Iterable[int],
    global_used: int,
    global_capacity: int,
    owner: str = "sharded cache",
) -> None:
    """Verify a lock-striped cache's global accounting against its shards.

    The caller must present a consistent snapshot (all shard locks held,
    plus the accounting lock).  Checks: every shard charge lies within
    its own budget, the shard budgets sum to the global capacity, and the
    shard charges sum to the global byte counter — the cross-shard
    conservation that the per-shard :func:`check_cache_accounting` calls
    cannot see.
    """
    _counters["cheap"] += 1
    used = list(shard_used)
    capacities = list(shard_capacities)
    require(
        len(used) == len(capacities),
        f"{owner}: {len(used)} shard charges vs {len(capacities)} budgets",
    )
    for index, (charged, budget) in enumerate(zip(used, capacities)):
        require(
            0 <= charged <= budget,
            f"{owner}: shard {index} charged {charged} outside its "
            f"budget [0, {budget}]",
        )
    require(
        sum(capacities) == global_capacity,  # reprolint: ignore[R002] bytes
        f"{owner}: shard budgets sum to {sum(capacities)}, not the "
        f"global capacity {global_capacity}",
    )
    require(
        sum(used) == global_used,  # reprolint: ignore[R002] exact bytes
        f"{owner}: shard charges sum to {sum(used)} but the global "
        f"counter says {global_used} (cross-shard byte conservation)",
    )


# ----------------------------------------------------------------------
# Trace conservation
# ----------------------------------------------------------------------
def check_trace_conservation(
    trace: "ExecutionTrace", record: "QueryRecord"
) -> None:
    """Verify an execution trace is conserved against its record.

    Stage page counts must sum to the trace's backend total, which must
    equal the record's; resolver attribution must sum to the partition
    total, which must equal the record's chunk total; and the record's
    costs must be non-negative with savings bounded by the full cost
    (tolerating float-summation rounding only).
    """
    _counters["cheap"] += 1
    # One check per answered query: the messages are only formatted on
    # the failing branch.
    stage_pages = 0
    for entry in trace.stages:
        stage_pages += entry.pages_read
    if stage_pages != trace.backend_pages:
        raise InvariantViolation(
            f"stage pages_read sum {stage_pages} != trace backend_pages "
            f"{trace.backend_pages}"
        )
    if trace.backend_pages != record.pages_read:
        raise InvariantViolation(
            f"trace backend_pages {trace.backend_pages} != record "
            f"pages_read {record.pages_read}"
        )
    resolved = sum(trace.resolved_by.values())
    if resolved != trace.partitions_total:  # reprolint: ignore[R002] ints
        raise InvariantViolation(
            f"resolver attribution sums to {resolved} of "
            f"{trace.partitions_total} partitions"
        )
    # integer partition counts, not float cost values
    if trace.partitions_total != record.chunks_total:  # reprolint: ignore[R002] int counts
        raise InvariantViolation(
            f"trace partitions_total {trace.partitions_total} != record "
            f"chunks_total {record.chunks_total}"
        )
    if not (record.time >= 0.0 and record.full_cost >= 0.0):
        raise InvariantViolation(
            f"record has negative cost (time={record.time!r}, "
            f"full_cost={record.full_cost!r})"
        )
    slack = 1e-9 * record.full_cost + 1e-12
    if not record.saved_cost <= record.full_cost + slack:
        raise InvariantViolation(
            f"record saved_cost {record.saved_cost!r} exceeds full_cost "
            f"{record.full_cost!r}"
        )
