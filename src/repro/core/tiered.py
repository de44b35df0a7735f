"""The two-tier chunk cache: in-memory L1 over the persistent chunk log.

:class:`TieredChunkCache` implements the
:class:`~repro.core.cache.ChunkStore` protocol by layering the existing
in-memory cache (a :class:`~repro.core.cache.ChunkCache` or the serving
layer's sharded store) over the persistent, append-only
:class:`~repro.storage.chunklog.ChunkLog` (see ``docs/TIERING.md``):

- **Spill on eviction.**  The L1 store's eviction observer
  (``evict_hook``) fires for every victim; victims whose CLOCK benefit
  clears ``demote_min_benefit`` are *demoted* — encoded and appended to
  the log as a charged write.  Low-benefit victims are simply dropped,
  exactly as before (DynaMat's "don't trash your intermediates" policy,
  applied only where the intermediate is worth the pages).
- **Promote on L2 hit.**  An L1 miss whose key is live in the log reads
  the record back (a charged, CRC-verified read), re-inserts the chunk
  into L1 and returns it.  The caller sees a hit; the page cost of the
  promotion is attributed to the L2 tier's accounting disk, never
  hidden (see :meth:`tiers`).
- **One table.**  The log's manifest is the only record of what is
  live in L2: the tier derives a key's token with :func:`chunk_token`
  per probe and parses tokens back (:func:`token_key`) only on the
  cold paths (``keys``, ``snapshot``, ``reopen``, construction).
- **Warm restart.**  :meth:`reopen` ranks the log's live records,
  trims them to the benefit-ranked prefix that fits
  ``l2_budget_bytes`` (when a budget is set), and refills L1
  highest-benefit-first until the budget is reached, so a restarted
  stack starts warm instead of cold.
- **L2 byte budget.**  ``l2_budget_bytes`` caps live payload bytes in
  the log: a spill that would overflow first evicts the
  lowest-benefit live records (charged tombstones; ties broken by
  manifest position, a key's last spill), and a single record larger
  than the whole budget is never spilled (``budget_skipped``).
  ``None`` (the default) leaves the tier unbounded, exactly as before.
- **Compaction trigger.**  With ``compact_threshold`` set, any
  operation that grows dead space (spill supersede, invalidate,
  budget eviction, clear) checks the log's dead/total page ratio and
  runs :meth:`~repro.storage.chunklog.ChunkLog.compact` once it crosses
  the threshold.  ``None`` (the default) never compacts — existing
  digests cannot move.
- **Degrade, never corrupt.**  Spill/promote I/O faults are retried
  once when transient and otherwise dropped (a failed spill loses a
  *copy*, never the truth; a failed promote is an L2 miss).  A CRC
  mismatch quarantines the record.  A streak of :data:`FAILURE_LIMIT`
  consecutive L2 I/O failures disables the tier entirely — the cache
  degrades to plain L1 behaviour rather than hammering a poisoned log.

With ``evict_hook`` left uninstalled (single-tier stacks) none of this
module is on any code path — 1-tier behaviour is bit-identical to a
build without it.
"""

from __future__ import annotations

import json
import struct
from functools import lru_cache
from typing import Callable, TypeVar

import numpy as np

from repro.core.cache import (
    ChunkCacheStats,
    ChunkStore,
    EvictHook,
    FaultHook,
)
from repro.core.chunk import CachedChunk, ChunkKey
from repro.exceptions import (
    CacheError,
    ChunkLogCorruption,
    ChunkLogError,
    DiskFault,
)
from repro.storage.chunklog import ChunkLog

__all__ = [
    "FAILURE_LIMIT",
    "TieredChunkCache",
    "chunk_token",
    "token_key",
    "encode_chunk",
    "decode_chunk",
]

#: Payload format tag.  Read as the little-endian u32 "meta length" an
#: older build expects in this position it is ~4.28e9 — larger than any
#: record the log can frame — so that build rejects the payload too
#: instead of reinterpreting it (docs/TIERING.md §Payload).
_PAYLOAD_TAG = b"PK1\xff"
#: tag | benefit f64 | compute_pages f64 | row count u32 | descriptor len u16
_HEADER = struct.Struct("<4sddIH")
_DTYPE_MEMO = 64

#: Consecutive L2 I/O failures (spill or promote) after which the tier
#: disables itself and the cache degrades to L1-only.
FAILURE_LIMIT = 8


def chunk_token(key: ChunkKey) -> str:
    """Canonical, deterministic string identity of a chunk key.

    Used as the chunk-log record token; :func:`token_key` inverts it.
    Canonical JSON (sorted keys, no whitespace, sorted predicate set) so
    equal keys always map to byte-equal tokens across processes:
    ``{"a":[[measure,aggregate],...],"g":[levels],"n":number,"p":[tags]}``.
    The text around the number is serialised once per shape
    (:attr:`~repro.core.chunk.ChunkShape.token_prefix` / ``_suffix``).
    """
    shape, number = key
    return f"{shape.token_prefix}{number:d}{shape.token_suffix}"


def token_key(token: str) -> ChunkKey:
    """Rebuild the :class:`ChunkKey` a :func:`chunk_token` encodes."""
    data = json.loads(token)
    return ChunkKey(
        groupby=tuple(int(level) for level in data["g"]),
        number=int(data["n"]),
        aggregates=tuple(
            (str(name), str(agg)) for name, agg in data["a"]
        ),
        fixed_predicates=frozenset(str(tag) for tag in data["p"]),
    )


@lru_cache(maxsize=_DTYPE_MEMO)
def _describe(dtype: np.dtype) -> bytes:
    """The descriptor bytes of a row dtype: canonical JSON of its
    ``descr`` (explicit byte order per field).  Serialised once per
    dtype — a process sees a handful of row dtypes."""
    spec = dtype.str if dtype.names is None else dtype.descr
    descriptor = json.dumps(spec, separators=(",", ":")).encode("utf-8")
    if len(descriptor) > 0xFFFF or _dtype_of(descriptor) != dtype:
        raise ChunkLogError(f"row dtype {dtype!r} has no exact descriptor")
    return descriptor


@lru_cache(maxsize=_DTYPE_MEMO)
def _dtype_of(descriptor: bytes) -> np.dtype:
    """Inverse of :func:`_describe`, parsed once per descriptor."""
    try:
        spec = json.loads(descriptor)
        if isinstance(spec, list):
            spec = [
                (str(field[0]), str(field[1]), *map(tuple, field[2:]))
                for field in spec
            ]
        elif not isinstance(spec, str):
            raise TypeError(f"dtype spec is a {type(spec).__name__}")
        return np.dtype(spec)
    except (ValueError, TypeError, IndexError) as exc:
        raise ChunkLogError(f"malformed dtype descriptor: {exc}") from exc


def encode_chunk(entry: CachedChunk) -> bytes:
    """Serialize a cached chunk's value into a chunk-log payload.

    One packed record (``docs/TIERING.md`` §Payload): format tag +
    fixed header (benefit f64, compute_pages f64, row count u32,
    descriptor length u16) + dtype descriptor + contiguous row bytes,
    little-endian, assembled with one copy of the rows.  Floats travel
    as IEEE doubles and the descriptor carries explicit byte order, so
    the payload is an exact, self-describing, pure function of the
    entry — suitable for golden pinning.
    """
    rows = entry.rows
    if rows.ndim != 1:
        raise ChunkLogError(
            f"chunk rows must be one-dimensional, got shape {rows.shape}"
        )
    descriptor = _describe(rows.dtype)
    header = _HEADER.pack(
        _PAYLOAD_TAG,
        entry.benefit,
        entry.compute_pages,
        len(rows),
        len(descriptor),
    )
    return b"".join((header, descriptor, np.ascontiguousarray(rows).data))


def decode_chunk(key: ChunkKey, payload: bytes | memoryview) -> CachedChunk:
    """Inverse of :func:`encode_chunk` for a known key.

    The returned chunk's ``rows`` are a **read-only view** of
    ``payload`` (no copy) — the caller hands over an immutable buffer,
    which the chunk keeps alive.  Raises
    :class:`~repro.exceptions.ChunkLogError` on a payload this build
    did not write (foreign tag, e.g. an older build's layout) or whose
    lengths disagree — callers treat that like a corrupt record
    (quarantine), never reinterpret it.
    """
    if len(payload) < _HEADER.size:
        raise ChunkLogError("chunk payload too short for its header")
    tag, benefit, compute_pages, count, descriptor_len = _HEADER.unpack_from(
        payload, 0
    )
    if tag != _PAYLOAD_TAG:
        raise ChunkLogError(
            f"chunk payload tag {tag!r} was not written by this build"
        )
    rows_at = _HEADER.size + descriptor_len
    if rows_at > len(payload):
        raise ChunkLogError("chunk payload descriptor extends past the record")
    dtype = _dtype_of(bytes(payload[_HEADER.size : rows_at]))
    if count * dtype.itemsize != len(payload) - rows_at:
        raise ChunkLogError(
            f"chunk payload holds {len(payload) - rows_at} row bytes, "
            f"its header promises {count} x {dtype.itemsize}"
        )
    try:
        rows = np.frombuffer(payload, dtype=dtype, count=count, offset=rows_at)
    except ValueError as exc:
        raise ChunkLogError(f"malformed chunk payload: {exc}") from exc
    return CachedChunk(
        key=key, rows=rows, benefit=benefit, compute_pages=compute_pages
    )


class TieredChunkCache:
    """A :class:`ChunkStore` layering an in-memory L1 over a chunk log.

    Args:
        l1: The in-memory tier — any ``ChunkStore``; the tiered cache
            installs its spill path as the store's ``evict_hook``.
        log: The persistent tier.  The tiered cache owns it from here
            on (:meth:`close` closes it).
        demote_min_benefit: Spill threshold — victims whose benefit is
            below it are dropped, not demoted.  ``0.0`` demotes every
            victim (all real benefits are positive).
        l2_budget_bytes: Cap on live payload bytes in the log.
            Spills evict the lowest-benefit live records to make room
            (charged tombstones); a record larger than the whole
            budget is never spilled.  ``None`` = unbounded (the PR 8
            behaviour, bit-identical).
        compact_threshold: Dead-space ratio (``dead / (dead + live)``
            pages) at which dead-space-growing operations trigger a
            log compaction.  ``None`` = never compact.

    ``capacity_bytes``/``used_bytes`` are the L1 budget.  ``stats``
    folds L2 hits into the combined hit/miss counters: a lookup served
    by promotion counts as a hit of the store, not a miss, which is
    what the cost model should see.  ``evict_hook`` observes every L1
    eviction (after its spill), ``fault_hook`` is L1's.
    """

    def __init__(
        self,
        l1: ChunkStore,
        log: ChunkLog,
        demote_min_benefit: float = 0.0,
        l2_budget_bytes: int | None = None,
        compact_threshold: float | None = None,
    ) -> None:
        if demote_min_benefit < 0.0:
            raise CacheError(
                f"negative demotion threshold {demote_min_benefit}"
            )
        if l2_budget_bytes is not None and l2_budget_bytes < 0:
            raise CacheError(
                f"negative L2 byte budget {l2_budget_bytes}"
            )
        if compact_threshold is not None and not (
            0.0 < compact_threshold <= 1.0
        ):
            raise CacheError(
                f"compact_threshold must be in (0, 1], got {compact_threshold}"
            )
        self._l1 = l1
        self.log = log
        self.demote_min_benefit = demote_min_benefit
        self.l2_budget_bytes = l2_budget_bytes
        self.compact_threshold = compact_threshold
        self.evict_hook: EvictHook | None = None
        self._l2_enabled = True
        self._failure_streak = 0
        self._warming = False
        self._l2_hits = 0
        self._l2_misses = 0
        self._spills = 0
        self._spill_skipped = 0
        self._spill_faults = 0
        self._promotes = 0
        self._promote_faults = 0
        self._quarantined = 0
        self._warm_loaded = 0
        self._l2_evictions = 0
        self._budget_skipped = 0
        self._compact_faults = 0
        l1.evict_hook = self._on_evict
        self._l2_records()  # quarantines the tokens this build cannot parse

    # ------------------------------------------------------------------
    # ChunkStore protocol
    # ------------------------------------------------------------------
    @property
    def capacity_bytes(self) -> int:
        """The L1 byte budget (see ``l2_budget_bytes`` for the L2 cap)."""
        return self._l1.capacity_bytes

    @property
    def used_bytes(self) -> int:
        """Bytes charged against the L1 budget."""
        return self._l1.used_bytes

    @property
    def stats(self) -> ChunkCacheStats:
        """Combined counters: L2 promotions count as hits, not misses."""
        base = self._l1.stats
        l2_hits = self._l2_hits
        return ChunkCacheStats(
            hits=base.hits + l2_hits,
            misses=base.misses - l2_hits,
            insertions=base.insertions,
            evictions=base.evictions,
            rejected=base.rejected,
            poisoned=base.poisoned,
            pressure_evictions=base.pressure_evictions,
        )

    def __len__(self) -> int:
        if not self._l2_enabled:
            return len(self._l1)
        log = self.log
        in_both = sum(chunk_token(key) in log for key in self._l1.keys())
        return len(self._l1) + len(log) - in_both

    def __contains__(self, key: ChunkKey) -> bool:
        if key in self._l1:
            return True
        return self._l2_enabled and chunk_token(key) in self.log

    def get(self, key: ChunkKey) -> CachedChunk | None:
        """L1 lookup, falling back to a charged L2 promote on miss."""
        entry = self._l1.get(key)
        if entry is not None:
            return entry
        return self._promote(key)

    def peek(self, key: ChunkKey) -> CachedChunk | None:
        """Uncharged lookup across both tiers; no stats, no promotion."""
        entry = self._l1.peek(key)
        if entry is not None:
            return entry
        token = chunk_token(key)
        if not self._l2_enabled or token not in self.log:
            return None
        return self._read_uncharged(key, token)

    def put(self, entry: CachedChunk) -> bool:
        """Insert into L1; demotion happens via the eviction spill hook."""
        return self._l1.put(entry)

    def invalidate(self, key: ChunkKey) -> bool:
        """Drop a key from both tiers (the L2 drop is a charged tombstone).

        A faulted tombstone still drops the record from the log's live
        set (``ChunkLog.delete``): it is dead to this process, and a
        restart scan may resurrect it, which invalidation semantics
        accept for a *cache* (the base data re-derives the truth).
        """
        removed = self._l1.invalidate(key)
        token = chunk_token(key)
        if token in self.log:
            try:
                self.log.delete(token)
            except DiskFault:
                self._spill_faults += 1
                self._note_failure()
            removed = True
            self._maybe_compact()
        return removed

    def clear(self) -> None:
        """Drop both tiers (one charged clear-all record in the log; a
        faulted one empties the live set all the same)."""
        self._l1.clear()
        try:
            self.log.clear()
        except DiskFault:
            self._spill_faults += 1
            self._note_failure()
        self._maybe_compact()

    def keys(self) -> list[ChunkKey]:
        """L1 keys, then L2-only keys in manifest order (snapshot)."""
        found = self._l1.keys()
        found.extend(key for key, _token in self._l2_only())
        return found

    def snapshot(self) -> list[tuple[ChunkKey, CachedChunk]]:
        """Point-in-time pairs across both tiers (L2 decodes uncharged)."""
        pairs = self._l1.snapshot()
        for key, token in self._l2_only():
            entry = self._read_uncharged(key, token)
            if entry is not None:
                pairs.append((key, entry))
        return pairs

    def contention(self) -> dict[str, object]:
        """The L1 store's contention counters (the log has none)."""
        return self._l1.contention()

    def tiers(self) -> dict[str, object]:
        """Per-tier counters — the snapshot tree renders these when
        non-empty (single-tier stores return ``{}``)."""
        l1_stats = self._l1.stats
        l1: dict[str, object] = {
            "entries": len(self._l1),
            "used_bytes": int(self._l1.used_bytes),
            "capacity_bytes": int(self._l1.capacity_bytes),
            "hits": l1_stats.hits,
            "misses": l1_stats.misses,
            "evictions": l1_stats.evictions,
        }
        log_stats = self.log.stats
        disk_stats = self.log.disk.stats
        space = self.log.counters()
        lookups = self._l2_hits + self._l2_misses
        l2: dict[str, object] = {
            "entries": len(self.log),
            "live_bytes": self.log.live_bytes,
            "hits": self._l2_hits,
            "misses": self._l2_misses,
            "hit_ratio": self._l2_hits / lookups if lookups else 0.0,
            "spills": self._spills,
            "spill_skipped": self._spill_skipped,
            "spill_faults": self._spill_faults,
            "promotes": self._promotes,
            "promote_faults": self._promote_faults,
            "quarantined": self._quarantined,
            "warm_loaded": self._warm_loaded,
            "degraded": not self._l2_enabled,
            "pages_written": disk_stats.writes,
            "pages_read": disk_stats.reads,
            "scan_pages": log_stats.scan_pages,
            "live_pages": space["live_pages"],
            "dead_pages": space["dead_pages"],
            "compactions": space["compactions"],
            "reclaimed_pages": space["reclaimed_pages"],
            "compact_faults": self._compact_faults,
            "evictions": self._l2_evictions,
            "budget_skipped": self._budget_skipped,
            "budget_bytes": self.l2_budget_bytes,
        }
        return {
            "l1": l1,
            "l2": l2,
            "demote_min_benefit": self.demote_min_benefit,
        }

    # ------------------------------------------------------------------
    # Tier plumbing
    # ------------------------------------------------------------------
    @property
    def fault_hook(self) -> FaultHook | None:
        """The cache-put fault hook, which is L1's: assigning it
        installs it on the L1 store."""
        return self._l1.fault_hook

    @fault_hook.setter
    def fault_hook(self, hook: FaultHook | None) -> None:
        self._l1.fault_hook = hook

    def check_conservation(self) -> None:
        """L1 conservation and exact L2 page reconciliation.

        The log's logical page counters must equal its accounting
        disk's counters *exactly* — spills, promotions, tombstones and
        restart scans account for every page, even pages charged by
        operations a fault later aborted.
        """
        checker = getattr(self._l1, "check_conservation", None)
        if callable(checker):
            checker()
        self.log.check_conservation()

    def reopen(self) -> int:
        """Warm-start: refill L1 from the records live in the log.

        With ``l2_budget_bytes`` set, the live set is first trimmed to
        the **benefit-ranked prefix** that fits the budget (ties broken
        by manifest order): ranking stops at the first record that
        does not fit and everything ranked below it is dropped with
        charged tombstones — a zero budget drops everything, a single
        record larger than the budget is dropped even when alone.

        L1 candidates then load highest-benefit-first (ties broken by
        manifest order, so the fill is deterministic) and stop charging
        the L1 budget exactly at capacity — an entry that does not fit
        is skipped, smaller ones may still fit.  Decodes ride on the
        open scan's already-charged reads (no double charge); corrupt
        records are quarantined, not fatal.  Returns entries loaded.
        """
        ranked = sorted(
            (-benefit, position, key, token, size)
            for position, (key, token, benefit, size) in enumerate(
                self._l2_records()
            )
        )
        if self.l2_budget_bytes is not None:
            kept = 0
            fits = True
            for _neg_benefit, _position, _key, token, size in ranked:
                if fits and kept + size <= self.l2_budget_bytes:
                    kept += size
                    continue
                fits = False
                self._budget_evict(token)
            self._maybe_compact()
        self._warming = True
        loaded = 0
        try:
            for _neg_benefit, _position, key, token, _size in ranked:
                if token not in self.log:
                    continue
                entry = self._read_uncharged(key, token)
                if entry is None or key in self._l1:
                    continue
                if (
                    self._l1.used_bytes + entry.size_bytes
                    > self._l1.capacity_bytes
                ):
                    continue
                if self._l1.put(entry):
                    loaded += 1
        finally:
            self._warming = False
            self._warm_loaded += loaded
        return loaded

    def close(self) -> None:
        """Detach the spill hook and close the log (idempotent)."""
        self._l1.evict_hook = None
        self.log.close()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _promote(self, key: ChunkKey) -> CachedChunk | None:
        """Charged L2 read on an L1 miss, re-inserting the chunk into
        L1."""
        token = chunk_token(key)
        if not self._l2_enabled or token not in self.log:
            self._l2_misses += 1
            return None
        try:
            payload = _retry_once(self.log.get, token)
        except ChunkLogCorruption:
            self._quarantine(token)
            self._l2_misses += 1
            return None
        except DiskFault:
            self._promote_faults += 1
            self._l2_misses += 1
            self._note_failure()
            return None
        except ChunkLogError:  # a closed log
            self._l2_misses += 1
            return None
        self._failure_streak = 0
        entry = self._decode(key, token, payload)
        if entry is None:
            self._l2_misses += 1
            return None
        self._l2_hits += 1
        self._promotes += 1
        self._l1.put(entry)
        return entry

    def _on_evict(self, victim: CachedChunk) -> None:
        """L1's eviction observer: spill the victim, then hand it to
        this store's own ``evict_hook``."""
        self._spill(victim)
        if self.evict_hook is not None:
            self.evict_hook(victim)

    def _spill(self, victim: CachedChunk) -> None:
        """Demote the victim when its benefit clears the threshold.
        Never raises — a failed spill loses a copy, not the truth."""
        if self._warming or not self._l2_enabled:
            return
        if victim.benefit < self.demote_min_benefit:
            self._spill_skipped += 1
            return
        token = chunk_token(victim.key)
        payload = encode_chunk(victim)
        if not self._make_room(token, len(payload)):
            self._budget_skipped += 1
            return
        try:
            _retry_once(self.log.put, token, payload, victim.benefit)
        except DiskFault:
            self._spill_faults += 1
            self._note_failure()
            return
        self._failure_streak = 0
        self._spills += 1
        self._maybe_compact()

    def _make_room(self, token: str, need: int) -> bool:
        """Evict lowest-benefit live records until ``need`` payload
        bytes fit the L2 budget.  Returns False when the record alone
        exceeds the budget (never spilled).  Evictions are charged
        tombstones; ties break by manifest position."""
        budget = self.l2_budget_bytes
        if budget is None or self.log.live_bytes + need <= budget:
            return True
        if need > budget:
            return False
        current = self.log.live_bytes
        ranked = []
        for position, (live, benefit, size) in enumerate(self.log.scan_keys()):
            if live == token:
                # A re-spill of a live key replaces it: its current
                # bytes come back before the new payload is charged.
                current -= size
            else:
                ranked.append((benefit, position, live, size))
        for _benefit, _position, victim, size in sorted(ranked):
            if current + need <= budget:
                break
            current -= size
            self._budget_evict(victim)
        return True

    def _budget_evict(self, token: str) -> None:
        """Budget eviction: a charged tombstone (a faulted one drops
        the record from the live set all the same)."""
        try:
            self.log.delete(token)
        except DiskFault:
            self._spill_faults += 1
            self._note_failure()
        self._l2_evictions += 1

    def _maybe_compact(self) -> None:
        """Run a log compaction once dead space crosses the
        configured ratio.  A faulted compaction leaves the log
        unchanged (its contract) — count it and move on; no degrade,
        nothing was lost."""
        if self.compact_threshold is None:
            return
        space = self.log.counters()
        total = space["live_pages"] + space["dead_pages"]
        if total <= 0 or space["dead_pages"] / total < self.compact_threshold:
            return
        try:
            self.log.compact()
        except DiskFault:
            self._compact_faults += 1

    def _read_uncharged(self, key: ChunkKey, token: str) -> CachedChunk | None:
        """The uncharged L2 read of ``peek``, ``snapshot`` and
        ``reopen``: a torn record or a malformed payload is quarantined
        and reads as absent, as on the charged path; a closed log reads
        as absent."""
        try:
            payload = self.log.peek(token)
        except ChunkLogCorruption:
            self._quarantine(token)
            return None
        except ChunkLogError:
            return None
        return self._decode(key, token, payload)

    def _decode(
        self, key: ChunkKey, token: str, payload: bytes | memoryview
    ) -> CachedChunk | None:
        """Decode a record, quarantining it on a malformed payload."""
        try:
            return decode_chunk(key, payload)
        except ChunkLogError:
            self._quarantine(token)
            return None

    def _quarantine(self, token: str) -> None:
        self.log.drop(token)
        self._quarantined += 1

    def _note_failure(self) -> None:
        self._failure_streak += 1
        if self._failure_streak >= FAILURE_LIMIT:
            self._l2_enabled = False

    def _l2_records(self) -> list[tuple[ChunkKey, str, float, int]]:
        """``(key, token, benefit, payload bytes)`` of every record live
        in the log, in manifest order.  A token this build cannot parse
        is quarantined: the record may belong to a future key schema."""
        records = []
        for token, benefit, size in self.log.scan_keys():
            try:
                key = token_key(token)
            except (ValueError, KeyError, TypeError):
                self._quarantine(token)
                continue
            records.append((key, token, benefit, size))
        return records

    def _l2_only(self) -> list[tuple[ChunkKey, str]]:
        """L2 keys not resident in L1, with their tokens."""
        if not self._l2_enabled:
            return []
        return [
            (key, token)
            for key, token, _benefit, _size in self._l2_records()
            if key not in self._l1
        ]


_T = TypeVar("_T")


def _retry_once(call: Callable[..., _T], *args: object) -> _T:
    """``call(*args)``, repeated once if it raises a transient
    :class:`~repro.exceptions.DiskFault`."""
    try:
        return call(*args)
    except DiskFault as fault:
        if not fault.transient:
            raise
        return call(*args)
