"""The sharded chunk cache.

:class:`ShardedChunkCache` implements the
:class:`~repro.core.cache.ChunkStore` protocol by striping the key space
over N independent :class:`~repro.core.cache.ChunkCache` shards, each
carrying its own slice of the byte budget and its own benefit-CLOCK
replacement state.  A single shard behaves exactly like the unsharded
cache (``num_shards=1`` is bit-identical to a plain
:class:`~repro.core.cache.ChunkCache` of the same budget).

Routing uses :func:`stable_key_hash`, a CRC-32 over a canonical
rendering of the key — **not** the builtin ``hash()``, whose string
hashing is randomized per process (``PYTHONHASHSEED``) and would make
shard placement, and therefore eviction behaviour, unreproducible.

Threads
-------
The store is not thread-safe: use one stack per thread or process.
Each shard keeps one lock, and :meth:`CacheShard.held` takes it around
every access so that its ``lock_acquisitions`` / ``lock_wait_seconds``
counters (reported by :meth:`ShardedChunkCache.contention`) count the
critical sections the end-to-end benchmark reads.  They are counters,
not a thread-safety guarantee.
"""

from __future__ import annotations

import threading
import time
import zlib
from typing import Callable

from repro import invariants
from repro.core.cache import ChunkCache, ChunkCacheStats, EvictHook, FaultHook
from repro.core.chunk import CachedChunk, ChunkKey
from repro.core.replacement import ReplacementPolicy
from repro.exceptions import ServeError

__all__ = ["stable_key_hash", "CacheShard", "ShardedChunkCache"]


def stable_key_hash(key: ChunkKey) -> int:
    """A process-independent hash of a chunk key for shard routing.

    CRC-32 over the canonical textual rendering of the key's components,
    ``repr((groupby, number, aggregates, sorted predicates))``.
    Deterministic across runs, processes and ``PYTHONHASHSEED`` values —
    required so that shard placement, and everything downstream of it
    (eviction order, per-shard stats), reproduces exactly.

    CRC-32 is incremental, so the text is never built per key: the
    key's shape holds the checksum of everything before the number and
    the bytes after it
    (:attr:`~repro.core.chunk.ChunkShape.crc_prefix` / ``crc_suffix``),
    and a key costs two short ``crc32`` calls.
    """
    shape, number = key
    return zlib.crc32(
        shape.crc_suffix, zlib.crc32(b"%d" % number, shape.crc_prefix)
    )


class _HeldShard:
    """``with shard.held() as cache``: one counted critical section."""

    __slots__ = ("_shard",)

    def __init__(self, shard: CacheShard) -> None:
        self._shard = shard

    def __enter__(self) -> ChunkCache[ChunkKey, CachedChunk]:
        shard = self._shard
        start = time.perf_counter()
        shard.lock.acquire()
        shard.lock_acquisitions += 1
        shard.lock_wait_seconds += time.perf_counter() - start
        return shard.cache

    def __exit__(self, *exc_info: object) -> None:
        self._shard.lock.release()


class CacheShard:
    """One slice of a sharded cache.

    Pairs a private :class:`~repro.core.cache.ChunkCache` with its
    counted lock.  All access to the wrapped cache goes through
    :meth:`held`.

    A shard can be **quarantined** after a streak of poisoned puts: its
    entries are dropped (bytes published back to the global counter, so
    totals conserve exactly), further puts are rejected, and after a
    fixed number of operations the shard is re-admitted.
    """

    def __init__(
        self,
        index: int,
        capacity_bytes: int,
        policy: ReplacementPolicy | str,
    ) -> None:
        self.index = index
        self.cache: ChunkCache[ChunkKey, CachedChunk] = ChunkCache(
            capacity_bytes, policy
        )
        self.lock = threading.Lock()
        self.lock_wait_seconds = 0.0
        self.lock_acquisitions = 0
        # Quarantine state.
        self.quarantined = False
        self.poison_streak = 0
        self.readmit_countdown = 0
        self.quarantines = 0
        self.readmissions = 0
        self.quarantine_rejects = 0

    def held(self) -> _HeldShard:
        """Enter the shard's counted section, yielding its cache."""
        return _HeldShard(self)


class ShardedChunkCache:
    """A chunk store striped over independent shards.

    Args:
        capacity_bytes: Total byte budget, split across shards as evenly
            as integer arithmetic allows (the first ``capacity %
            num_shards`` shards get one extra byte); the shard budgets
            always sum to ``capacity_bytes`` exactly.
        policy: Replacement policy *name* (each shard builds its own
            instance) or a zero-argument factory returning a fresh
            policy per shard.  A ready-made policy instance is accepted
            only for ``num_shards=1`` — sharing one policy's mutable
            state across shards would corrupt it.
        num_shards: Number of shards (>= 1).
        quarantine_after: Consecutive poisoned puts on one shard before
            it is quarantined (cleared and closed to writes).
        quarantine_ops: Operations routed at a quarantined shard before
            it is re-admitted.

    With ``num_shards=1`` every operation routes to one full-budget
    :class:`~repro.core.cache.ChunkCache`, making this store
    bit-identical to the unsharded cache — the determinism bridge the
    serving tests pin.  Quarantine only ever triggers off poisoned puts,
    which only an installed fault hook can produce, so fault-free
    operation is untouched by the quarantine machinery.
    """

    def __init__(
        self,
        capacity_bytes: int,
        policy: (
            ReplacementPolicy | str | Callable[[], ReplacementPolicy]
        ) = "benefit",
        num_shards: int = 1,
        quarantine_after: int = 3,
        quarantine_ops: int = 32,
    ) -> None:
        if num_shards < 1:
            raise ServeError(
                f"num_shards must be >= 1, got {num_shards}"
            )
        if isinstance(policy, ReplacementPolicy) and num_shards > 1:
            raise ServeError(
                "a shared policy instance cannot serve multiple shards; "
                "pass a policy name or a factory"
            )
        if quarantine_after < 1 or quarantine_ops < 1:
            raise ServeError(
                "quarantine_after and quarantine_ops must be >= 1, got "
                f"{quarantine_after} and {quarantine_ops}"
            )
        self.num_shards = num_shards
        self.quarantine_after = quarantine_after
        self.quarantine_ops = quarantine_ops
        self._capacity_bytes = capacity_bytes
        base, extra = divmod(capacity_bytes, num_shards)
        self._shards = tuple(
            CacheShard(
                index,
                base + (1 if index < extra else 0),
                policy() if callable(policy) else policy,
            )
            for index in range(num_shards)
        )
        self._used_bytes = 0

    # ------------------------------------------------------------------
    # Routing and accounting internals
    # ------------------------------------------------------------------
    def _shard_for(self, key: ChunkKey) -> CacheShard:
        return self._shards[stable_key_hash(key) % self.num_shards]

    def _publish_delta(self, delta: int) -> None:
        """Apply a shard's byte delta to the global counter."""
        self._used_bytes += delta

    def _note_op(self, shard: CacheShard) -> None:
        """Advance a quarantined shard toward re-admission."""
        if not shard.quarantined:
            return
        shard.readmit_countdown -= 1
        if shard.readmit_countdown <= 0:
            shard.quarantined = False
            shard.poison_streak = 0
            shard.readmissions += 1

    def _quarantine(
        self, shard: CacheShard, cache: ChunkCache[ChunkKey, CachedChunk]
    ) -> None:
        """Quarantine a shard: drop its entries, close it to writes.

        Dropped bytes are published back to the global counter (in a
        ``finally`` — a mid-clear invariant failure must not strand the
        accounting), so cross-shard conservation holds throughout.
        """
        before = cache.used_bytes
        try:
            cache.clear()
        finally:
            self._publish_delta(cache.used_bytes - before)
        shard.quarantined = True
        shard.poison_streak = 0
        shard.readmit_countdown = self.quarantine_ops
        shard.quarantines += 1

    # ------------------------------------------------------------------
    # ChunkStore protocol
    # ------------------------------------------------------------------
    @property
    def capacity_bytes(self) -> int:
        """Total byte budget across all shards."""
        return self._capacity_bytes

    @property
    def used_bytes(self) -> int:
        """Bytes currently charged, from the global counter."""
        return self._used_bytes

    @property
    def stats(self) -> ChunkCacheStats:
        """Counters summed over all shards (point-in-time)."""
        total = ChunkCacheStats()
        for shard in self._shards:
            with shard.held() as cache:
                total.hits += cache.stats.hits
                total.misses += cache.stats.misses
                total.insertions += cache.stats.insertions
                total.evictions += cache.stats.evictions
                total.rejected += cache.stats.rejected
                total.poisoned += cache.stats.poisoned
                total.pressure_evictions += cache.stats.pressure_evictions
        return total

    def __len__(self) -> int:
        count = 0
        for shard in self._shards:
            with shard.held() as cache:
                count += len(cache)
        return count

    def __contains__(self, key: ChunkKey) -> bool:
        with self._shard_for(key).held() as cache:
            return key in cache

    def get(self, key: ChunkKey) -> CachedChunk | None:
        """Lookup one chunk; hits refresh its shard's replacement state.

        Lookups against a quarantined shard are misses by construction
        (the quarantine dropped its entries), so the resolver chain
        routes around the shard to the backend; each one also advances
        the shard toward re-admission.
        """
        shard = self._shard_for(key)
        with shard.held() as cache:
            self._note_op(shard)
            return cache.get(key)

    def peek(self, key: ChunkKey) -> CachedChunk | None:
        """Entry lookup without touching stats or replacement state."""
        with self._shard_for(key).held() as cache:
            return cache.peek(key)

    def put(self, entry: CachedChunk) -> bool:
        """Insert into the key's shard, evicting there as needed.

        Admission control is per shard: an entry larger than its shard's
        budget is rejected, exactly as the unsharded cache rejects
        entries larger than the whole budget.  A quarantined shard
        rejects every put outright.  A streak of
        ``quarantine_after`` consecutive poisoned puts (an injected
        fault — see :mod:`repro.faults`) quarantines the shard.

        The byte delta is published in a ``finally`` so an exception
        escaping the inner cache (e.g. an injected pressure fault
        tripping an invariant) can never strand the global counter.
        """
        shard = self._shard_for(entry.key)
        with shard.held() as cache:
            self._note_op(shard)
            if shard.quarantined:
                shard.quarantine_rejects += 1
                return False
            before = cache.used_bytes
            poisoned_before = cache.stats.poisoned
            try:
                admitted = cache.put(entry)
            finally:
                self._publish_delta(cache.used_bytes - before)
            if cache.stats.poisoned > poisoned_before:
                shard.poison_streak += 1
                if shard.poison_streak >= self.quarantine_after:
                    self._quarantine(shard, cache)
            elif admitted:
                shard.poison_streak = 0
            return admitted

    def invalidate(self, key: ChunkKey) -> bool:
        """Drop one entry from its shard; False if absent."""
        with self._shard_for(key).held() as cache:
            before = cache.used_bytes
            try:
                removed = cache.invalidate(key)
            finally:
                self._publish_delta(cache.used_bytes - before)
            return removed

    def clear(self) -> None:
        """Drop everything, shard by shard (stats are kept)."""
        for shard in self._shards:
            with shard.held() as cache:
                before = cache.used_bytes
                try:
                    cache.clear()
                finally:
                    self._publish_delta(cache.used_bytes - before)

    @property
    def fault_hook(self) -> FaultHook | None:
        """The put fault hook; assigning it (``None`` removes it)
        installs it in each shard's inner cache.  Only
        :mod:`repro.faults` installs one.

        Reading it moves no contention counter: every shard holds the
        same hook.
        """
        return self._shards[0].cache.fault_hook

    @fault_hook.setter
    def fault_hook(self, hook: FaultHook | None) -> None:
        for shard in self._shards:
            with shard.held() as cache:
                cache.fault_hook = hook

    @property
    def evict_hook(self) -> EvictHook | None:
        """The eviction observer; assigning it (``None`` removes it)
        installs it in each shard's inner cache.

        The tiered cache installs its spill path here.  Reading it moves
        no contention counter, like :attr:`fault_hook`.
        """
        return self._shards[0].cache.evict_hook

    @evict_hook.setter
    def evict_hook(self, hook: EvictHook | None) -> None:
        for shard in self._shards:
            with shard.held() as cache:
                cache.evict_hook = hook

    def keys(self) -> list[ChunkKey]:
        """All resident chunk keys, in shard order (snapshot)."""
        found: list[ChunkKey] = []
        for shard in self._shards:
            with shard.held() as cache:
                found.extend(cache.keys())
        return found

    def snapshot(self) -> list[tuple[ChunkKey, CachedChunk]]:
        """Point-in-time ``(key, entry)`` pairs, in shard order."""
        pairs: list[tuple[ChunkKey, CachedChunk]] = []
        for shard in self._shards:
            with shard.held() as cache:
                pairs.extend(cache.snapshot())
        return pairs

    def tiers(self) -> dict[str, object]:
        """No tier counters: the striped store is one in-memory tier."""
        return {}

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def contention(self) -> dict[str, object]:
        """Per-shard counters and skew metrics for reports.

        ``hit_skew`` is the ratio of the busiest shard's lookup count to
        the mean across shards (1.0 = perfectly even; meaningful only
        once lookups happened).
        """
        per_shard: list[dict[str, object]] = []
        lookups: list[int] = []
        for shard in self._shards:
            with shard.held() as cache:
                stats = cache.stats
                lookups.append(stats.lookups)
                per_shard.append(
                    {
                        "shard": shard.index,
                        "capacity_bytes": cache.capacity_bytes,
                        "used_bytes": cache.used_bytes,
                        "entries": len(cache),
                        "hits": stats.hits,
                        "misses": stats.misses,
                        "evictions": stats.evictions,
                        "lock_wait_seconds": shard.lock_wait_seconds,
                        "lock_acquisitions": shard.lock_acquisitions,
                        "quarantined": shard.quarantined,
                        "quarantines": shard.quarantines,
                        "readmissions": shard.readmissions,
                        "quarantine_rejects": shard.quarantine_rejects,
                    }
                )
        total_lookups = sum(lookups)
        skew = 0.0
        if total_lookups:
            mean = total_lookups / self.num_shards
            skew = max(lookups) / mean
        return {
            "num_shards": self.num_shards,
            "lock_wait_seconds": sum(
                shard.lock_wait_seconds for shard in self._shards
            ),
            "lock_acquisitions": sum(
                shard.lock_acquisitions for shard in self._shards
            ),
            "hit_skew": skew,
            "quarantines": sum(
                shard.quarantines for shard in self._shards
            ),
            "readmissions": sum(
                shard.readmissions for shard in self._shards
            ),
            "quarantine_rejects": sum(
                shard.quarantine_rejects for shard in self._shards
            ),
            "per_shard": per_shard,
        }

    # ------------------------------------------------------------------
    # Cross-shard conservation
    # ------------------------------------------------------------------
    def check_conservation(self) -> None:
        """Verify shard-local and global byte conservation.

        Checks each shard's accounting (per-entry in deep mode) plus the
        cross-shard sum against the global counter, without entering
        the counted sections.  Raises
        :class:`~repro.exceptions.InvariantViolation` on any mismatch.
        """
        for shard in self._shards:
            cache = shard.cache
            invariants.check_cache_accounting(
                cache.used_bytes,
                cache.capacity_bytes,
                (
                    [entry for _, entry in cache.snapshot()]
                    if invariants.deep()
                    else None
                ),
                owner=f"cache shard {shard.index}",
            )
        invariants.check_shard_accounting(
            [s.cache.used_bytes for s in self._shards],
            [s.cache.capacity_bytes for s in self._shards],
            self._used_bytes,
            self._capacity_bytes,
        )
