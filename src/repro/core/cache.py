"""The byte-budgeted chunk cache.

:class:`ChunkCache` maps :class:`~repro.core.chunk.ChunkKey` to
:class:`~repro.core.chunk.CachedChunk` under a byte budget, delegating
victim selection to a pluggable
:class:`~repro.core.replacement.ReplacementPolicy`.  It knows nothing about
queries — the split of a query into present and missing chunks lives in
:class:`~repro.core.manager.ChunkCacheManager`.

It reads an entry only through :class:`CacheEntry` (key, charged size,
benefit), so it is the package's one byte-budgeted replacement store:
the query-caching baseline keeps its whole results in a private one
(:class:`~repro.core.query_cache.QueryCacheManager`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Generic,
    Hashable,
    Protocol,
    TypeVar,
    runtime_checkable,
)

from repro import invariants
from repro.core.chunk import CachedChunk, ChunkKey
from repro.core.replacement import ReplacementPolicy, make_policy
from repro.exceptions import CacheError

__all__ = [
    "CacheEntry",
    "ChunkCacheStats",
    "ChunkStore",
    "ChunkCache",
    "EvictHook",
]

#: A cache fault hook inspects a put and returns None (no fault),
#: ``("poison", 0)`` (reject the put, cache unchanged) or
#: ``("pressure", n)`` (forcibly evict up to ``n`` entries first).
FaultHook = Callable[[CachedChunk], "tuple[str, int] | None"]

#: An eviction observer: called with each victim *after* it has been
#: removed and the byte accounting settled.  The tiered cache installs
#: one to spill high-benefit victims to the persistent L2 tier; the
#: hook must never raise (spill failures are the observer's problem,
#: not the evicting cache's).
EvictHook = Callable[[CachedChunk], None]

KeyT = TypeVar("KeyT", bound=Hashable)
KeyT_co = TypeVar("KeyT_co", bound=Hashable, covariant=True)


class CacheEntry(Protocol[KeyT_co]):
    """All a :class:`ChunkCache` reads of an entry: its identity, the
    bytes it is charged and its replacement weight."""

    @property
    def key(self) -> KeyT_co: ...

    @property
    def size_bytes(self) -> int: ...

    @property
    def benefit(self) -> float: ...


EntryT = TypeVar("EntryT", bound=CacheEntry[Any])


@dataclass
class ChunkCacheStats:
    """Hit/miss/eviction counters of a chunk cache.

    ``poisoned`` and ``pressure_evictions`` count injected-fault
    outcomes (see :mod:`repro.faults`); both stay zero on fault-free
    runs.
    """

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    rejected: int = 0
    poisoned: int = 0
    pressure_evictions: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups."""
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        """Chunk-level hit ratio (0.0 when never used)."""
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups


@runtime_checkable
class ChunkStore(Protocol):
    """What the manager and resolver chain need from a chunk cache.

    :class:`ChunkCache` is the canonical implementation;
    :class:`repro.serve.ShardedChunkCache` stripes it over shards.  No
    store is thread-safe: use one stack per thread or process.  The
    pipeline layers are typed against this protocol so either
    store plugs into :class:`~repro.core.manager.ChunkCacheManager`
    unchanged — the serving layer stays above, never inside, the core.

    Every store carries the same two hook attributes; assigning one
    installs it store-wide and ``None`` detaches it:

    - ``evict_hook`` observes each eviction (see :data:`EvictHook`) —
      the tiered cache installs its spill path on its L1 store here;
    - ``fault_hook`` is consulted by each put (see :data:`FaultHook`) —
      only :mod:`repro.faults` installs one.
    """

    evict_hook: EvictHook | None
    fault_hook: FaultHook | None

    @property
    def capacity_bytes(self) -> int:
        """Total byte budget across the whole store."""
        ...

    @property
    def used_bytes(self) -> int:
        """Bytes currently charged against the budget."""
        ...

    @property
    def stats(self) -> "ChunkCacheStats":
        """Hit/miss/eviction counters (aggregated for sharded stores)."""
        ...

    def __len__(self) -> int: ...

    def __contains__(self, key: ChunkKey) -> bool: ...

    def get(self, key: ChunkKey) -> CachedChunk | None:
        """Lookup one chunk; hits refresh its replacement state."""
        ...

    def peek(self, key: ChunkKey) -> CachedChunk | None:
        """Entry lookup without touching stats or replacement state."""
        ...

    def put(self, entry: CachedChunk) -> bool:
        """Insert a chunk, evicting as needed; False if rejected."""
        ...

    def invalidate(self, key: ChunkKey) -> bool:
        """Drop one entry; False if absent."""
        ...

    def clear(self) -> None:
        """Drop everything (stats are kept)."""
        ...

    def keys(self) -> list[ChunkKey]:
        """All resident chunk keys (snapshot)."""
        ...

    def snapshot(self) -> list[tuple[ChunkKey, CachedChunk]]:
        """Point-in-time ``(key, entry)`` pairs."""
        ...

    def contention(self) -> dict[str, object]:
        """Lock-contention / shard-skew counters.

        Declared on the protocol so consumers (the serving layer's
        report) never probe for it with ``getattr``.  Unsharded
        stores return ``{}`` — "nothing to report", distinct from a
        sharded store's populated mapping.
        """
        ...

    def tiers(self) -> dict[str, object]:
        """Per-tier counters of a multi-tier store.

        Same contract shape as :meth:`contention`: single-tier stores
        return ``{}`` ("nothing to report"), and the soak / front
        reports only carry a ``tiers`` key for a multi-tier store — so
        this method changes no single-tier output byte.
        :class:`repro.core.tiered.TieredChunkCache` returns its L1/L2
        spill/promote/quarantine counters.
        """
        ...


class ChunkCache(Generic[KeyT, EntryT]):
    """A byte-budgeted cache of chunks with pluggable replacement.

    Typed over its key and entry types: the chunk stores are
    ``ChunkCache[ChunkKey, CachedChunk]``, the query-caching baseline's
    is ``ChunkCache[QueryKey, CachedQuery]``.

    Args:
        capacity_bytes: Total budget; entries are charged their payload
            size plus a fixed overhead.
        policy: A policy instance or name (``"lru"``, ``"clock"``,
            ``"benefit"``).
    """

    def __init__(
        self,
        capacity_bytes: int,
        policy: ReplacementPolicy | str = "benefit",
    ) -> None:
        if capacity_bytes < 0:
            raise CacheError(f"negative capacity {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self.policy = make_policy(policy) if isinstance(policy, str) else policy
        self.stats = ChunkCacheStats()
        self._entries: dict[KeyT, EntryT] = {}
        self._used_bytes = 0
        # Fault-injection hook (repro.faults installs it; production
        # code never does).  Consulted at the top of put().
        self.fault_hook: Callable[[EntryT], tuple[str, int] | None] | None = (
            None
        )
        # Eviction observer (the tiered cache installs it to spill
        # victims to L2).  Called after each eviction settles; must not
        # raise.  None on single-tier stacks — behaviour is then
        # bit-identical to a hook-free cache.
        self.evict_hook: Callable[[EntryT], None] | None = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: KeyT) -> bool:
        return key in self._entries

    @property
    def used_bytes(self) -> int:
        """Bytes currently charged against the budget."""
        return self._used_bytes

    def keys(self) -> list[KeyT]:
        """All resident chunk keys (snapshot)."""
        return list(self._entries)

    def peek(self, key: KeyT) -> EntryT | None:
        """Entry lookup without touching stats or replacement state."""
        return self._entries.get(key)

    def snapshot(self) -> list[tuple[KeyT, EntryT]]:
        """Point-in-time ``(key, entry)`` pairs in insertion order.

        A single pass over the table that touches neither statistics nor
        replacement state.
        """
        return list(self._entries.items())

    def contention(self) -> dict[str, object]:
        """No contention counters: this store has no counted lock."""
        return {}

    def tiers(self) -> dict[str, object]:
        """No tier counters: this store is a single in-memory tier."""
        return {}

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def get(self, key: KeyT) -> EntryT | None:
        """Lookup one chunk; hits refresh its replacement state."""
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        self.policy.on_access(key)
        return entry

    def put(self, entry: EntryT) -> bool:
        """Insert a chunk, evicting as needed; False if it was rejected.

        An entry larger than the whole budget is rejected (admission
        control).  Re-inserting a resident key refreshes its payload: the
        old entry is retired first, so the refresh re-enters replacement
        state at the entry's *current* benefit, can never evict itself,
        and an over-budget refresh leaves the key absent rather than
        silently serving the stale payload.

        An installed fault hook is consulted first: a poisoned put is
        rejected with the cache byte-for-byte unchanged; a pressure
        fault forcibly sheds entries before the put proceeds normally.
        """
        if self.fault_hook is not None:
            fault = self.fault_hook(entry)
            if fault is not None:
                fault_kind, amount = fault
                if fault_kind == "poison":
                    self.stats.poisoned += 1
                    return False
                if fault_kind == "pressure":
                    self.shed(amount)
                else:
                    raise CacheError(
                        f"unknown cache fault kind {fault_kind!r}"
                    )
        size = entry.size_bytes
        existing = self._entries.pop(entry.key, None)
        if existing is not None:
            self._used_bytes -= existing.size_bytes
            self.policy.remove(entry.key)
        if size > self.capacity_bytes:
            self.stats.rejected += 1
            return False
        while self._used_bytes + size > self.capacity_bytes:
            self._evict_one(entry.benefit)
        self._entries[entry.key] = entry
        self._used_bytes += size
        self.policy.on_insert(entry.key, entry.benefit)
        if existing is None:
            self.stats.insertions += 1
        self._check_accounting()
        return True

    def invalidate(self, key: KeyT) -> bool:
        """Drop one entry (e.g. after a base-table update); False if absent."""
        entry = self._entries.pop(key, None)
        if entry is None:
            return False
        self._used_bytes -= entry.size_bytes
        self.policy.remove(key)
        self._check_accounting()
        return True

    def clear(self) -> None:
        """Drop everything (stats are kept)."""
        for key in list(self._entries):
            self.invalidate(key)

    def shed(self, count: int) -> int:
        """Forcibly evict up to ``count`` entries (injected pressure).

        Victims are what the replacement policy values least (the
        benefit-weighted policy takes its bounded weakest-entry path for
        a non-positive incoming weight, leaving other entries' sweep
        state untouched).  Returns the number actually evicted (bounded
        by residency); byte accounting is re-checked after.
        """
        shed = 0
        while shed < count and self._entries:
            self._evict_one(0.0)
            self.stats.pressure_evictions += 1
            shed += 1
        self._check_accounting()
        return shed

    def _evict_one(self, incoming_benefit: float) -> None:
        if not self._entries:
            raise CacheError(
                "eviction requested but the cache holds no entries "
                "(budget cannot be satisfied)"
            )
        victim_key = self.policy.victim(incoming_benefit)
        victim = self._entries.pop(victim_key, None)
        if victim is None:
            raise CacheError(
                f"policy evicted unknown key {victim_key!r} "
                "(cache/policy state diverged)"
            )
        self._used_bytes -= victim.size_bytes
        self.stats.evictions += 1
        if self.evict_hook is not None:
            self.evict_hook(victim)

    def _check_accounting(self) -> None:
        """Byte/benefit conservation after a mutation (see invariants)."""
        if invariants.enabled():
            invariants.check_cache_accounting(
                self._used_bytes,
                self.capacity_bytes,
                self._entries.values() if invariants.deep() else None,
                owner="chunk cache",
            )
