"""The runtime fault injector: plan decisions wired into the stack.

:class:`FaultInjector` turns a :class:`~repro.faults.plan.FaultPlan`
into the three hooks the production layers expose (and never install
themselves — reprolint R006 gates that):

- ``SimulatedDisk.read_hook`` — raises
  :class:`~repro.exceptions.DiskFault` or returns injected latency;
- ``BackendEngine.fault_hook`` — raises
  :class:`~repro.exceptions.BackendFault` at query level;
- the chunk cache's put hook — poisons or pressures an insertion.

Sequence numbers are per decision *site*, and the serving layer runs
its queries one at a time in canonical order, so the same workload
rolls the same decisions regardless of worker count.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.exceptions import BackendFault, DiskFault, FaultError
from repro.faults.plan import (
    BACKEND_QUERY,
    CACHE_POISON,
    CACHE_PRESSURE,
    DISK_PERMANENT,
    DISK_SLOW,
    DISK_TRANSIENT,
    LOG_COMPACT,
    LOG_PERMANENT,
    LOG_TORN,
    PROMOTE_READ,
    SPILL_WRITE,
    FaultPlan,
)

__all__ = ["FaultInjector"]


class FaultInjector:
    """Stateful driver of one :class:`FaultPlan`.

    The only mutable state is the per-site sequence counters and the
    fired-fault counters; all fault *decisions*
    are pure plan rolls.  ``reset()`` returns the injector to its
    initial state, making back-to-back runs byte-for-byte identical.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._sequences: dict[str, int] = {}
        self._counters: dict[str, int] = {}

    def _next(self, site: str) -> int:
        sequence = self._sequences.get(site, 0)
        self._sequences[site] = sequence + 1
        return sequence

    def _count(self, kind: str) -> None:
        self._counters[kind] = self._counters.get(kind, 0) + 1

    def reset(self) -> None:
        """Forget all sequence and fault counters."""
        self._sequences.clear()
        self._counters.clear()

    def counters(self) -> dict[str, int]:
        """Fired faults by kind (sorted copy)."""
        return {k: self._counters[k] for k in sorted(self._counters)}

    # ------------------------------------------------------------------
    # The three hooks
    # ------------------------------------------------------------------
    def disk_read(self, page_id: int) -> float:
        """``SimulatedDisk.read_hook``: fault or delay one page read.

        Permanent faults are keyed by page id (a dead page stays dead on
        every retry); transient and slow faults are keyed by the
        read-sequence number at this site.
        """
        if self.plan.roll(DISK_PERMANENT, f"page:{page_id}", 0):
            self._count(DISK_PERMANENT)
            raise DiskFault(
                f"injected permanent fault reading page {page_id}",
                page_id=page_id,
                transient=False,
                site="disk.read",
            )
        sequence = self._next("disk.read")
        if self.plan.roll(DISK_TRANSIENT, "disk.read", sequence):
            self._count(DISK_TRANSIENT)
            raise DiskFault(
                f"injected transient fault reading page {page_id}",
                page_id=page_id,
                transient=True,
                site="disk.read",
            )
        if self.plan.roll(DISK_SLOW, "disk.read", sequence):
            spec = self.plan.spec(DISK_SLOW)
            assert spec is not None
            self._count(DISK_SLOW)
            return spec.latency
        return 0.0

    def backend_op(self, operation: str) -> None:
        """``BackendEngine.fault_hook``: fail one entry point outright."""
        site = f"backend.{operation}"
        sequence = self._next(site)
        if self.plan.roll(BACKEND_QUERY, site, sequence):
            self._count(BACKEND_QUERY)
            raise BackendFault(
                f"injected backend fault in {operation}",
                operation=operation,
                transient=True,
                site=site,
            )

    def spill_write(self, page_id: int) -> float:
        """Chunk-log ``write_hook``: fault one eviction-spill page write.

        Permanent faults are keyed by log page id (the page stays dead
        on every retry); transient spill faults are keyed by the write
        sequence at the ``spill_write`` site.
        """
        if self.plan.roll(LOG_PERMANENT, f"chunklog.page:{page_id}", 0):
            self._count(LOG_PERMANENT)
            raise DiskFault(
                f"injected permanent fault writing chunk-log page {page_id}",
                page_id=page_id,
                transient=False,
                site="spill_write",
            )
        sequence = self._next("spill_write")
        if self.plan.roll(SPILL_WRITE, "spill_write", sequence):
            self._count(SPILL_WRITE)
            raise DiskFault(
                f"injected transient fault writing chunk-log page {page_id}",
                page_id=page_id,
                transient=True,
                site="spill_write",
            )
        return 0.0

    def promote_read(self, page_id: int) -> float:
        """Chunk-log ``read_hook``: fault one promotion page read."""
        if self.plan.roll(LOG_PERMANENT, f"chunklog.page:{page_id}", 0):
            self._count(LOG_PERMANENT)
            raise DiskFault(
                f"injected permanent fault reading chunk-log page {page_id}",
                page_id=page_id,
                transient=False,
                site="promote_read",
            )
        sequence = self._next("promote_read")
        if self.plan.roll(PROMOTE_READ, "promote_read", sequence):
            self._count(PROMOTE_READ)
            raise DiskFault(
                f"injected transient fault reading chunk-log page {page_id}",
                page_id=page_id,
                transient=True,
                site="promote_read",
            )
        return 0.0

    def torn_write(self, token: str) -> bool:
        """Chunk-log ``torn_hook``: corrupt one spill's stored bytes.

        A torn record keeps its original CRC, so the corruption is
        *detected* (and quarantined) at the next promotion attempt —
        exercising the checksum path, never producing a wrong answer.
        """
        sequence = self._next("chunklog.torn")
        if self.plan.roll(LOG_TORN, "chunklog.torn", sequence):
            self._count(LOG_TORN)
            return True
        return False

    def compact_abort(self, record_index: int) -> bool:
        """Backend ``compact_hook``: abort one compaction record copy.

        A fired decision aborts the compaction at that record's write
        boundary with the log untouched (the backend's crash-safety
        contract); the tiered cache counts the fault and retries at the
        next trigger.
        """
        sequence = self._next("chunklog.compact")
        if self.plan.roll(LOG_COMPACT, "chunklog.compact", sequence):
            self._count(LOG_COMPACT)
            return True
        return False

    def cache_put(self, entry: object) -> tuple[str, int] | None:
        """Cache put hook: ``("poison", 0)``, ``("pressure", n)`` or None."""
        sequence = self._next("cache.put")
        if self.plan.roll(CACHE_POISON, "cache.put", sequence):
            self._count(CACHE_POISON)
            return ("poison", 0)
        if self.plan.roll(CACHE_PRESSURE, "cache.put", sequence):
            spec = self.plan.spec(CACHE_PRESSURE)
            assert spec is not None
            self._count(CACHE_PRESSURE)
            return ("pressure", spec.pressure)
        return None

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    @contextmanager
    def activate(self, manager: object) -> Iterator["FaultInjector"]:
        """Install the hooks on a chunk-cache manager's stack.

        Duck-typed on purpose: ``manager`` needs ``.backend`` (with
        ``.disk``) and ``.cache``; every chunk store takes the put hook
        as its ``fault_hook`` attribute (the sharded cache installs it
        in every shard, the tiered cache on its L1).  A cache exposing
        a ``.log`` (the tiered cache's chunk log) additionally gets the
        write-path hooks: spill-write and promote-read faults through
        the log's ``write_hook``/``read_hook`` fault points, the
        torn-write hook, and the compaction-abort hook.  Previous hooks
        are restored on exit even when the body raises.
        """
        backend = getattr(manager, "backend", None)
        cache = getattr(manager, "cache", None)
        if backend is None or cache is None:
            raise FaultError(
                "activate() needs a manager exposing .backend and .cache"
            )
        disk = backend.disk
        previous_read = disk.read_hook
        previous_backend = backend.fault_hook
        previous_cache = cache.fault_hook
        log = getattr(cache, "log", None)
        previous_log_hooks: (
            tuple[object, object, object, object] | None
        ) = None
        disk.read_hook = self.disk_read
        backend.fault_hook = self.backend_op
        cache.fault_hook = self.cache_put
        if log is not None:
            previous_log_hooks = (
                log.write_hook,
                log.read_hook,
                log.torn_hook,
                log.compact_hook,
            )
            log.write_hook = self.spill_write
            log.read_hook = self.promote_read
            log.torn_hook = self.torn_write
            log.compact_hook = self.compact_abort
        try:
            yield self
        finally:
            disk.read_hook = previous_read
            backend.fault_hook = previous_backend
            cache.fault_hook = previous_cache
            if log is not None and previous_log_hooks is not None:
                log.write_hook = previous_log_hooks[0]
                log.read_hook = previous_log_hooks[1]
                log.torn_hook = previous_log_hooks[2]
                log.compact_hook = previous_log_hooks[3]
