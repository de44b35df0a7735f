"""Lock-release regressions: a mid-critical-section fault never wedges.

The engine and the cache shards count their critical sections with a
lock, and fault sites fire inside them.  These tests throw a fault in
each critical section and then prove the lock came back out: a second
thread gets through with a bounded join.  A session with tolerated
faults runs to the end.
"""

import threading

import numpy as np
import pytest

from repro.core.chunk import CachedChunk, ChunkKey
from repro.core.manager import ChunkCacheManager
from repro.exceptions import BackendFault, CacheError, InjectedFault
from repro.faults import (
    BACKEND_QUERY,
    FaultInjector,
    FaultPlan,
    FaultSpec,
)
from repro.query.model import StarQuery
from repro.serve import ServeSession, ShardedChunkCache
from repro.workload.stream import QueryStream
from tests.conftest import canon_rows

JOIN_TIMEOUT = 30.0


def make_chunk(number=0, rows=4, benefit=1.0):
    data = np.zeros(rows, dtype=[("D0", "i4"), ("sum_v", "f8")])
    key = ChunkKey((1, 1), number, (("v", "sum"),))
    return CachedChunk(key=key, rows=data, benefit=benefit)


def run_in_thread(target):
    """Run ``target`` on a thread; fail the test instead of hanging."""
    result = {}

    def wrapper():
        try:
            result["value"] = target()
        except BaseException as error:  # propagated via result, re-raised
            result["error"] = error

    thread = threading.Thread(target=wrapper, daemon=True)
    thread.start()
    thread.join(timeout=JOIN_TIMEOUT)
    assert not thread.is_alive(), "worker deadlocked behind a held lock"
    if "error" in result:
        raise result["error"]
    return result["value"]


class TestEngineLock:
    def test_engine_lock_released_after_exhaustion(
        self, small_schema, small_manager
    ):
        backend = small_manager.backend
        query = StarQuery.build(small_schema, (1, 1), {"D0": (0, 3)})
        expected, _ = backend.answer(query, "scan")

        def always_fail(operation):
            raise BackendFault(
                "injected", operation=operation, transient=True
            )

        backend.fault_hook = always_fail
        with pytest.raises(BackendFault):
            small_manager.answer(query)
        backend.fault_hook = None

        # The big lock was released on the failure path: a *different*
        # thread acquires it and answers within the join deadline.
        rows = run_in_thread(lambda: backend.answer(query, "scan")[0])
        assert canon_rows(rows) == canon_rows(expected)

    def test_engine_lock_released_after_mid_retry_fault(
        self, small_schema, small_manager
    ):
        # The fault fires on the second attempt — deep inside the
        # retry loop, with backoff already accrued.
        backend = small_manager.backend
        query = StarQuery.build(small_schema, (1, 1))
        fired = []

        def fail_twice_then_fail(operation):
            fired.append(operation)
            raise BackendFault(
                "injected", operation=operation, transient=True
            )

        backend.fault_hook = fail_twice_then_fail
        with pytest.raises(BackendFault):
            small_manager.answer(query)
        backend.fault_hook = None
        assert len(fired) == 3

        answer = run_in_thread(lambda: small_manager.answer(query))
        assert len(answer.rows) > 0


class TestShardLock:
    def test_shard_lock_released_after_hook_error(self):
        store = ShardedChunkCache(1_000_000, num_shards=2)
        store.put(make_chunk(number=0))
        store.fault_hook = lambda entry: ("bogus", 0)
        with pytest.raises(CacheError, match="unknown cache fault"):
            store.put(make_chunk(number=1))
        store.fault_hook = None

        # The shard lock the failing put held is free again: another
        # thread gets and puts through the same shard set.
        def probe():
            hits = store.get(make_chunk(number=0).key)
            assert store.put(make_chunk(number=2))
            return hits

        run_in_thread(probe)
        store.check_conservation()

    def test_conservation_holds_after_hook_error(self):
        store = ShardedChunkCache(1_000_000, num_shards=4)
        for number in range(8):
            store.put(make_chunk(number=number))
        store.fault_hook = lambda entry: ("bogus", 0)
        for number in range(8, 12):
            with pytest.raises(CacheError):
                store.put(make_chunk(number=number))
        store.fault_hook = None
        # The failed puts changed nothing and corrupted nothing.
        assert len(store) == 8
        store.check_conservation()


class TestSessionUnderFaults:
    def test_fair_session_with_tolerated_faults_terminates(
        self, small_schema, fresh_small_engine
    ):
        manager = ChunkCacheManager(
            small_schema,
            fresh_small_engine.space,
            fresh_small_engine,
            ShardedChunkCache(256_000, num_shards=2),
        )
        queries = tuple(
            StarQuery.build(small_schema, (1, 1), {"D0": (n % 3, n % 3 + 2)})
            for n in range(6)
        )
        streams = [
            QueryStream(name="u0", queries=queries),
            QueryStream(name="u1", queries=queries),
        ]
        injector = FaultInjector(
            FaultPlan(seed=5, specs=(FaultSpec(BACKEND_QUERY, 0.5),))
        )
        session = ServeSession(
            manager,
            streams,
            max_workers=2,
            timeout_seconds=60.0,
            tolerate=(InjectedFault,),
        )
        with injector.activate(manager):
            report = session.run()
        # A failed query moves the run on to the next ticket:
        # everything is accounted for, nothing hung.
        assert report.queries + len(report.failures) == 12
        assert len(report.failures) > 0
        assert all(f.kind == "BackendFault" for f in report.failures)
        manager.cache.check_conservation()
