"""Tests for repro.faults.injector and the hooks it drives.

Covers each layer's hook in isolation — disk reads, backend entry
points, cache puts — plus installation/restoration via ``activate``.
"""

import numpy as np
import pytest

from repro.core.cache import ChunkCache
from repro.core.chunk import CachedChunk, ChunkKey
from repro.exceptions import (
    BackendFault,
    CacheError,
    DiskFault,
    FaultError,
    InjectedFault,
)
from repro.faults import (
    BACKEND_QUERY,
    CACHE_POISON,
    CACHE_PRESSURE,
    DISK_PERMANENT,
    DISK_SLOW,
    DISK_TRANSIENT,
    FaultInjector,
    FaultPlan,
    FaultSpec,
)
from repro.serve import ShardedChunkCache
from repro.storage.disk import SimulatedDisk


def injector_for(*specs, seed=17):
    return FaultInjector(FaultPlan(seed=seed, specs=tuple(specs)))


def make_chunk(number=0, rows=4, benefit=1.0):
    data = np.zeros(rows, dtype=[("D0", "i4"), ("sum_v", "f8")])
    key = ChunkKey((1, 1), number, (("v", "sum"),))
    return CachedChunk(key=key, rows=data, benefit=benefit)


class TestDiskReadHook:
    def test_transient_fault_raises_and_counts(self):
        injector = injector_for(FaultSpec(DISK_TRANSIENT, 1.0))
        with pytest.raises(DiskFault) as excinfo:
            injector.disk_read(7)
        assert excinfo.value.transient
        assert excinfo.value.page_id == 7
        assert injector.counters() == {DISK_TRANSIENT: 1}

    def test_transient_faults_are_exceptions_not_the_rule(self):
        injector = injector_for(FaultSpec(DISK_TRANSIENT, 0.2))
        outcomes = []
        for page in range(200):
            try:
                injector.disk_read(page)
                outcomes.append(True)
            except DiskFault:
                outcomes.append(False)
        assert 0 < outcomes.count(False) < 100

    def test_permanent_fault_is_keyed_by_page(self):
        # Rate 0.5 over page ids: some pages are dead, and a dead page
        # stays dead on every retry while live pages never die.
        injector = injector_for(FaultSpec(DISK_PERMANENT, 0.5))
        dead = set()
        for page in range(40):
            try:
                injector.disk_read(page)
            except DiskFault as fault:
                assert not fault.transient
                dead.add(page)
        assert dead and len(dead) < 40
        for page in range(40):
            if page in dead:
                with pytest.raises(DiskFault):
                    injector.disk_read(page)
            else:
                injector.disk_read(page)

    def test_slow_fault_returns_latency(self):
        injector = injector_for(FaultSpec(DISK_SLOW, 1.0, latency=2.5))
        assert injector.disk_read(3) == pytest.approx(2.5)
        assert injector.counters() == {DISK_SLOW: 1}

    def test_reset_restores_initial_state(self):
        injector = injector_for(FaultSpec(DISK_TRANSIENT, 0.3))
        first = []
        for page in range(50):
            try:
                injector.disk_read(page)
                first.append(True)
            except DiskFault:
                first.append(False)
        injector.reset()
        assert injector.counters() == {}
        second = []
        for page in range(50):
            try:
                injector.disk_read(page)
                second.append(True)
            except DiskFault:
                second.append(False)
        assert first == second


class TestDiskIntegration:
    def test_faulted_read_moves_no_counters(self):
        disk = SimulatedDisk(page_size=64)
        disk.allocate(4)
        disk.write_page(0, b"x" * 64)
        injector = injector_for(FaultSpec(DISK_TRANSIENT, 1.0))
        disk.read_hook = injector.disk_read
        before = disk.stats.copy()
        with pytest.raises(DiskFault):
            disk.read_page(0)
        assert disk.stats.reads == before.reads
        assert disk.stats.fault_latency == before.fault_latency

    def test_slow_read_charges_fault_latency(self):
        disk = SimulatedDisk(page_size=64)
        disk.allocate(4)
        disk.write_page(0, b"x" * 64)
        injector = injector_for(FaultSpec(DISK_SLOW, 1.0, latency=2.0))
        disk.read_hook = injector.disk_read
        disk.read_page(0)
        disk.read_page(1)
        assert disk.stats.reads == 2
        assert disk.stats.fault_latency == pytest.approx(4.0)
        delta = disk.stats.delta(disk.stats.copy())
        assert delta.fault_latency == pytest.approx(0.0)


class TestBackendHook:
    def test_backend_fault_raises_typed(self):
        injector = injector_for(FaultSpec(BACKEND_QUERY, 1.0))
        with pytest.raises(BackendFault) as excinfo:
            injector.backend_op("compute_chunks")
        assert excinfo.value.operation == "compute_chunks"
        assert isinstance(excinfo.value, InjectedFault)

    def test_sites_are_independent(self):
        injector = injector_for(FaultSpec(BACKEND_QUERY, 0.5), seed=23)
        outcomes = {}
        for operation in ("compute_chunks", "answer"):
            fired = 0
            for _ in range(100):
                try:
                    injector.backend_op(operation)
                except BackendFault:
                    fired += 1
            outcomes[operation] = fired
        assert all(0 < fired < 100 for fired in outcomes.values())


class TestCachePutHook:
    def test_poison_rejects_put_and_counts(self):
        cache = ChunkCache(100_000)
        injector = injector_for(FaultSpec(CACHE_POISON, 1.0))
        cache.fault_hook = injector.cache_put
        entry = make_chunk()
        assert cache.put(entry) is False
        assert len(cache) == 0
        assert cache.used_bytes == 0
        assert cache.stats.poisoned == 1

    def test_pressure_sheds_before_inserting(self):
        cache = ChunkCache(1_000_000)
        for number in range(6):
            assert cache.put(make_chunk(number=number))
        injector = injector_for(
            FaultSpec(CACHE_PRESSURE, 1.0, pressure=2)
        )
        cache.fault_hook = injector.cache_put
        assert cache.put(make_chunk(number=6))
        # 6 resident - 2 shed + 1 inserted.
        assert len(cache) == 5
        assert cache.stats.pressure_evictions == 2

    def test_shed_is_bounded_by_population(self):
        cache = ChunkCache(1_000_000)
        cache.put(make_chunk(number=0))
        assert cache.shed(10) == 1
        assert len(cache) == 0

    def test_unknown_fault_kind_rejected(self):
        cache = ChunkCache(100_000)
        cache.fault_hook = lambda entry: ("bogus", 0)
        with pytest.raises(CacheError, match="unknown cache fault"):
            cache.put(make_chunk())

    def test_sharded_cache_distributes_hook(self):
        store = ShardedChunkCache(1_000_000, num_shards=4)
        injector = injector_for(FaultSpec(CACHE_POISON, 1.0))
        store.fault_hook = injector.cache_put
        assert store.put(make_chunk()) is False
        assert store.stats.poisoned == 1
        store.fault_hook = None
        assert store.put(make_chunk()) is True
        store.check_conservation()


class TestActivate:
    def test_installs_and_restores_hooks(self, small_manager):
        backend = small_manager.backend
        injector = injector_for(FaultSpec(DISK_TRANSIENT, 0.5))
        assert backend.disk.read_hook is None
        assert backend.fault_hook is None
        assert small_manager.cache.fault_hook is None
        with injector.activate(small_manager):
            assert backend.disk.read_hook == injector.disk_read
            assert backend.fault_hook == injector.backend_op
            assert small_manager.cache.fault_hook == injector.cache_put
        assert backend.disk.read_hook is None
        assert backend.fault_hook is None
        assert small_manager.cache.fault_hook is None

    def test_restores_on_exception(self, small_manager):
        injector = injector_for(FaultSpec(DISK_TRANSIENT, 0.5))
        with pytest.raises(RuntimeError):
            with injector.activate(small_manager):
                raise RuntimeError("boom")
        assert small_manager.backend.disk.read_hook is None
        assert small_manager.backend.fault_hook is None
        assert small_manager.cache.fault_hook is None

    def test_requires_a_manager_shape(self):
        injector = injector_for(FaultSpec(DISK_TRANSIENT, 0.5))
        with pytest.raises(FaultError, match="backend"):
            with injector.activate(object()):
                pass
