"""Each rule fires on a minimal bad example and stays silent on a good one."""

from __future__ import annotations

from tools.reprolint.engine import lint_source
from tools.reprolint.rules import RULES_BY_CODE


def codes(source: str, path: str) -> list[str]:
    return [v.code for v in lint_source(source, path)]


def only(source: str, path: str, code: str) -> list[str]:
    """Lint with a single rule so tests are independent of other rules."""
    rule = RULES_BY_CODE[code]
    return [v.code for v in lint_source(source, path, rules=[rule])]


class TestR000Waiver:
    def test_waiver_for_a_retired_or_unknown_code_fires(self):
        src = "x = 1  # reprolint: ignore[R009] reason\n"
        assert only(src, "src/repro/core/cache.py", "R000") == ["R000"]
        src = "x = 1  # reprolint: ignore[R004, R099] reason\n"
        assert only(src, "tests/test_x.py", "R000") == ["R000"]


class TestR001Layering:
    def test_chunks_importing_core_fires(self):
        src = "from repro.core.cache import ChunkCache\n"
        assert only(src, "src/repro/chunks/grid.py", "R001") == ["R001"]

    def test_storage_importing_pipeline_fires(self):
        src = "import repro.pipeline.executor\n"
        assert only(src, "src/repro/storage/disk.py", "R001") == ["R001"]

    def test_chunks_importing_schema_is_fine(self):
        src = "from repro.schema.dimension import Dimension\n"
        assert only(src, "src/repro/chunks/ranges.py", "R001") == []

    def test_core_importing_chunks_is_fine(self):
        src = "from repro.chunks.grid import ChunkSpace\n"
        assert only(src, "src/repro/core/manager.py", "R001") == []

    def test_backend_call_outside_pipeline_fires(self):
        src = "def f(backend, q):\n    return backend.answer(q)\n"
        assert only(src, "src/repro/core/manager.py", "R001") == ["R001"]

    def test_backend_call_on_self_backend_fires(self):
        src = (
            "class M:\n"
            "    def f(self, g, n):\n"
            "        return self.backend.compute_chunks(g, n)\n"
        )
        assert only(src, "src/repro/core/query_cache.py", "R001") == ["R001"]

    def test_backend_call_in_resolvers_is_fine(self):
        src = "def f(backend, q):\n    return backend.answer(q)\n"
        assert only(src, "src/repro/pipeline/resolvers.py", "R001") == []

    def test_backend_call_in_work_is_fine(self):
        src = (
            "def f(backend, g, n):\n"
            "    return backend.estimate_chunk_work_batch(g, n)\n"
        )
        assert only(src, "src/repro/pipeline/work.py", "R001") == []

    def test_backend_internal_call_is_fine(self):
        src = (
            "class BackendEngine:\n"
            "    def explain(self, g, n):\n"
            "        return self.estimate_chunk_work(g, n)\n"
        )
        assert only(src, "src/repro/backend/engine.py", "R001") == []

    def test_manager_answer_is_not_a_backend_call(self):
        src = "def f(manager, q):\n    return manager.answer(q)\n"
        assert only(src, "src/repro/experiments/harness.py", "R001") == []

    def test_waiver_comment_allows_oracle_use(self):
        src = (
            "def f(backend, q):\n"
            "    return backend.answer(q, 'scan')"
            "  # reprolint: ignore[R001] ground-truth oracle\n"
        )
        assert only(src, "src/repro/experiments/harness.py", "R001") == []

    def test_experiments_storage_submodule_import_fires(self):
        src = "from repro.storage.record import groupby_record_format\n"
        assert only(src, "src/repro/experiments/configs.py", "R001") == ["R001"]

    def test_experiments_storage_facade_import_is_fine(self):
        src = "from repro.storage import groupby_record_format\n"
        assert only(src, "src/repro/experiments/configs.py", "R001") == []

    # Facet 4 — the serving layer composes, never digs below.
    def test_serve_importing_backend_fires(self):
        src = "from repro.backend.engine import BackendEngine\n"
        assert only(src, "src/repro/serve/sharded.py", "R001") == ["R001"]

    def test_serve_importing_storage_fires(self):
        src = "import repro.storage.disk\n"
        assert only(src, "src/repro/serve/session.py", "R001") == ["R001"]

    def test_serve_importing_experiments_fires(self):
        src = "from repro.experiments.harness import get_system\n"
        assert only(src, "src/repro/serve/soak.py", "R001") == ["R001"]

    def test_serve_importing_pipeline_and_core_is_fine(self):
        src = (
            "from repro.core.manager import ChunkCacheManager\n"
            "from repro.pipeline.trace import ExecutionTrace\n"
            "from repro.workload.stream import QueryStream\n"
        )
        assert only(src, "src/repro/serve/session.py", "R001") == []

    def test_serve_importing_bare_facade_is_fine(self):
        src = "from repro import invariants\n"
        assert only(src, "src/repro/serve/sharded.py", "R001") == []

    def test_bare_facade_allowance_is_not_a_prefix(self):
        # "repro" being allowed must not make "repro.<anything>" pass.
        src = "import repro.backend\n"
        assert only(src, "src/repro/serve/sharded.py", "R001") == ["R001"]

    # Facet 5 — nothing below experiments may know about serve.
    def test_core_importing_serve_fires(self):
        src = "from repro.serve import ShardedChunkCache\n"
        assert only(src, "src/repro/core/manager.py", "R001") == ["R001"]

    def test_pipeline_importing_serve_fires(self):
        src = "import repro.serve.session\n"
        assert only(src, "src/repro/pipeline/executor.py", "R001") == ["R001"]

    def test_experiments_importing_serve_is_fine(self):
        src = "from repro.serve import ServeSession\n"
        assert only(src, "src/repro/experiments/multiuser.py", "R001") == []


class TestR002FloatEquality:
    def test_float_literal_equality_fires(self):
        src = "def f(x):\n    return x == 0.0\n"
        assert only(src, "src/repro/analysis/cost.py", "R002") == ["R002"]

    def test_cost_identifier_equality_fires(self):
        src = "def f(a, b):\n    return a.full_cost != b.full_cost\n"
        assert only(src, "src/repro/core/metrics.py", "R002") == ["R002"]

    def test_sum_equality_fires(self):
        src = "def f(rs):\n    return sum(r.time for r in rs) == 0\n"
        assert only(src, "src/repro/core/metrics.py", "R002") == ["R002"]

    def test_benefit_in_chained_compare_fires(self):
        src = "def f(benefit):\n    return 0 == benefit == 1\n"
        assert only(src, "src/repro/core/cache.py", "R002") == ["R002", "R002"]

    def test_ordering_comparison_is_fine(self):
        src = "def f(benefit):\n    return benefit <= 0\n"
        assert only(src, "src/repro/core/replacement.py", "R002") == []

    def test_isclose_is_fine(self):
        src = (
            "import math\n"
            "def f(a, b):\n"
            "    return math.isclose(a.full_cost, b.full_cost)\n"
        )
        assert only(src, "src/repro/core/metrics.py", "R002") == []

    def test_integer_count_equality_is_fine(self):
        src = "def f(parts):\n    return len(parts) == 0\n"
        assert only(src, "src/repro/core/manager.py", "R002") == []

    def test_string_equality_is_fine(self):
        src = "def f(part):\n    return part.resolver == 'cache'\n"
        assert only(src, "src/repro/pipeline/stages.py", "R002") == []


class TestR003FrozenDataclasses:
    def test_unfrozen_pipeline_dataclass_fires(self):
        src = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class StageOutput:\n"
            "    rows: int\n"
        )
        assert only(src, "src/repro/pipeline/stages.py", "R003") == ["R003"]

    def test_frozen_false_fires(self):
        src = (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=False)\n"
            "class StageOutput:\n"
            "    rows: int\n"
        )
        assert only(src, "src/repro/pipeline/stages.py", "R003") == ["R003"]

    def test_unannotated_field_fires(self):
        src = (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class StageOutput:\n"
            "    rows: int\n"
            "    name = 'stage'\n"
        )
        assert only(src, "src/repro/pipeline/trace.py", "R003") == ["R003"]

    def test_frozen_annotated_dataclass_is_fine(self):
        src = (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class StageOutput:\n"
            "    rows: int\n"
            "    name: str = 'stage'\n"
        )
        assert only(src, "src/repro/pipeline/stages.py", "R003") == []

    def test_namedtuple_is_a_frozen_value_and_dataclasses_still_checked(
        self,
    ):
        src = (
            "from dataclasses import dataclass\n"
            "from typing import NamedTuple\n"
            "class StageOutput(NamedTuple):\n"
            "    rows: int\n"
            "    name: str = 'stage'\n"
            "@dataclass\n"
            "class Accumulator:\n"
            "    rows: int\n"
        )
        rule = RULES_BY_CODE["R003"]
        found = lint_source(src, "src/repro/pipeline/stages.py", rules=[rule])
        assert [(v.code, v.line) for v in found] == [("R003", 7)]

    def test_plain_accumulator_class_is_fine(self):
        src = (
            "class Resolution:\n"
            "    def __init__(self):\n"
            "        self.parts = {}\n"
        )
        assert only(src, "src/repro/pipeline/stages.py", "R003") == []

    def test_rule_scoped_to_pipeline_package(self):
        src = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class ChunkCacheStats:\n"
            "    hits: int = 0\n"
        )
        assert only(src, "src/repro/core/cache.py", "R003") == []


class TestR004Hygiene:
    def test_bare_except_fires(self):
        src = "try:\n    f()\nexcept:\n    pass\n"
        assert only(src, "src/repro/backend/sql.py", "R004") == ["R004"]

    def test_swallowed_broad_except_fires(self):
        src = "try:\n    f()\nexcept Exception:\n    pass\n"
        assert only(src, "src/repro/core/cache.py", "R004") == ["R004"]

    def test_broad_except_with_handling_is_fine(self):
        src = "try:\n    f()\nexcept Exception:\n    x = fallback()\n"
        assert only(src, "src/repro/core/cache.py", "R004") == []

    def test_narrow_except_pass_is_fine(self):
        src = "try:\n    f()\nexcept ValueError:\n    pass\n"
        assert only(src, "src/repro/core/cache.py", "R004") == []

    def test_mutable_list_default_fires(self):
        src = "def f(xs=[]):\n    return xs\n"
        assert only(src, "src/repro/workload/stream.py", "R004") == ["R004"]

    def test_mutable_constructor_default_fires(self):
        src = "def f(xs=dict()):\n    return xs\n"
        assert only(src, "src/repro/workload/stream.py", "R004") == ["R004"]

    def test_keyword_only_mutable_default_fires(self):
        src = "def f(*, xs={}):\n    return xs\n"
        assert only(src, "src/repro/workload/stream.py", "R004") == ["R004"]

    def test_none_default_is_fine(self):
        src = "def f(xs=None):\n    return xs or []\n"
        assert only(src, "src/repro/workload/stream.py", "R004") == []

    def test_applies_to_tests_too(self):
        src = "def f(xs=[]):\n    return xs\n"
        assert only(src, "tests/core/test_cache.py", "R004") == ["R004"]


class TestR005MetricsAccounting:
    def test_queryrecord_outside_metrics_fires(self):
        src = (
            "from repro.core.metrics import QueryRecord\n"
            "def f():\n"
            "    return QueryRecord(time=1.0, full_cost=1.0, saved_cost=0.0,\n"
            "                       chunks_total=1, chunks_hit=0)\n"
        )
        assert only(src, "src/repro/core/manager.py", "R005") == ["R005"]

    def test_account_answer_is_the_sanctioned_path(self):
        src = (
            "from repro.core.metrics import account_answer\n"
            "def f(cm, report):\n"
            "    return account_answer(cm, report, full_cost=1.0,\n"
            "                          saved_cost=0.0, chunks_total=1,\n"
            "                          chunks_hit=0)\n"
        )
        assert only(src, "src/repro/core/manager.py", "R005") == []

    def test_write_through_metrics_fires(self):
        src = (
            "def f(self):\n"
            "    self.metrics.total_time = 0.0\n"
        )
        assert only(src, "src/repro/core/manager.py", "R005") == ["R005"]

    def test_private_store_write_fires(self):
        src = "def f(m, r):\n    m._records += [r]\n"
        assert only(src, "src/repro/experiments/harness.py", "R005") == ["R005"]

    def test_binding_fresh_metrics_is_fine(self):
        src = (
            "from repro.core.metrics import StreamMetrics\n"
            "class M:\n"
            "    def __init__(self):\n"
            "        self.metrics = StreamMetrics()\n"
        )
        assert only(src, "src/repro/core/manager.py", "R005") == []

    def test_record_call_is_fine(self):
        src = "def f(self, record):\n    self.metrics.record(record)\n"
        assert only(src, "src/repro/core/manager.py", "R005") == []

    def test_metrics_module_itself_is_exempt(self):
        src = "def f(self, r):\n    self._records = [r]\n"
        assert only(src, "src/repro/core/metrics.py", "R005") == []

    def test_tests_are_exempt(self):
        src = (
            "from repro.core.metrics import QueryRecord\n"
            "def test_record():\n"
            "    QueryRecord(time=1.0, full_cost=1.0, saved_cost=0.0,\n"
            "                chunks_total=1, chunks_hit=1)\n"
        )
        assert only(src, "tests/core/test_metrics.py", "R005") == []


class TestR006FaultBoundary:
    def test_serve_importing_faults_fires(self):
        src = "from repro.faults import FaultInjector\n"
        assert only(src, "src/repro/serve/soak.py", "R006") == ["R006"]

    def test_plain_import_of_faults_fires(self):
        src = "import repro.faults.injector\n"
        assert only(src, "src/repro/core/manager.py", "R006") == ["R006"]

    def test_core_constructing_plan_fires(self):
        src = (
            "def f(specs):\n"
            "    return FaultPlan(seed=1, specs=specs)\n"
        )
        assert only(src, "src/repro/core/cache.py", "R006") == ["R006"]

    def test_attribute_construction_fires(self):
        src = (
            "import repro\n"
            "def f(plan):\n"
            "    return repro.FaultInjector(plan)\n"
        )
        assert only(src, "src/repro/storage/disk.py", "R006") == ["R006"]

    def test_experiments_layer_is_a_composition_root(self):
        src = (
            "from repro.faults import FaultInjector, FaultPlan\n"
            "def f(specs):\n"
            "    return FaultInjector(FaultPlan(seed=1, specs=specs))\n"
        )
        assert only(src, "src/repro/experiments/jobs.py", "R006") == []

    def test_faults_package_may_know_itself(self):
        src = "from repro.faults.plan import FaultPlan\n"
        assert only(src, "src/repro/faults/injector.py", "R006") == []

    def test_tests_are_exempt(self):
        src = (
            "from repro.faults import FaultPlan\n"
            "def test_plan():\n"
            "    FaultPlan(seed=1, specs=())\n"
        )
        assert only(src, "tests/faults/test_plan.py", "R006") == []


class TestR007Facade:
    def test_experiment_constructing_chunk_manager_fires(self):
        src = (
            "from repro.core.manager import ChunkCacheManager\n"
            "def f(schema, space, backend, cache):\n"
            "    return ChunkCacheManager(schema, space, backend, cache)\n"
        )
        assert only(src, "src/repro/experiments/fig9.py", "R007") == ["R007"]

    def test_serve_constructing_sharded_cache_fires(self):
        src = (
            "from repro.serve.sharded import ShardedChunkCache\n"
            "def f(budget):\n"
            "    return ShardedChunkCache(budget, num_shards=4)\n"
        )
        assert only(src, "src/repro/serve/soak.py", "R007") == ["R007"]

    def test_engine_build_fires(self):
        src = (
            "from repro.backend.engine import BackendEngine\n"
            "def f(schema, space, records):\n"
            "    return BackendEngine.build(schema, space, records)\n"
        )
        assert only(src, "src/repro/experiments/harness.py", "R007") == [
            "R007"
        ]

    def test_query_manager_via_attribute_fires(self):
        src = (
            "import repro.core.query_cache as qc\n"
            "def f(schema, backend):\n"
            "    return qc.QueryCacheManager(schema, backend, 1 << 20)\n"
        )
        assert only(src, "src/repro/workload/stream.py", "R007") == ["R007"]

    def test_facade_itself_is_exempt(self):
        src = (
            "from repro.core.manager import ChunkCacheManager\n"
            "def build(schema, space, backend, cache):\n"
            "    return ChunkCacheManager(schema, space, backend, cache)\n"
        )
        assert only(src, "src/repro/api.py", "R007") == []

    def test_defining_modules_are_exempt(self):
        src = (
            "def clone(self):\n"
            "    return ShardedChunkCache(self.capacity_bytes)\n"
        )
        assert only(src, "src/repro/serve/sharded.py", "R007") == []

    def test_non_build_engine_attribute_is_fine(self):
        src = (
            "def f(backend, query):\n"
            "    return backend.answer(query, 'scan')\n"
        )
        assert only(src, "src/repro/experiments/fig9.py", "R007") == []

    def test_other_build_classmethods_are_fine(self):
        src = (
            "from repro.storage.heap import HeapFile\n"
            "def f(pages):\n"
            "    return HeapFile.build(pages)\n"
        )
        assert only(src, "src/repro/experiments/fig9.py", "R007") == []

    def test_tests_are_exempt(self):
        src = (
            "from repro.core.manager import ChunkCacheManager\n"
            "def test_manager(schema, space, backend, cache):\n"
            "    ChunkCacheManager(schema, space, backend, cache)\n"
        )
        assert only(src, "tests/core/test_manager.py", "R007") == []


class TestR011ChunkLog:
    def test_experiment_constructing_chunklog_fires(self):
        src = (
            "from repro.storage.chunklog import ChunkLog\n"
            "def f(path):\n"
            "    return ChunkLog(path, page_size=4096)\n"
        )
        assert only(src, "src/repro/experiments/fig9.py", "R011") == [
            "R011"
        ]

    def test_serve_constructing_tiered_cache_fires(self):
        src = (
            "from repro.core.tiered import TieredChunkCache\n"
            "def f(l1, log):\n"
            "    return TieredChunkCache(l1, log)\n"
        )
        assert only(src, "src/repro/serve/soak.py", "R011") == ["R011"]

    def test_chunklog_via_attribute_fires(self):
        src = (
            "import repro.storage.chunklog as cl\n"
            "def f(path):\n"
            "    return cl.ChunkLog(path, page_size=4096)\n"
        )
        assert only(src, "src/repro/workload/stream.py", "R011") == [
            "R011"
        ]

    def test_facade_itself_is_exempt(self):
        src = (
            "from repro.storage.chunklog import ChunkLog\n"
            "def build(path):\n"
            "    return ChunkLog(path, page_size=4096)\n"
        )
        assert only(src, "src/repro/api.py", "R011") == []

    def test_defining_modules_are_exempt(self):
        src = (
            "def reopen_log(self, path):\n"
            "    return ChunkLog(path, page_size=self.page_size)\n"
        )
        assert only(src, "src/repro/storage/chunklog.py", "R011") == []

    def test_tests_are_exempt(self):
        src = (
            "from repro.storage.chunklog import ChunkLog\n"
            "def test_log(tmp_path):\n"
            "    ChunkLog(str(tmp_path / 'log.bin'), page_size=256)\n"
        )
        assert only(src, "tests/storage/test_chunklog.py", "R011") == []
