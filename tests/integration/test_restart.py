"""Kill-and-reopen integration tests for the persistent 2-tier cache.

The restart contract (``docs/TIERING.md``): a stack reopened on an
existing chunk log starts *warm* — its L1 is refilled benefit-first
from the L2 manifest, so the same workload sees a strictly better hit
ratio than a cold start — while answers stay bit-identical to an
uninterrupted run, and a damaged log never takes the stack down: it
degrades to a clean cold start.
"""

import dataclasses

import pytest

from repro.api import StackConfig, build_stack
from repro.core import tiered
from repro.workload.generator import EQPR, QueryGenerator
from tests.conftest import canon_rows

QUERIES = 40
SEED = 31


def config_for(persist_path):
    return StackConfig(
        chunk_ratio=0.25,
        cache_bytes=2_500,
        page_size=1024,
        buffer_pool_pages=16,
        cache_tiers=2,
        persist_path=persist_path,
    )


def run_stream(stack, schema):
    """Answer the fixed stream; returns (answers, hits, misses)."""
    generator = QueryGenerator(schema, seed=SEED)
    answers = [
        canon_rows(stack.manager.answer(query).rows)
        for query in generator.stream(QUERIES, EQPR)
    ]
    stats = stack.cache.stats
    return answers, stats.hits, stats.misses


@pytest.fixture(scope="module")
def cold_run(small_schema, small_records, tmp_path_factory):
    """One cold run on a fresh log; the log file survives the 'kill'."""
    path = str(tmp_path_factory.mktemp("restart") / "chunklog.bin")
    stack = build_stack(small_schema, small_records, config_for(path))
    answers, hits, misses = run_stream(stack, small_schema)
    tiers = stack.cache.tiers()
    stack.close()  # flushes the log: the "kill" point
    return {
        "path": path,
        "answers": answers,
        "hits": hits,
        "misses": misses,
        "tiers": tiers,
    }


class TestWarmRestart:
    def test_cold_run_spilled(self, cold_run):
        # Preconditions: the budget is tight enough that the cold run
        # demoted evictions into the log — otherwise a restart has
        # nothing to warm from and this suite tests nothing.
        assert cold_run["tiers"]["l2"]["spills"] > 0
        assert cold_run["misses"] > 0

    def test_warm_start_beats_cold_start(
        self, cold_run, small_schema, small_records
    ):
        stack = build_stack(
            small_schema, small_records, config_for(cold_run["path"])
        )
        try:
            warm_loaded = stack.cache.tiers()["l2"]["warm_loaded"]
            assert warm_loaded > 0  # L1 was refilled from the manifest
            answers, hits, misses = run_stream(stack, small_schema)
            cold_total = cold_run["hits"] + cold_run["misses"]
            warm_total = hits + misses
            assert warm_total == cold_total  # same stream
            assert hits / warm_total > cold_run["hits"] / cold_total
            # Bit-identical answers: restarting changes economics, not
            # results (vs. the uninterrupted cold run's answers).
            assert answers == cold_run["answers"]
        finally:
            stack.close()

    def test_restart_of_a_restart_still_serves(
        self, cold_run, small_schema, small_records
    ):
        stack = build_stack(
            small_schema, small_records, config_for(cold_run["path"])
        )
        try:
            answers, _, _ = run_stream(stack, small_schema)
            assert answers == cold_run["answers"]
        finally:
            stack.close()

    def test_healthy_records_promote_and_are_never_quarantined(
        self, small_schema, small_records, tmp_path
    ):
        """A decode that failed would be quarantined, fall back to the
        backend and still answer correctly — so count it: spill ->
        promote -> close -> reopen -> promote, against a 1-tier stack."""
        generator = QueryGenerator(small_schema, seed=SEED)
        queries = list(generator.stream(QUERIES, EQPR))
        config = config_for(str(tmp_path / "chunklog.bin"))
        plain = build_stack(
            small_schema, small_records,
            dataclasses.replace(config, cache_tiers=1, persist_path=None),
        )
        expected = [plain.manager.answer(q).rows.tobytes() for q in queries]
        plain.close()
        for restarted in (False, True):
            # A restarted process has met no row dtype yet.
            tiered._describe.cache_clear()
            tiered._dtype_of.cache_clear()
            stack = build_stack(small_schema, small_records, config)
            try:
                got = [stack.manager.answer(q).rows.tobytes() for q in queries]
                l2 = stack.cache.tiers()["l2"]
            finally:
                stack.close()
            assert got == expected
            assert l2["quarantined"] == 0
            assert l2["promotes"] == l2["hits"] > 0
            assert (l2["warm_loaded"] > 0) == restarted


class TestDamagedLogDegrades:
    def test_corrupt_header_is_a_clean_cold_start(
        self, cold_run, small_schema, small_records, tmp_path
    ):
        path = str(tmp_path / "chunklog.bin")
        with open(cold_run["path"], "rb") as src:
            raw = src.read()
        with open(path, "wb") as dst:
            dst.write(b"GARBAGE!" + raw[8:])
        stack = build_stack(small_schema, small_records, config_for(path))
        try:
            tiered = stack.cache
            assert tiered.log.recovery.header_reset is True
            assert tiered.tiers()["l2"]["warm_loaded"] == 0
            answers, hits, misses = run_stream(stack, small_schema)
            # Indistinguishable from the cold run: same answers, same
            # economics — degraded, never broken.
            assert answers == cold_run["answers"]
            assert (hits, misses) == (cold_run["hits"], cold_run["misses"])
        finally:
            stack.close()

    def test_truncated_tail_keeps_the_valid_prefix(
        self, cold_run, small_schema, small_records, tmp_path
    ):
        path = str(tmp_path / "chunklog.bin")
        with open(cold_run["path"], "rb") as src:
            raw = src.read()
        with open(path, "wb") as dst:
            dst.write(raw[:-7])  # tear the last record
        stack = build_stack(small_schema, small_records, config_for(path))
        try:
            tiered = stack.cache
            assert tiered.log.recovery.header_reset is False
            assert tiered.log.recovery.truncated_bytes > 0
            answers, _, _ = run_stream(stack, small_schema)
            assert answers == cold_run["answers"]
        finally:
            stack.close()
