"""Soak and chaos-soak jobs — the nightly entry points.

This module is the **composition root** for fault injection: it builds
the system, the workload, the sharded store and (for chaos runs) the
:class:`~repro.faults.FaultPlan` / :class:`~repro.faults.FaultInjector`
pair, then hands everything to the serving layer's harnesses.  Under
reprolint rule R006 it is one of the only production modules allowed to
import :mod:`repro.faults` — the storage, backend, cache and serving
layers receive fault hooks duck-typed and never construct a plan
themselves.

Both jobs return plain JSON-able dictionaries so the CLI (``python -m
repro soak``) and the nightly GitHub Actions workflow can archive the
outcome as an artifact.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.api import StackConfig, build_cache
from repro.experiments.configs import DEFAULT_SCALE, Scale
from repro.experiments.harness import (
    get_system,
    make_chunk_manager,
    make_chunk_stack,
)
from repro.experiments.multiuser import user_streams
from repro.faults import (
    FaultInjector,
    FaultPlan,
    standard_specs,
    tiered_specs,
)
from repro.query.model import StarQuery
from repro.serve import (
    ChaosConfig,
    ChaosReport,
    SoakConfig,
    SoakReport,
    run_chaos_soak,
    run_soak,
)

__all__ = ["run_soak_job", "run_chaos_job"]

NUM_SHARDS = 8
NUM_USERS = 8


def run_soak_job(
    scale: Scale = DEFAULT_SCALE,
    num_users: int = NUM_USERS,
    per_user: int | None = None,
    num_shards: int = NUM_SHARDS,
    config: SoakConfig = SoakConfig(),
    cache_tiers: int = 1,
    persist_path: str | None = None,
    cache_bytes: int | None = None,
    l2_backend: str = "chunklog",
    l2_budget_bytes: int | None = None,
    compact_threshold: float | None = None,
) -> dict[str, Any]:
    """Run the fault-free concurrency soak and summarize it.

    Builds K user streams over one hot region, races them under the
    free schedule with deep invariants, and returns the verified
    totals as a JSON-able dictionary.  ``cache_tiers=2`` puts the
    persistent spill tier under the sharded store (the 1-tier
    summary stays byte-identical — tier keys only appear at 2).
    ``cache_bytes`` overrides the scale-derived L1 budget — a
    constrained budget forces evictions, which is how the nightly
    restart arm guarantees the log actually fills.  ``l2_backend``,
    ``l2_budget_bytes`` and ``compact_threshold`` pass through to
    :class:`~repro.api.StackConfig` (2-tier only).
    """
    system = get_system(scale)
    streams = user_streams(system, num_users=num_users, per_user=per_user)
    cache = build_cache(
        StackConfig(
            cache_bytes=(
                cache_bytes if cache_bytes is not None
                else system.cache_bytes
            ),
            num_shards=num_shards,
            cache_tiers=cache_tiers,
            persist_path=persist_path,
            l2_backend=l2_backend,
            l2_budget_bytes=l2_budget_bytes,
            compact_threshold=compact_threshold,
        )
    )
    stack = make_chunk_stack(system, cache=cache)
    try:
        report = run_soak(stack.chunk_manager, streams, config)
    finally:
        stack.close()
    summary = {
        "job": "soak",
        "scale_tuples": scale.num_tuples,
        "num_users": num_users,
        "per_user": len(streams[0]),
        "num_shards": num_shards,
        **_soak_summary(report),
    }
    _add_tier_summary(summary, cache, cache_tiers)
    return summary


def run_chaos_job(
    scale: Scale = DEFAULT_SCALE,
    rate: str = "mid",
    seed: int = 20260806,
    num_users: int = NUM_USERS,
    per_user: int | None = None,
    num_shards: int = NUM_SHARDS,
    config: ChaosConfig = ChaosConfig(),
    with_oracle: bool = True,
    cache_tiers: int = 1,
    persist_path: str | None = None,
    cache_bytes: int | None = None,
    l2_backend: str = "chunklog",
    l2_budget_bytes: int | None = None,
    compact_threshold: float | None = None,
) -> dict[str, Any]:
    """Run the chaos soak under a standard fault plan and summarize it.

    Args:
        scale: System/workload scale.
        rate: Fault-plan preset (``"low"``, ``"mid"``, ``"high"``).
        seed: The fault plan's seed — same seed, workload and config
            reproduce the same digest.
        num_users: Concurrent user streams.
        per_user: Queries per stream (default: scale-derived).
        num_shards: Cache shards.
        config: Harness knobs (schedule, checkpoints, deadline).
        with_oracle: When true (the default), every answered query is
            replayed fault-free after the run and must match — the
            "never a wrong answer" half of the degradation contract.
        cache_tiers: ``2`` adds the persistent spill tier *and* arms
            the write-path fault kinds (:func:`tiered_specs`); ``1``
            keeps the plan and digest byte-identical to the historical
            chaos soak.
        persist_path: Backing file for the 2-tier chunk log.
        cache_bytes: Override for the scale-derived L1 budget (forces
            eviction pressure in 2-tier runs).
        l2_backend: L2 backend selector (``"chunklog"``/``"sqlite"``).
        l2_budget_bytes: L2 live-byte budget (2-tier only).
        compact_threshold: Dead-space ratio that triggers backend
            compaction — arming it puts the ``log-compact`` fault kind
            on a live code path (2-tier only).
    """
    system = get_system(scale)
    streams = user_streams(system, num_users=num_users, per_user=per_user)
    oracle: Callable[[StarQuery], Any] | None = None
    if with_oracle:
        oracle_manager = make_chunk_manager(system)

        def _replay(query: StarQuery) -> Any:
            return oracle_manager.pipeline.execute(query).rows

        oracle = _replay

    cache = build_cache(
        StackConfig(
            cache_bytes=(
                cache_bytes if cache_bytes is not None
                else system.cache_bytes
            ),
            num_shards=num_shards,
            cache_tiers=cache_tiers,
            persist_path=persist_path,
            l2_backend=l2_backend,
            l2_budget_bytes=l2_budget_bytes,
            compact_threshold=compact_threshold,
        )
    )
    stack = make_chunk_stack(system, cache=cache)
    specs = tiered_specs(rate) if cache_tiers == 2 else standard_specs(rate)
    plan = FaultPlan(seed=seed, specs=specs)
    injector = FaultInjector(plan)
    try:
        report = run_chaos_soak(
            stack.chunk_manager, streams, injector, config, oracle=oracle
        )
    finally:
        stack.close()
    summary = {
        "job": "chaos-soak",
        "scale_tuples": scale.num_tuples,
        "rate": rate,
        "seed": seed,
        "num_users": num_users,
        "per_user": len(streams[0]),
        "num_shards": num_shards,
        "schedule": config.schedule,
        "oracle_replayed": with_oracle,
        **_chaos_summary(report),
    }
    _add_tier_summary(summary, cache, cache_tiers)
    return summary


def _add_tier_summary(
    summary: dict[str, Any], cache: Any, cache_tiers: int
) -> None:
    """Attach per-tier counters — 2-tier runs only.

    1-tier summaries gain no keys at all, keeping their JSON output
    byte-identical to the pre-tiering jobs.
    """
    if cache_tiers == 2:
        summary["cache_tiers"] = cache_tiers
        summary["tiers"] = cache.tiers()


def _soak_summary(report: SoakReport) -> dict[str, Any]:
    return {
        "queries": report.queries,
        "checkpoints": report.checkpoints,
        "pages_read": report.pages_read,
        "disk_read_delta": report.disk_read_delta,
        "deep_checks": report.deep_checks,
        "csr": report.serve.metrics.cost_saving_ratio(),
        "simulated_throughput": report.serve.simulated_throughput,
        "contention": report.serve.contention,
    }


def _chaos_summary(report: ChaosReport) -> dict[str, Any]:
    return {
        "queries": report.queries,
        "failures": report.failures,
        "checkpoints": report.checkpoints,
        "pages_read": report.pages_read,
        "failed_pages": report.failed_pages,
        "disk_read_delta": report.disk_read_delta,
        "deep_checks": report.deep_checks,
        "wrong_answers": report.wrong_answers,
        "digest": report.digest,
        "fault_counters": report.fault_counters,
        "csr": report.serve.metrics.cost_saving_ratio(),
        "contention": report.serve.contention,
    }
