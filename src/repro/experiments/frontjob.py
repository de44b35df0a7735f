"""Front-door jobs — the admission/coalescing nightly entry points.

Like :mod:`repro.experiments.soakjob`, this module is a **composition
root**: it builds the system, a duplicate-heavy multi-user workload,
the shared (sharded) chunk store and — for chaos runs — the
:class:`~repro.faults.FaultPlan` / :class:`~repro.faults.FaultInjector`
pair, then hands everything to :func:`repro.serve.run_front`.  Under
reprolint rule R006 it may import :mod:`repro.faults`; under R007 it
composes the stack through :mod:`repro.api`.

The workload is deliberately duplicate-heavy: users arrive in *pairs*
that issue identical query sequences, so concurrent admission windows
are full of identical missing chunks — exactly the shape single-flight
coalescing exists for.  ``run_front_job`` runs the same workload twice
(coalescing off, then on) and reports the physical page saving.

Both jobs return plain JSON-able dictionaries so the CLI (``python -m
repro front``) and the nightly workflow can archive the outcome.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable

from repro.api import Stack, StackConfig, build_cache
from repro.experiments.configs import DEFAULT_SCALE, Scale
from repro.experiments.harness import (
    System,
    get_system,
    make_chunk_manager,
    make_chunk_stack,
)
from repro.faults import (
    FaultInjector,
    FaultPlan,
    standard_specs,
    tiered_specs,
)
from repro.query.model import StarQuery
from repro.serve import FrontConfig, FrontReport, run_front
from repro.workload.generator import Q80, QueryGenerator
from repro.workload.stream import QueryStream

__all__ = ["duplicate_streams", "run_front_job", "run_front_chaos_job"]

NUM_SHARDS = 8
NUM_USERS = 8


def duplicate_streams(
    system: System, num_users: int = NUM_USERS,
    per_user: int | None = None,
) -> list[QueryStream]:
    """K user streams where users arrive in pairs asking the same thing.

    All users share one hot region (same constructor seed, as in
    :func:`repro.experiments.multiuser.user_streams`); additionally,
    users ``2k`` and ``2k+1`` jump their RNGs to the *same* sequence,
    so each pair issues identical queries.  Interleaved admission then
    fills every window with duplicate chunk requests — the
    coalescing-friendly worst case for an uncoalesced front door.
    """
    scale = system.scale
    if per_user is None:
        per_user = max(20, scale.num_queries // num_users)
    streams = []
    for user in range(num_users):
        generator = QueryGenerator(system.schema, seed=scale.seed)
        # Pairs share a sequence seed: user//2 collapses 0,1 -> 0 etc.
        generator.rng.seed(scale.seed * 1000 + user // 2)
        streams.append(
            QueryStream(
                name=f"user{user}",
                queries=tuple(generator.stream(per_user, Q80)),
            )
        )
    return streams


def _build_stack(
    system: System,
    num_shards: int,
    cache_tiers: int = 1,
    persist_path: str | None = None,
    l2_backend: str = "chunklog",
    l2_budget_bytes: int | None = None,
    compact_threshold: float | None = None,
) -> Stack:
    cache = build_cache(
        StackConfig(
            cache_bytes=system.cache_bytes,
            num_shards=num_shards,
            cache_tiers=cache_tiers,
            persist_path=persist_path,
            l2_backend=l2_backend,
            l2_budget_bytes=l2_budget_bytes,
            compact_threshold=compact_threshold,
        )
    )
    return make_chunk_stack(system, cache=cache)


def _add_tier_summary(
    summary: dict[str, Any], cache: Any, cache_tiers: int
) -> None:
    """Attach per-tier counters — 2-tier runs only, so the 1-tier
    summary JSON stays byte-identical to the pre-tiering jobs."""
    if cache_tiers == 2:
        summary["cache_tiers"] = cache_tiers
        summary["tiers"] = cache.tiers()


def run_front_job(
    scale: Scale = DEFAULT_SCALE,
    num_users: int = NUM_USERS,
    per_user: int | None = None,
    num_shards: int = NUM_SHARDS,
    config: FrontConfig = FrontConfig(),
    cache_tiers: int = 1,
    persist_path: str | None = None,
    l2_backend: str = "chunklog",
    l2_budget_bytes: int | None = None,
    compact_threshold: float | None = None,
) -> dict[str, Any]:
    """Run the fault-free front door and quantify coalescing's saving.

    Runs the duplicate-heavy workload twice over identically built
    stacks — first with coalescing disabled (every duplicate chunk
    physically refetched), then with the configured front door — and
    reports both page totals.  The coalesced run must read strictly
    fewer backend pages; ``pages_saved`` is the difference.
    """
    system = get_system(scale)
    streams = duplicate_streams(
        system, num_users=num_users, per_user=per_user
    )
    stack = _build_stack(
        system,
        num_shards,
        cache_tiers,
        l2_backend=l2_backend,
        l2_budget_bytes=l2_budget_bytes,
        compact_threshold=compact_threshold,
    )
    try:
        baseline = run_front(
            stack.chunk_manager, streams, replace(config, coalesce=False)
        )
    finally:
        stack.close()
    stack = _build_stack(
        system,
        num_shards,
        cache_tiers,
        persist_path,
        l2_backend=l2_backend,
        l2_budget_bytes=l2_budget_bytes,
        compact_threshold=compact_threshold,
    )
    try:
        report = run_front(stack.chunk_manager, streams, config)
    finally:
        stack.close()
    summary = {
        "job": "front",
        "scale_tuples": scale.num_tuples,
        "num_users": num_users,
        "per_user": len(streams[0]),
        "num_shards": num_shards,
        "baseline_pages_read": baseline.pages_read,
        "pages_saved": baseline.pages_read - report.pages_read,
        **_front_summary(report),
    }
    _add_tier_summary(summary, stack.cache, cache_tiers)
    return summary


def run_front_chaos_job(
    scale: Scale = DEFAULT_SCALE,
    rate: str = "mid",
    seed: int = 20260807,
    num_users: int = NUM_USERS,
    per_user: int | None = None,
    num_shards: int = NUM_SHARDS,
    config: FrontConfig = FrontConfig(),
    with_oracle: bool = True,
    cache_tiers: int = 1,
    persist_path: str | None = None,
    l2_backend: str = "chunklog",
    l2_budget_bytes: int | None = None,
    compact_threshold: float | None = None,
) -> dict[str, Any]:
    """Run the front door under a standard fault plan and summarize it.

    The chaos contract extends to coalesced flights: when a leader's
    fetch faults, every waiter of that flight receives the *same*
    typed failure (pages charged once, to the leader), conservation
    stays exact, and — with the oracle — every answered query replays
    fault-free to the same rows.

    Args:
        scale: System/workload scale.
        rate: Fault-plan preset (``"low"``, ``"mid"``, ``"high"``).
        seed: The fault plan's seed — same seed, workload and config
            reproduce the same digest.
        num_users: Concurrent user streams (paired duplicates).
        per_user: Queries per stream (default: scale-derived).
        num_shards: Cache shards.
        config: Front-door knobs (window, queue limit, workers).
        with_oracle: Replay every answered query fault-free afterwards.
    """
    system = get_system(scale)
    streams = duplicate_streams(
        system, num_users=num_users, per_user=per_user
    )
    oracle: Callable[[StarQuery], Any] | None = None
    if with_oracle:
        oracle_manager = make_chunk_manager(system)

        def _replay(query: StarQuery) -> Any:
            return oracle_manager.pipeline.execute(query).rows

        oracle = _replay

    stack = _build_stack(
        system,
        num_shards,
        cache_tiers,
        persist_path,
        l2_backend=l2_backend,
        l2_budget_bytes=l2_budget_bytes,
        compact_threshold=compact_threshold,
    )
    specs = tiered_specs(rate) if cache_tiers == 2 else standard_specs(rate)
    plan = FaultPlan(seed=seed, specs=specs)
    injector = FaultInjector(plan)
    try:
        report = run_front(
            stack.chunk_manager,
            streams,
            config,
            injector=injector,
            oracle=oracle,
        )
    finally:
        stack.close()
    summary = {
        "job": "front-chaos",
        "scale_tuples": scale.num_tuples,
        "rate": rate,
        "seed": seed,
        "num_users": num_users,
        "per_user": len(streams[0]),
        "num_shards": num_shards,
        "oracle_replayed": with_oracle,
        **_front_summary(report),
    }
    _add_tier_summary(summary, stack.cache, cache_tiers)
    return summary


def _front_summary(report: FrontReport) -> dict[str, Any]:
    return {
        "queries": report.queries,
        "failures": len(report.failures),
        "shed": len(report.shed),
        "window_size": report.window_size,
        "queue_limit": report.queue_limit,
        "max_workers": report.max_workers,
        "coalesce": report.coalesce,
        "flights": report.flights,
        "coalesced_chunks": report.coalesced_chunks,
        "shared_pages": report.shared_pages,
        "pages_read": report.pages_read,
        "failed_pages": report.failed_pages,
        "disk_read_delta": report.disk_read_delta,
        "deep_checks": report.deep_checks,
        "checkpoints": report.checkpoints,
        "fault_counters": dict(report.fault_counters),
        "wrong_answers": report.wrong_answers,
        "csr": report.metrics.cost_saving_ratio(),
        "digest": report.digest,
    }
