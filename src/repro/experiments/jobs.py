"""Soak and front-door jobs — the nightly entry points.

This module is the **composition root** for the verified serving runs:
it builds the system, the multi-user workload, the shared (sharded,
optionally 2-tier) chunk store and — for chaos runs — the
:class:`~repro.faults.FaultPlan` / :class:`~repro.faults.FaultInjector`
pair, then hands everything to the serving layer's harnesses
(:func:`repro.serve.run_soak`, :func:`repro.serve.run_front`).  Under
reprolint rule R006 it is one of the only production modules allowed to
import :mod:`repro.faults` — the storage, backend, cache and serving
layers receive fault hooks duck-typed and never construct a plan
themselves; under R007 it composes the stack through :mod:`repro.api`.

The front-door jobs use the *paired* workload: users arrive in pairs
that issue identical query sequences, so concurrent admission windows
are full of identical missing chunks — exactly the shape single-flight
coalescing exists for.  ``run_front_job`` runs it twice (coalescing
off, then on) and reports the physical page saving.

Every job returns a plain JSON-able dictionary so the CLI (``python -m
repro soak`` / ``front``) and the nightly GitHub Actions workflow can
archive the outcome as an artifact.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, TypeVar

from repro.api import StackConfig, build_cache
from repro.core.cache import ChunkStore
from repro.experiments.configs import DEFAULT_SCALE, Scale
from repro.experiments.harness import (
    System,
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
    FrontConfig,
    FrontReport,
    SoakConfig,
    SoakReport,
    run_front,
    run_soak,
)
from repro.workload.stream import QueryStream

__all__ = [
    "cache_config",
    "run_soak_job",
    "run_chaos_job",
    "run_front_job",
    "run_front_chaos_job",
]

NUM_SHARDS = 8
NUM_USERS = 8

_Report = TypeVar("_Report", bound=SoakReport)


def cache_config(scale: Scale, **overrides: Any) -> StackConfig:
    """The jobs' cache: the scale-derived L1 budget over 8 shards.

    ``overrides`` are :class:`~repro.api.StackConfig` fields —
    ``cache_tiers=2`` puts the persistent spill tier under the sharded
    store, a constrained ``cache_bytes`` forces evictions (which is how
    the nightly restart arm guarantees the log actually fills), and
    ``persist_path`` / ``l2_budget_bytes`` / ``compact_threshold``
    configure that tier.
    """
    return replace(
        StackConfig(
            cache_bytes=get_system(scale).cache_bytes,
            num_shards=NUM_SHARDS,
        ),
        **overrides,
    )


def _workload(
    scale: Scale,
    num_users: int,
    per_user: int | None,
    cache: StackConfig | None,
    paired: bool,
) -> tuple[System, list[QueryStream], StackConfig]:
    system = get_system(scale)
    streams = user_streams(system, num_users, per_user, paired)
    if cache is None:
        cache = cache_config(scale)
    return system, streams, cache


def _run(
    system: System,
    streams: list[QueryStream],
    cache: StackConfig,
    harness: Callable[..., _Report],
    config: SoakConfig | FrontConfig,
    chaos: tuple[str, int] | None = None,
    with_oracle: bool = False,
) -> tuple[_Report, ChunkStore]:
    """One verified run over a freshly built stack (closed afterwards).

    ``chaos`` is the fault plan's ``(rate preset, seed)``; a 2-tier
    cache also arms the write-path fault kinds (:func:`tiered_specs`),
    while 1 tier keeps the plan — and every pinned digest — on the
    historical mix.  The oracle is a second, fault-free manager over
    the same backend that replays each answered query after the run.
    """
    oracle: Callable[[StarQuery], Any] | None = None
    if with_oracle:
        oracle_manager = make_chunk_manager(system)

        def _replay(query: StarQuery) -> Any:
            return oracle_manager.pipeline.execute(query).rows

        oracle = _replay
    injector: FaultInjector | None = None
    if chaos is not None:
        rate, seed = chaos
        specs = (
            tiered_specs(rate)
            if cache.cache_tiers == 2
            else standard_specs(rate)
        )
        injector = FaultInjector(FaultPlan(seed=seed, specs=specs))
    store = build_cache(cache)
    stack = make_chunk_stack(system, cache=store)
    try:
        report = harness(
            stack.chunk_manager,
            streams,
            config,
            injector=injector,
            oracle=oracle,
        )
    finally:
        stack.close()
    return report, store


def _summary(
    job: str,
    scale: Scale,
    streams: list[QueryStream],
    store: ChunkStore,
    cache: StackConfig,
    body: dict[str, Any],
) -> dict[str, Any]:
    summary = {
        "job": job,
        "scale_tuples": scale.num_tuples,
        "num_users": len(streams),
        "per_user": len(streams[0]),
        "num_shards": cache.num_shards,
        **body,
    }
    # Per-tier counters — 2-tier runs only: 1-tier summaries gain no
    # keys at all, keeping their JSON byte-identical to the pre-tiering
    # jobs.
    if cache.cache_tiers == 2:
        summary["cache_tiers"] = cache.cache_tiers
        summary["tiers"] = store.tiers()
    return summary


def _verified_summary(report: SoakReport) -> dict[str, Any]:
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
        "fault_counters": dict(report.fault_counters),
        "csr": report.serve.metrics.cost_saving_ratio(),
    }


def run_soak_job(
    scale: Scale = DEFAULT_SCALE,
    num_users: int = NUM_USERS,
    per_user: int | None = None,
    cache: StackConfig | None = None,
    config: SoakConfig = SoakConfig(),
) -> dict[str, Any]:
    """Run the fault-free soak and summarize it.

    Builds K user streams over one hot region, runs them under the
    fair schedule with deep invariants, and returns the verified
    totals as a JSON-able dictionary.  ``cache`` defaults to
    :func:`cache_config` of the scale.
    """
    system, streams, cache = _workload(
        scale, num_users, per_user, cache, paired=False
    )
    report, store = _run(system, streams, cache, run_soak, config)
    body = {
        "queries": report.queries,
        "checkpoints": report.checkpoints,
        "pages_read": report.pages_read,
        "disk_read_delta": report.disk_read_delta,
        "deep_checks": report.deep_checks,
        "csr": report.serve.metrics.cost_saving_ratio(),
        "simulated_throughput": report.serve.simulated_throughput,
        "contention": report.serve.contention,
    }
    return _summary("soak", scale, streams, store, cache, body)


def run_chaos_job(
    scale: Scale = DEFAULT_SCALE,
    rate: str = "mid",
    seed: int = 20260806,
    num_users: int = NUM_USERS,
    per_user: int | None = None,
    cache: StackConfig | None = None,
    config: SoakConfig = SoakConfig(),
    with_oracle: bool = True,
) -> dict[str, Any]:
    """Run the chaos soak under a standard fault plan and summarize it.

    Args:
        scale: System/workload scale.
        rate: Fault-plan preset (``"low"``, ``"mid"``, ``"high"``).
        seed: The fault plan's seed — same seed, workload and config
            reproduce the same digest.
        num_users: Concurrent user streams.
        per_user: Queries per stream (default: scale-derived).
        cache: The cache's configuration (default:
            :func:`cache_config` of the scale).  ``cache_tiers=2`` adds
            the persistent spill tier *and* arms the write-path fault
            kinds; arming ``compact_threshold`` puts the
            ``log-compact`` fault kind on a live code path.
        config: Harness knobs (checkpoints, workers, deadline).
        with_oracle: When true (the default), every answered query is
            replayed fault-free after the run and must match — the
            "never a wrong answer" half of the degradation contract.
    """
    system, streams, cache = _workload(
        scale, num_users, per_user, cache, paired=False
    )
    report, store = _run(
        system, streams, cache, run_soak, config, (rate, seed), with_oracle
    )
    body = {
        "rate": rate,
        "seed": seed,
        "schedule": report.serve.schedule,
        "oracle_replayed": with_oracle,
        **_verified_summary(report),
        "contention": report.serve.contention,
    }
    return _summary("chaos-soak", scale, streams, store, cache, body)


def _front_summary(
    report: FrontReport, config: FrontConfig
) -> dict[str, Any]:
    return {
        **_verified_summary(report),
        "shed": len(report.shed),
        "window_size": config.window,
        "queue_limit": config.queue_limit,
        "max_workers": report.serve.max_workers,
        "coalesce": config.coalesce,
        "flights": report.flights,
        "coalesced_chunks": report.coalesced_chunks,
        "shared_pages": report.shared_pages,
    }


def run_front_job(
    scale: Scale = DEFAULT_SCALE,
    num_users: int = NUM_USERS,
    per_user: int | None = None,
    cache: StackConfig | None = None,
    config: FrontConfig = FrontConfig(),
) -> dict[str, Any]:
    """Run the fault-free front door and quantify coalescing's saving.

    Runs the paired workload twice over identically built stacks —
    first with coalescing disabled (every duplicate chunk physically
    refetched, nothing persisted), then with the configured front
    door — and reports both page totals.  The coalesced run must read
    strictly fewer backend pages; ``pages_saved`` is the difference.
    """
    system, streams, cache = _workload(
        scale, num_users, per_user, cache, paired=True
    )
    baseline, _ = _run(
        system,
        streams,
        replace(cache, persist_path=None),
        run_front,
        replace(config, coalesce=False),
    )
    report, store = _run(system, streams, cache, run_front, config)
    body = {
        "baseline_pages_read": baseline.pages_read,
        "pages_saved": baseline.pages_read - report.pages_read,
        **_front_summary(report, config),
    }
    return _summary("front", scale, streams, store, cache, body)


def run_front_chaos_job(
    scale: Scale = DEFAULT_SCALE,
    rate: str = "mid",
    seed: int = 20260807,
    num_users: int = NUM_USERS,
    per_user: int | None = None,
    cache: StackConfig | None = None,
    config: FrontConfig = FrontConfig(),
    with_oracle: bool = True,
) -> dict[str, Any]:
    """Run the front door under a standard fault plan and summarize it.

    The chaos contract extends to coalesced flights: when a leader's
    fetch faults, every waiter of that flight receives the *same*
    typed failure (pages charged once, to the leader), conservation
    stays exact, and — with the oracle — every answered query replays
    fault-free to the same rows.  Arguments are as for
    :func:`run_chaos_job`, over the paired workload and with the
    front door's knobs (window, queue limit, workers) as ``config``.
    """
    system, streams, cache = _workload(
        scale, num_users, per_user, cache, paired=True
    )
    report, store = _run(
        system, streams, cache, run_front, config, (rate, seed), with_oracle
    )
    body = {
        "rate": rate,
        "seed": seed,
        "oracle_replayed": with_oracle,
        **_front_summary(report, config),
    }
    return _summary("front-chaos", scale, streams, store, cache, body)
