"""Multi-user extension — one shared chunk cache vs partitioned caches.

Section 1 of the paper: "The queries may be issued from multiple query
streams originating from multiple users."  Chunk-based caching has a
structural advantage in that setting: when several analysts look at the
same popular data, their streams share *chunks* in one cache instead of
duplicating whole query results per user.

This experiment generates K user streams over the same hot region (the
popular data everyone analyses) interleaved round-robin, and compares:

- **shared** — one chunk cache of budget B serving all users; versus
- **shared-concurrent** — the same shared budget behind the
  :mod:`repro.serve` layer: a single-shard
  :class:`~repro.serve.ShardedChunkCache` with one simulated worker
  per user under the fair schedule, which must reproduce the shared
  arm's totals exactly (the serving layer's determinism contract);
- **partitioned** — K independent chunk caches of budget B/K, one per
  user (the architecture of per-session result caches).

Expected shape: shared wins — overlapping interests deduplicate in one
cache, and each user warms the others' working sets — and the
concurrent arm matches it number for number.
"""

from __future__ import annotations

from repro.api import StackConfig, build_cache
from repro.core.cache import ChunkStore
from repro.experiments.configs import DEFAULT_SCALE, Scale
from repro.experiments.harness import (
    System,
    get_system,
    make_chunk_manager,
    run_stream,
)
from repro.experiments.reporting import ExperimentResult
from repro.serve import ServeReport, ServeSession
from repro.workload.generator import Q80, QueryGenerator
from repro.workload.stream import QueryStream, interleave_streams

__all__ = ["run", "user_streams", "run_shared_concurrent", "NUM_USERS"]

NUM_USERS = 4


def user_streams(
    system: System,
    num_users: int = NUM_USERS,
    per_user: int | None = None,
    paired: bool = False,
) -> list[QueryStream]:
    """The experiment's user streams: one hot region, K analysts.

    All users analyse the same popular region (a shared hot-region
    placement seed) but issue independent query sequences.  Also the
    workload the serving soak runs.

    With ``paired``, users ``2k`` and ``2k+1`` jump their RNGs to the
    *same* sequence, so each pair issues identical queries.
    Interleaved admission then fills every front-door window with
    duplicate chunk requests — the workload single-flight coalescing
    exists for.
    """
    scale = system.scale
    if per_user is None:
        per_user = max(20, scale.num_queries // num_users)
    streams = []
    for user in range(num_users):
        generator = QueryGenerator(system.schema, seed=scale.seed)
        # Same constructor seed -> same hot region; then jump each user's
        # (or, paired, each pair's) RNG to a distinct sequence so the
        # queries differ.
        generator.rng.seed(
            scale.seed * 1000 + (user // 2 if paired else user)
        )
        streams.append(
            QueryStream(
                name=f"user{user}",
                queries=tuple(generator.stream(per_user, Q80)),
            )
        )
    return streams


def run_shared_concurrent(
    system: System,
    streams: list[QueryStream],
    max_workers: int | None = None,
    num_shards: int = 1,
    cache: ChunkStore | None = None,
) -> ServeReport:
    """The shared cache behind the serving layer.

    The default single shard pins the determinism contract: the
    report's totals equal the sequential shared arm's for any worker
    count.  Tests also call this with ``max_workers=1`` to
    pin bit-identical equality, and with more shards for stress runs.
    Pass a prebuilt ``cache`` (e.g. a 2-tier store from
    :func:`repro.api.build_cache`) to inspect its counters afterwards;
    the caller then owns closing it.
    """
    if cache is None:
        cache = build_cache(
            StackConfig(
                cache_bytes=system.cache_bytes, num_shards=num_shards
            )
        )
    manager = make_chunk_manager(system, cache=cache)
    return ServeSession(manager, streams, max_workers=max_workers).run()


def run(scale: Scale = DEFAULT_SCALE) -> ExperimentResult:
    """Compare a shared chunk cache against per-user partitions."""
    system = get_system(scale)
    streams = user_streams(system)
    per_user = len(streams[0])
    combined = interleave_streams("all-users", streams)

    result = ExperimentResult(
        experiment_id="multiuser",
        title="Extension: shared vs partitioned chunk caches "
              f"({NUM_USERS} users, Q80)",
        columns=[
            "configuration", "csr", "mean_time", "pages_read",
        ],
        expectation=(
            "one shared cache beats per-user partitions of the same "
            "total budget (chunks deduplicate across users)"
        ),
        notes=f"{per_user} queries/user; budget {system.cache_bytes} bytes",
    )

    shared = make_chunk_manager(system)
    metrics = run_stream(shared, combined)
    result.add(
        configuration="shared",
        csr=metrics.cost_saving_ratio(),
        mean_time=metrics.mean_time(),
        pages_read=metrics.total_pages_read(),
    )

    # Shared budget behind the serving layer: one simulated worker per
    # user, fair schedule — must reproduce the shared row exactly.
    report = run_shared_concurrent(
        system, streams, max_workers=NUM_USERS
    )
    result.add(
        configuration="shared-concurrent",
        csr=report.metrics.cost_saving_ratio(),
        mean_time=report.metrics.mean_time(),
        pages_read=report.metrics.total_pages_read(),
    )

    # Partitioned: independent managers with budget/K each, but queries
    # still arrive interleaved (each user's manager only sees its own).
    managers = [
        make_chunk_manager(
            system, cache_bytes=system.cache_bytes // NUM_USERS
        )
        for _ in range(NUM_USERS)
    ]
    # Reset after the factory's own per-manager resets so all users share
    # one warm backend, as in the shared run.
    system.backend.buffer_pool.flush()
    system.backend.disk.reset_stats()
    cursors = [0] * NUM_USERS
    for index, query in enumerate(combined):
        user = index % NUM_USERS
        managers[user].answer(query)
        cursors[user] += 1
    total_full = sum(
        record.full_cost
        for manager in managers
        for record in manager.metrics.records
    )
    total_saved = sum(
        record.saved_cost
        for manager in managers
        for record in manager.metrics.records
    )
    total_time = sum(
        record.time
        for manager in managers
        for record in manager.metrics.records
    )
    total_pages = sum(
        manager.metrics.total_pages_read() for manager in managers
    )
    result.add(
        configuration="partitioned",
        csr=total_saved / total_full if total_full else 0.0,
        mean_time=total_time / len(combined),
        pages_read=total_pages,
    )
    return result


if __name__ == "__main__":
    print(run().render())
