"""The five workloads: set-up, warm-up, measured phase and answer check.

Every workload is a closed loop driven from this one process: the next
query is issued only when the previous answer is back (single-client
workloads), or when the session's turnstile says so (``serve_fair``,
``front_dup``).  Inputs derive from the run's seed and nothing else; the
program under test sees only the generated ``StarQuery`` streams.

The measured phase of a workload is a number of timed *rounds* that do
the same work: the same queries in the same order, from the same (or,
where the state cannot be put back, the same periodic) cache state.  The
rounds of one run therefore differ by what the host did to them — and,
in ``tiered_hot``, by where a log compaction falls — and the run reports
each timing from the round where it reads best (README, "Steadiness").
``miss_heavy`` is one long round.

Why these five, and which layer each one loads, is in ``README.md`` and
in the ``why`` lines of ``BENCHMARK.json``.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, Sequence

import numpy as np

from repro.api import (
    StackConfig,
    Stack,
    build_backend,
    build_cache,
    build_stack,
)
from repro.chunks.grid import ChunkSpace
from repro.core.metrics import StreamMetrics
from repro.core.tiered import TieredChunkCache, decode_chunk, encode_chunk
from repro.experiments.configs import (
    Scale,
    build_paper_schema,
    cube_size_bytes,
)
from repro.query.model import StarQuery
from repro.serve import FAIR, FrontConfig, FrontSession, ServeSession
from repro.storage.chunklog import ChunkLog
from repro.workload.data import generate_fact_table
from repro.workload.generator import Q80, Q100, RANDOM, QueryGenerator
from repro.workload.stream import QueryStream, interleave_streams

from .metrics import percentile, ratio
from .tracing import (
    TimedPipeline,
    TracedBackend,
    TracedL1,
    TracedL2,
    TracedPipeline,
    TracedStore,
    Tracer,
    trace_pipeline_stages,
)

__all__ = [
    "WORKLOADS",
    "KEEP_EVERY",
    "Env",
    "Outcome",
    "Round",
    "counts_for",
    "setup",
    "check_answers",
    "usable_cores",
    "pin_to_one_core",
    "WORKERS",
]

#: Rows of every n-th measured query are kept for the answer check, and
#: the raw spans of every n-th query are kept by the tracer.
KEEP_EVERY = 50

#: The independent scan costs ~40 ms a query at paper scale, so only
#: this many distinct kept queries (evenly spaced) are replayed.
ORACLE_MAX = 24

#: Query counts at the declared ``run_seconds``: the timed rounds of a
#: run take about that long on the box the README describes, which is
#: what fits the driver's 4 + 22 x 5 runs into its time cap with room to
#: spare.  ``--seconds`` scales the length of a round (and of the
#: warm-up) linearly; the number of rounds, of warm-up passes and of
#: users stays.
FULL_COUNTS: dict[str, dict[str, int]] = {
    "hot_fit": {"stream": 7000, "rounds": 12},
    "miss_heavy": {"warmup": 210, "stream": 1500},
    "tiered_hot": {
        "stream": 2400, "warm_passes": 2, "rounds_a": 6, "rounds_b": 2
    },
    "serve_fair": {
        "users": 8, "warmup_per_user": 175, "per_user": 175, "rounds": 7
    },
    "front_dup": {
        "users": 8, "warmup_per_user": 175, "per_user": 175, "rounds": 7
    },
}

#: Fixed counts of ``--smoke`` (SMOKE_SCALE data): all five in seconds.
SMOKE_COUNTS: dict[str, dict[str, int]] = {
    "hot_fit": {"stream": 300, "rounds": 3},
    "miss_heavy": {"warmup": 30, "stream": 100},
    "tiered_hot": {
        "stream": 400, "warm_passes": 2, "rounds_a": 3, "rounds_b": 1
    },
    "serve_fair": {
        "users": 8, "warmup_per_user": 10, "per_user": 25, "rounds": 2
    },
    "front_dup": {
        "users": 8, "warmup_per_user": 10, "per_user": 25, "rounds": 2
    },
}

_UNSCALED = frozenset(
    {"users", "rounds", "rounds_a", "rounds_b", "warm_passes"}
)

#: The database (fact table, hot region) and each workload's warm-up and
#: measured query populations are the benchmark's fixed definition,
#: generated from this constant.  ``--seed`` draws the run from them: the
#: order of the queries, and with it which user asks what and every
#: cache state along the way.  With the population itself
#: drawn per seed, the spread between seeds was 10-13 % on pages per
#: query and up to 17 % on p99 (README, "Steadiness") before any machine
#: noise, which no bound the contract allows would have covered.
POPULATION_SEED = 1998


#: Worker threads of the served workloads.  The fair turnstile and the
#: front door's window order let one query execute at a time, so the two
#: share the one core the run is pinned to and hand over on it.
WORKERS = 2


def usable_cores() -> int:
    """Cores this process may run on."""
    return len(os.sched_getaffinity(0))


def pin_to_one_core() -> None:
    """Keep this process and its threads on one of its cores.

    No workload here has two threads that run at once.  Left to the
    scheduler, the session workloads' threads land on different cores
    and every hand-over becomes a cross-core wake-up through the
    hypervisor: the median service time read 0.16 ms in one run and
    0.26-0.30 ms in the next; pinned, 0.155-0.18 ms (README,
    "Steadiness").  The highest-numbered core is taken, the one least
    likely to serve the guest's interrupts.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def counts_for(
    name: str, seconds: float, run_seconds: int, smoke: bool
) -> dict[str, int]:
    """The workload's fixed query counts for a ``--seconds`` budget."""
    if smoke:
        return dict(SMOKE_COUNTS[name])
    factor = seconds / run_seconds
    return {
        key: (
            value
            if key in _UNSCALED
            else max(KEEP_EVERY, round(value * factor))
        )
        for key, value in FULL_COUNTS[name].items()
    }


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------
@dataclass
class Env:
    """One set-up system: data, stack and the generated streams."""

    name: str
    seed: int
    counts: dict[str, int]
    records: np.ndarray
    config: StackConfig
    stack: Stack
    tracer: Tracer | None
    warm_queries: Sequence[StarQuery] = ()
    queries: Sequence[StarQuery] = ()
    warm_streams: Sequence[QueryStream] = ()
    streams: Sequence[QueryStream] = ()

    def close(self) -> None:
        """Release the stack; the 2-tier log file is removed with it."""
        self.stack.close()
        path = self.config.persist_path
        if path is not None and os.path.exists(path):
            os.remove(path)


@dataclass
class Round:
    """One timed round: its queries, wall seconds and service times
    (no service times in a traced run)."""

    queries: int
    wall: float
    latencies: list[float]


@dataclass
class Outcome:
    """What one workload's measured phase produced.

    ``attempted``, ``wall`` and ``metrics`` cover all rounds together;
    ``replicas`` holds ``(csr, pages read)`` of each round that started
    from the restored state, which must all be the same.
    """

    attempted: int = 0
    answered_total: int = 0
    wall: float = 0.0
    failed: int = 0
    rounds: list[Round] = field(default_factory=list)
    replicas: list[tuple[float, int]] = field(default_factory=list)
    metrics: StreamMetrics = field(default_factory=StreamMetrics)
    kept: list[tuple[StarQuery, np.ndarray]] = field(default_factory=list)
    layer: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def best_qps(self) -> float:
        """Queries per second of the fastest round."""
        return max(r.queries / r.wall for r in self.rounds)

    def best_latency(self, share: float) -> float:
        """Percentile ``share`` of the service times of one round,
        seconds, in the round where it reads lowest."""
        return min(percentile(r.latencies, share) for r in self.rounds)

    def add_replica(self, metrics: StreamMetrics) -> None:
        """Take in the program's own metrics of one restored round."""
        self.replicas.append(
            (metrics.cost_saving_ratio(), metrics.total_pages_read())
        )
        self.metrics.absorb(metrics)
        if self.replicas[-1] != self.replicas[0]:
            self.problems.append(
                f"round {len(self.replicas)} is no replica of round 1: "
                f"csr/pages {self.replicas[-1]} against {self.replicas[0]}"
            )


@dataclass(frozen=True)
class Probe:
    """Cumulative program counters read at a phase boundary."""

    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    pool_hits: int = 0
    pool_misses: int = 0
    backend_lock_wait: float = 0.0
    backend_lock_acquisitions: int = 0
    shard_lock_wait: float = 0.0
    shard_lock_acquisitions: int = 0
    l2_pages_written: int = 0
    l2_pages_read: int = 0
    l2_hits: int = 0
    l2_misses: int = 0
    promotes: int = 0
    spills: int = 0

    @classmethod
    def read(cls, stack: Stack) -> "Probe":
        cache, backend = stack.cache, stack.backend
        assert cache is not None
        tiers = cache.tiers()
        l2: dict[str, Any] = {}
        if tiers:
            l1, l2 = tiers["l1"], tiers["l2"]  # type: ignore[assignment]
            hits, misses = l1["hits"], l1["misses"]
            evictions = l1["evictions"]
        else:
            stats = cache.stats
            hits, misses = stats.hits, stats.misses
            evictions = stats.evictions
        pool = backend.buffer_pool.stats
        shards = cache.contention()
        return cls(
            cache_hits=hits,
            cache_misses=misses,
            cache_evictions=evictions,
            pool_hits=pool.hits,
            pool_misses=pool.misses,
            backend_lock_wait=backend.lock_wait_seconds,
            backend_lock_acquisitions=backend.lock_acquisitions,
            shard_lock_wait=shards.get("lock_wait_seconds", 0.0),
            shard_lock_acquisitions=shards.get("lock_acquisitions", 0),
            l2_pages_written=l2.get("pages_written", 0),
            l2_pages_read=l2.get("pages_read", 0),
            l2_hits=l2.get("hits", 0),
            l2_misses=l2.get("misses", 0),
            promotes=l2.get("promotes", 0),
            spills=l2.get("spills", 0),
        )

    def since(self, earlier: "Probe") -> "Probe":
        """Field-wise ``self - earlier``."""
        return Probe(*(
            getattr(self, f.name) - getattr(earlier, f.name)
            for f in fields(self)
        ))

    def plus(self, other: "Probe") -> "Probe":
        return Probe(*(
            getattr(self, f.name) + getattr(other, f.name)
            for f in fields(self)
        ))


def _probe_values(delta: Probe, layer: dict[str, float]) -> None:
    """Per-layer values that come from the program's own counters."""
    layer["core.cache.hit_ratio"] = ratio(
        delta.cache_hits, delta.cache_hits + delta.cache_misses
    )
    layer["core.cache.evictions"] = delta.cache_evictions
    layer["storage.buffer.hit_ratio"] = ratio(
        delta.pool_hits, delta.pool_hits + delta.pool_misses
    )
    layer["backend.lock_wait_s"] = delta.backend_lock_wait
    layer["backend.lock_acquisitions"] = delta.backend_lock_acquisitions
    layer["serve.sharded.lock_wait_s"] = delta.shard_lock_wait
    layer["serve.sharded.lock_acquisitions"] = delta.shard_lock_acquisitions
    layer["core.tiered.promotes"] = delta.promotes
    layer["core.tiered.spills"] = delta.spills
    layer["core.tiered.l2_hit_ratio"] = ratio(
        delta.l2_hits, delta.l2_hits + delta.l2_misses
    )
    layer["storage.l2.pages_written"] = delta.l2_pages_written
    layer["storage.l2.pages_read"] = delta.l2_pages_read


# ----------------------------------------------------------------------
# Building the stack (with or without proxies)
# ----------------------------------------------------------------------
def _open_cache(config: StackConfig, tracer: Tracer | None) -> Any:
    """The configured chunk store; with a tracer, proxies are injected
    through the constructors that take prebuilt parts."""
    if tracer is None:
        return build_cache(config)
    if config.cache_tiers == 1:
        return TracedStore(build_cache(config), tracer, "core.cache")
    l1 = build_cache(
        replace(
            config, cache_tiers=1, persist_path=None, compact_threshold=None
        )
    )
    log = ChunkLog(config.persist_path, page_size=config.page_size)
    tiered = TieredChunkCache(
        TracedL1(l1, tracer),
        TracedL2(log, tracer),
        demote_min_benefit=config.demote_min_benefit,
        compact_threshold=config.compact_threshold,
    )
    if log.recovery.live_entries > 0:
        tiered.reopen()
    return TracedStore(tiered, tracer, "core.tiered")


def _trace_manager(manager: Any, tracer: Tracer) -> None:
    trace_pipeline_stages(manager.pipeline, tracer)
    manager.pipeline = TracedPipeline(manager.pipeline, tracer)


def _build(
    env_name: str,
    schema: Any,
    records: np.ndarray,
    config: StackConfig,
    tracer: Tracer | None,
) -> Stack:
    if tracer is None:
        return build_stack(schema, records, config)
    space = ChunkSpace(schema, config.chunk_ratio)
    backend = build_backend(
        schema,
        space,
        records,
        page_size=config.page_size,
        buffer_pool_pages=config.buffer_pool_pages,
    )
    stack = build_stack(
        schema,
        config=config,
        space=space,
        backend=TracedBackend(backend, tracer),  # type: ignore[arg-type]
        cache=_open_cache(config, tracer),
    )
    # The front door builds its own pipeline from the manager's and
    # type-checks the links, so its stages are wrapped after it exists.
    if env_name != "front_dup":
        _trace_manager(stack.chunk_manager, tracer)
    return stack


def _population(
    schema: Any, warmup: int, measured: int, mix: Any, seed: int
) -> tuple[list[StarQuery], list[StarQuery]]:
    """The workload's fixed warm-up stream, and its fixed measured
    query population in the run's order."""
    queries = QueryGenerator(schema, seed=POPULATION_SEED).stream(
        warmup + measured, mix
    )
    warm, stream = queries[:warmup], queries[warmup:]
    random.Random(seed).shuffle(stream)
    return warm, stream


def _user_streams(
    queries: Sequence[StarQuery], users: int, paired: bool
) -> list[QueryStream]:
    """Deal ``queries`` to K users.

    All users analyse the one hot region, each with their own queries —
    or, ``paired``, users 2k and 2k+1 ask the same thing, which is what
    fills admission windows with duplicate chunk requests (the shape of
    ``frontjob.duplicate_streams``).
    """
    lanes = users // 2 if paired else users
    per_lane = len(queries) // lanes
    return [
        QueryStream(
            f"user{user}",
            tuple(queries[lane * per_lane : (lane + 1) * per_lane]),
        )
        for user in range(users)
        for lane in (user // 2 if paired else user,)
    ]


def setup(
    name: str,
    scale: Scale,
    seed: int,
    counts: dict[str, int],
    tracer: Tracer | None,
    workdir: str,
) -> Env:
    """Everything up to "ready for the first query": data generation,
    ``build_stack`` (bulk load, cache and L2 open), stream generation."""
    schema = build_paper_schema()
    records = generate_fact_table(
        schema, scale.num_tuples, seed=POPULATION_SEED
    )
    cube = cube_size_bytes(schema, scale.num_tuples)
    default_budget = int(cube * scale.cache_fraction_of_cube)
    fact_pages = max(1, (scale.num_tuples * 24) // scale.page_size)
    config = StackConfig(
        chunk_ratio=scale.chunk_ratio,
        page_size=scale.page_size,
        buffer_pool_pages=max(
            8, int(fact_pages * scale.buffer_fraction_of_fact)
        ),
        cache_bytes=default_budget,
    )
    if name == "hot_fit":
        config = replace(config, cache_bytes=int(cube * 0.3))
    elif name == "miss_heavy":
        config = replace(config, cache_bytes=int(cube * 0.01))
    elif name == "tiered_hot":
        config = replace(
            config,
            cache_bytes=default_budget // 16,
            cache_tiers=2,
            persist_path=os.path.join(workdir, "l2.log"),
            compact_threshold=0.4,
        )
    else:
        config = replace(config, num_shards=8)
    env = Env(
        name=name,
        seed=seed,
        counts=counts,
        records=records,
        config=config,
        stack=_build(name, schema, records, config, tracer),
        tracer=tracer,
    )
    if name in ("serve_fair", "front_dup"):
        paired = name == "front_dup"
        users = counts["users"]
        lanes = users // 2 if paired else users
        warm, measured = _population(
            schema,
            lanes * counts["warmup_per_user"],
            lanes * counts["per_user"],
            Q80,
            seed,
        )
        env.warm_streams = _user_streams(warm, users, paired)
        env.streams = _user_streams(measured, users, paired)
    else:
        mix = RANDOM if name == "miss_heavy" else Q100
        env.warm_queries, env.queries = _population(
            schema, counts.get("warmup", 0), counts["stream"], mix, seed
        )
    return env


# ----------------------------------------------------------------------
# Driving: one client
# ----------------------------------------------------------------------
def _answer_all(
    manager: Any,
    queries: Sequence[StarQuery],
    out: Outcome,
    tracer: Tracer | None,
) -> None:
    """One timed round, closed loop, one client; adds it to ``out``.

    Untraced, each query is timed with two clock reads around
    ``manager.answer``.  Traced, the same call is the query's root span
    (``core.manager.answer``) and no latency is kept: end-to-end numbers
    always come from the untraced run.
    """
    answer = manager.answer
    clock = time.perf_counter
    latencies: list[float] = []
    kept = out.kept
    started = clock()
    for index, query in enumerate(queries, start=out.attempted):
        try:
            if tracer is None:
                before = clock()
                result = answer(query)
                latencies.append(clock() - before)
            else:
                frame = tracer.begin("core.manager.answer", root=True)
                try:
                    result = answer(query)
                finally:
                    tracer.end(frame)
        except Exception as error:  # a failed query must not end the run
            out.failed += 1
            out.problems.append(f"query {index}: {error!r}")
            continue
        if index % KEEP_EVERY == 0:
            kept.append((query, result.rows))
    wall = clock() - started
    out.rounds.append(Round(len(queries), wall, latencies))
    out.wall += wall
    out.attempted += len(queries)


def _measure(env: Env, enabled: bool) -> None:
    if env.tracer is not None:
        env.tracer.enabled = enabled


def _warm_up(manager: Any, queries: Sequence[StarQuery]) -> None:
    for query in queries:
        manager.answer(query)
    manager.metrics = StreamMetrics()


def _restore(stack: Stack, warmed: Sequence[tuple[Any, Any]]) -> None:
    """Put ``stack`` back to where every round starts: the cache holds
    the warmed-up chunks (cleared, then ``put`` again in one fixed
    order) and the backend's buffer pool is empty.  Tens of
    milliseconds, outside every timed region."""
    cache = stack.cache
    assert cache is not None
    cache.clear()
    for _key, entry in warmed:
        cache.put(entry)
    stack.backend.buffer_pool.flush()


def _drive_hot_fit(env: Env) -> Outcome:
    """Every round is a pass over the one stream; nothing is evicted,
    so every round finds the same cache."""
    out = Outcome()
    manager = env.stack.chunk_manager
    _warm_up(manager, env.queries)
    before = Probe.read(env.stack)
    _measure(env, True)
    for _ in range(env.counts["rounds"]):
        _answer_all(manager, env.queries, out, env.tracer)
    _measure(env, False)
    _probe_values(Probe.read(env.stack).since(before), out.layer)
    out.metrics = manager.metrics
    out.answered_total = out.attempted + len(env.queries)
    return out


def _drive_miss_heavy(env: Env) -> Outcome:
    """One round over a stream long enough to speak for the population.

    Which chunks a cache of 1 % of the cube still holds depends on the
    order of the queries, so shorter replicated rounds would each sample
    that less well than one long round does: over ten seeds ``csr``
    spread by 7.5 % at 660 queries a round and by 1 % at 1 500.
    """
    out = Outcome()
    manager = env.stack.chunk_manager
    _warm_up(manager, env.warm_queries)
    before = Probe.read(env.stack)
    _measure(env, True)
    _answer_all(manager, env.queries, out, env.tracer)
    _measure(env, False)
    _probe_values(Probe.read(env.stack).since(before), out.layer)
    out.metrics = manager.metrics
    out.answered_total = len(env.warm_queries) + out.attempted
    return out


def _codec_times(cache: Any) -> tuple[float, float]:
    """Mean ``encode_chunk`` / ``decode_chunk`` seconds per chunk over
    (at most 512 of) the chunks resident in L1."""
    resident = cache.tiers()["l1"]["entries"]
    pairs = cache.snapshot()[: min(resident, 512)]
    if not pairs:
        return 0.0, 0.0
    clock = time.perf_counter
    started = clock()
    payloads = [encode_chunk(entry) for _key, entry in pairs]
    encoded = clock()
    for (key, _entry), payload in zip(pairs, payloads):
        decode_chunk(key, payload)
    decoded = clock()
    return (encoded - started) / len(pairs), (decoded - encoded) / len(pairs)


def _drive_tiered_hot(env: Env) -> Outcome:
    """Rounds over the one stream on the warmed two-tier cache (phase
    A), a close/reopen on the surviving log file, then more rounds on
    the restarted cache (phase B).

    A log file cannot be put back, so the rounds are passes over one
    stream that L1 is far too small for: each pass promotes from L2 and
    spills back what the one before it did.  The log grows and is
    compacted as it goes, which is the part that differs between rounds.
    """
    out = Outcome()
    counts = env.counts
    manager = env.stack.chunk_manager
    for _ in range(counts["warm_passes"]):
        _warm_up(manager, env.queries)
    before = Probe.read(env.stack)
    _measure(env, True)
    for _ in range(counts["rounds_a"]):
        _answer_all(manager, env.queries, out, env.tracer)
    _measure(env, False)
    delta = Probe.read(env.stack).since(before)
    cache = env.stack.cache
    assert cache is not None and env.config.persist_path is not None
    out.layer["storage.l2.space_amp"] = ratio(
        os.path.getsize(env.config.persist_path),
        cache.log.live_bytes,  # type: ignore[attr-defined]
    )
    if env.tracer is not None:
        encode, decode = _codec_times(cache)
        out.layer["core.tiered.codec.encode_us_per_chunk"] = encode * 1e6
        out.layer["core.tiered.codec.decode_us_per_chunk"] = decode * 1e6

    # Restart: close, then rebuild the cache on the file that survives.
    restart = time.perf_counter()
    env.stack.close()
    reopened = _open_cache(env.config, env.tracer)
    out.layer["core.tiered.reopen_s"] = time.perf_counter() - restart
    out.layer["core.tiered.warm_loaded"] = reopened.tiers()["l2"][
        "warm_loaded"
    ]
    first = env.stack
    env.stack = build_stack(
        first.schema,
        config=env.config,
        space=first.space,
        backend=first.backend,
        cache=reopened,
    )
    manager_b = env.stack.chunk_manager
    if env.tracer is not None:
        _trace_manager(manager_b, env.tracer)
    before = Probe.read(env.stack)
    _measure(env, True)
    for _ in range(counts["rounds_b"]):
        _answer_all(manager_b, env.queries, out, env.tracer)
    _measure(env, False)
    delta = delta.plus(Probe.read(env.stack).since(before))
    _probe_values(delta, out.layer)
    manager.metrics.absorb(manager_b.metrics)
    out.metrics = manager.metrics
    out.answered_total = (
        out.attempted + counts["warm_passes"] * len(env.queries)
    )
    return out


# ----------------------------------------------------------------------
# Driving: sessions
# ----------------------------------------------------------------------
def _keeper(out: Outcome) -> Callable[[int, str, StarQuery, Any], None]:
    def keep(seq: int, _stream: str, query: StarQuery, rows: Any) -> None:
        if seq % KEEP_EVERY == 0:
            out.kept.append((query, rows))

    return keep


def _session_rounds(
    env: Env, out: Outcome, run_session: Callable[[list[float]], Any]
) -> None:
    """The measured phase of a served workload: ``rounds`` sessions over
    the same streams, each from the restored state.  ``run_session``
    runs one, appending service times to the list it is given, and
    returns its ``ServeReport``."""
    warmed = env.stack.cache.snapshot()  # type: ignore[union-attr]
    queries = sum(len(stream) for stream in env.streams)
    delta = Probe()
    for _ in range(env.counts["rounds"]):
        _restore(env.stack, warmed)
        latencies: list[float] = []
        before = Probe.read(env.stack)
        _measure(env, True)
        report = run_session(latencies)
        _measure(env, False)
        delta = delta.plus(Probe.read(env.stack).since(before))
        out.rounds.append(Round(queries, report.wall_seconds, latencies))
        out.attempted += queries
        out.wall += report.wall_seconds
        out.failed += queries - report.queries
        for failure in report.failures:
            out.problems.append(f"query {failure.seq}: {failure.kind}")
        out.add_replica(report.metrics)
    _probe_values(delta, out.layer)
    out.answered_total = out.attempted + sum(
        len(stream) for stream in env.warm_streams
    )


def _drive_serve_fair(env: Env) -> Outcome:
    out = Outcome()
    manager = env.stack.chunk_manager
    ServeSession(
        manager, env.warm_streams, max_workers=WORKERS, schedule=FAIR
    ).run()
    pipeline = manager.pipeline

    def run_session(latencies: list[float]) -> Any:
        if env.tracer is None:
            manager.pipeline = TimedPipeline(pipeline, latencies)
        return ServeSession(
            manager,
            env.streams,
            max_workers=WORKERS,
            schedule=FAIR,
            on_answer=_keeper(out),
        ).run()

    _session_rounds(env, out, run_session)
    manager.pipeline = pipeline
    return out


def _drive_front_dup(env: Env) -> Outcome:
    out = Outcome()
    manager = env.stack.chunk_manager
    config = FrontConfig(max_workers=WORKERS)
    FrontSession(manager, env.warm_streams, config).run()
    layer = out.layer

    def run_session(latencies: list[float]) -> Any:
        front = FrontSession(
            manager, env.streams, config, on_answer=_keeper(out)
        )
        if env.tracer is None:
            front.pipeline = TimedPipeline(  # type: ignore[assignment]
                front.pipeline, latencies
            )
        else:
            trace_pipeline_stages(front.pipeline, env.tracer)
            front.pipeline = TracedPipeline(  # type: ignore[assignment]
                front.pipeline, env.tracer
            )
        report = front.run()
        shed = len(front.shed_queries)
        if shed:  # already among the round's unanswered queries
            out.problems.append(f"{shed} queries shed by admission")
        for name, value in front.flight.stats().items():
            key = f"pipeline.flight.{name}"
            layer[key] = layer.get(key, 0) + value
        layer["serve.front.windows"] = layer.get(
            "serve.front.windows", 0
        ) + len(front.window_log)
        layer["serve.front.shed"] = layer.get("serve.front.shed", 0) + shed
        return report

    _session_rounds(env, out, run_session)
    return out


def sequential_replay(env: Env) -> tuple[float, int]:
    """``(csr, pages)`` of one round's streams answered one by one in
    the fair schedule's canonical order, from the same restored state on
    a fresh identical cache over the reset backend — what every round of
    ``serve_fair`` must reproduce exactly."""
    backend = env.stack.backend
    backend.buffer_pool.flush()
    backend.buffer_pool.reset_stats()
    backend.disk.reset_stats()
    stack = build_stack(
        env.stack.schema,
        config=env.config,
        space=env.stack.space,
        backend=backend,
        cache=build_cache(env.config),
    )
    manager = stack.chunk_manager
    _warm_up(manager, interleave_streams("warm-up", env.warm_streams).queries)
    assert stack.cache is not None
    _restore(stack, stack.cache.snapshot())
    for query in interleave_streams("measured", env.streams):
        manager.answer(query)
    return (
        manager.metrics.cost_saving_ratio(),
        manager.metrics.total_pages_read(),
    )


WORKLOADS: dict[str, Callable[[Env], Outcome]] = {
    "hot_fit": _drive_hot_fit,
    "miss_heavy": _drive_miss_heavy,
    "tiered_hot": _drive_tiered_hot,
    "serve_fair": _drive_serve_fair,
    "front_dup": _drive_front_dup,
}


# ----------------------------------------------------------------------
# Answer check (outside every timed region)
# ----------------------------------------------------------------------
def _same_rows(expected: np.ndarray, actual: np.ndarray) -> bool:
    """Row-set equality; group keys exact, aggregates to 1e-9 (the cache
    and the scan may add the same floats in a different order)."""
    if expected.dtype != actual.dtype or len(expected) != len(actual):
        return False
    names = expected.dtype.names
    left = np.sort(expected, order=names)
    right = np.sort(actual, order=names)
    for name in names:
        if left[name].dtype.kind == "f":
            if not np.allclose(left[name], right[name], rtol=1e-9, atol=1e-9):
                return False
        elif not np.array_equal(left[name], right[name]):
            return False
    return True


def check_answers(env: Env, out: Outcome) -> tuple[int, int]:
    """Replay kept queries against an independent ``BackendEngine`` scan.

    Returns ``(mismatches, answers checked)``.  The oracle engine is
    built here, after timing ended, from the same records.
    """
    answers: dict[StarQuery, list[np.ndarray]] = {}
    for query, rows in out.kept:
        answers.setdefault(query, []).append(rows)
    distinct = list(answers)
    step = max(1, -(-len(distinct) // ORACLE_MAX))
    oracle = build_backend(
        env.stack.schema,
        env.stack.space,
        env.records,
        page_size=env.config.page_size,
        buffer_pool_pages=env.config.buffer_pool_pages,
    )
    mismatches = checked = 0
    for query in distinct[::step]:
        expected, _report = oracle.answer(query, "scan")
        for rows in answers[query]:
            checked += 1
            if not _same_rows(expected, rows):
                mismatches += 1
                out.problems.append(f"oracle mismatch on {query}")
    return mismatches, checked
