"""One workload, one process: set up, drive, check, report.

The runner starts this module's :func:`run_workload` in a fresh
subprocess per workload, so ``peak_rss_mb`` and heap state belong to
that workload alone.  The result travels back as one JSON line.
"""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import asdict, dataclass, field

from repro.experiments.configs import PAPER_SCALE, SMOKE_SCALE

from .metrics import (
    PACKAGE_DIR,
    Metric,
    load_declaration,
    ratio,
)
from .tracing import Tracer
from .workloads import (
    WORKLOADS,
    Env,
    Outcome,
    check_answers,
    counts_for,
    sequential_replay,
    setup,
)

__all__ = ["SETUPS", "WorkerResult", "run_workload", "layer_values"]

#: Set-ups per run; ``setup_s`` is their median (the first one also
#: pays first-call costs, which a median of five leaves out).
SETUPS = 5

RESULTS_DIR = PACKAGE_DIR / "results"
WORK_DIR = PACKAGE_DIR / ".work"


@dataclass
class WorkerResult:
    """Everything one run of one workload reports."""

    workload: str
    seed: int
    traced: bool
    counts: dict[str, int]
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    oracle_checked: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: list[Metric] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    @classmethod
    def from_json(cls, line: str) -> "WorkerResult":
        raw = json.loads(line)
        raw["metrics"] = [Metric(**entry) for entry in raw["metrics"]]
        return cls(**raw)

    def value(self, name: str) -> float:
        return next(m.value for m in self.metrics if m.name == name)


def _end_to_end(
    env: Env, out: Outcome, setup_times: list[float], peak_rss: float
) -> dict[str, tuple[float, int]]:
    """``name -> (value, samples)`` of the untraced run.

    The timed rounds of a run do the same work, and what the host adds
    to a round only ever slows it: each timing is read off the round
    that shows it best, like ``timeit``'s "take the minimum".
    """
    per_round = out.rounds[0].queries
    pages = env.stack.backend.disk.stats.reads
    return dict(
        setup_s=(statistics.median(setup_times), SETUPS),
        qps=(out.best_qps(), per_round),
        lat_p50_ms=(out.best_latency(0.50) * 1e3, per_round),
        lat_p99_ms=(out.best_latency(0.99) * 1e3, per_round),
        csr=(out.metrics.cost_saving_ratio(), out.attempted),
        # From the cold cache on, warm-up included: over the measured
        # phase alone hot_fit reads no page at all, and an end-to-end
        # metric must never be 0.
        backend_pages_per_query=(
            pages / out.answered_total, out.answered_total
        ),
        peak_rss_mb=(peak_rss, 1),
    )


def layer_values(
    env: Env, out: Outcome, untraced_qps: float
) -> dict[str, float]:
    """Every per-layer number the traced run can state, by metric name.

    Each span name contributes ``.calls``, ``.busy_s`` and ``.self_s``;
    proxies' counters and the program's own counter deltas are already
    keyed by metric name.  What ``BENCHMARK.json`` does not declare is
    dropped by the caller.
    """
    tracer = env.tracer
    assert tracer is not None
    values = dict(out.layer)
    totals = tracer.totals()
    counts = tracer.counts()
    values.update(counts)
    for name, layer in totals.items():
        values[f"{name}.calls"] = layer.calls
        values[f"{name}.busy_s"] = layer.busy
        values[f"{name}.self_s"] = layer.self_time

    def busy(name: str) -> float:
        return totals[name].busy if name in totals else 0.0

    values["pipeline.analyze.partitions_per_query"] = ratio(
        counts.get("pipeline.analyze.partitions", 0),
        values.get("pipeline.analyze.calls", 0),
    )
    values["pipeline.resolve_cache.resolved_share"] = ratio(
        counts.get("pipeline.resolve_cache.partitions", 0),
        counts.get("pipeline.resolve_cache.offered", 0),
    )
    values["core.cache.used_bytes"] = env.stack.cache.used_bytes
    values["core.tiered.self_s"] = sum(
        values.get(f"core.tiered.{part}.self_s", 0.0)
        for part in ("get", "put", "spill")
    )
    if "storage.l2.compact" in totals:
        values["storage.l2.compact.stall_max_ms"] = (
            totals["storage.l2.compact"].longest * 1e3
        )
    values["storage.l2.write_amp"] = ratio(
        values["storage.l2.pages_written"] * env.config.page_size,
        counts.get("storage.l2.put.bytes", 0),
    )
    # Under the turnstile the execute spans never overlap, so what the
    # session's wall time holds beyond them is hand-off and bookkeeping.
    layer = {"serve_fair": "serve.session", "front_dup": "serve.front"}.get(
        env.name
    )
    if layer is not None:
        overhead = out.wall - busy("pipeline.execute")
        values[f"{layer}.overhead_s"] = overhead
        values[f"{layer}.overhead_share"] = overhead / out.wall
    values["trace.unattributed_share"] = tracer.unattributed_share(out.wall)
    if untraced_qps:
        values["trace.overhead_share"] = 1.0 - out.best_qps() / untraced_qps
    return values


def _intent_problems(
    env: Env, out: Outcome, values: dict[str, float]
) -> list[str]:
    """Does the traced run show the behaviour the workload exists for?

    The thresholds are paper-scale facts, so smoke runs skip this.
    """
    problems = []

    def require(holds: bool, what: str) -> None:
        if not holds:
            problems.append(f"intent of {env.name} does not hold: {what}")

    name = env.name
    if name == "hot_fit":
        calls = values.get("backend.compute_chunks.calls", 0)
        require(calls == 0, f"{calls} backend.compute_chunks calls, not 0")
    elif name == "miss_heavy":
        share = values.get("pipeline.resolve_backend.busy_s", 0) / out.wall
        require(
            share >= 0.8,
            f"pipeline.resolve_backend is {share:.2f} of wall, below 0.80",
        )
    elif name == "tiered_hot":
        for metric in (
            "core.tiered.promotes",
            "core.tiered.spills",
            "storage.l2.compact.calls",
        ):
            require(values.get(metric, 0) > 0, f"{metric} is 0")
    elif name == "front_dup":
        require(
            values["pipeline.flight.coalesced_chunks"] > 0,
            "no chunk was coalesced",
        )
        require(values["serve.front.shed"] == 0, "queries were shed")
    elif name == "serve_fair":
        csr, pages = sequential_replay(env)
        require(
            all(replica == (csr, pages) for replica in out.replicas),
            "csr/pages differ from the sequential interleaved replay "
            f"({out.replicas[0]} served, {(csr, pages)} replayed)",
        )
    return problems


def _write_spans(env: Env, started: float) -> None:
    """Raw spans of the sampled queries, times relative to ``started``."""
    assert env.tracer is not None
    RESULTS_DIR.mkdir(exist_ok=True)
    rows = [
        [s.id, s.parent, s.query, s.name, s.start - started, s.end - started]
        for s in env.tracer.spans()
    ]
    document = dict(
        workload=env.name,
        seed=env.seed,
        columns=["id", "parent", "query", "name", "start_s", "end_s"],
        spans=rows,
    )
    path = RESULTS_DIR / f"spans-{env.name}.json"
    path.write_text(json.dumps(document) + "\n", encoding="utf-8")


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    traced: bool,
    smoke: bool,
    untraced_qps: float = 0.0,
) -> WorkerResult:
    """Run one workload once and return everything it measured."""
    declared = load_declaration()
    scale = SMOKE_SCALE if smoke else PAPER_SCALE
    counts = counts_for(name, seconds, declared["run_seconds"], smoke)
    result = WorkerResult(name, seed, traced, counts)
    tracer = Tracer() if traced else None
    WORK_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK_DIR)
    env: Env | None = None
    try:
        setup_times = []
        for _ in range(SETUPS):
            if env is not None:
                env.close()
            started = time.perf_counter()
            env = setup(name, scale, seed, counts, tracer, workdir)
            setup_times.append(time.perf_counter() - started)
        assert env is not None
        started = time.perf_counter()
        out = WORKLOADS[name](env)
        # ru_maxrss is KiB on Linux; read before the oracle engine exists.
        peak_rss = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        if traced:
            values = layer_values(env, out, untraced_qps)
            result.metrics = [
                Metric(d.name, d.unit, values.get(d.name, 0))
                for d in declared["per_layer"]
            ]
            _write_spans(env, started)
        else:
            measured = _end_to_end(env, out, setup_times, peak_rss)
            result.metrics = [
                Metric(d.name, d.unit, *measured[d.name])
                for d in declared["end_to_end"]
            ]
        mismatches, result.oracle_checked = check_answers(env, out)
        if traced and not smoke:
            out.problems.extend(_intent_problems(env, out, values))
        result.attempted = out.attempted
        result.failed = out.failed + mismatches
        result.problems = out.problems[:20]
        result.correct = not out.problems
    finally:
        if env is not None:
            env.close()
        shutil.rmtree(workdir, ignore_errors=True)
    return result
