"""Serving-layer throughput benchmark — 8 user streams, 1..8 workers.

Runs the multiuser Q80 workload through the serving layer at 1, 2, 4
and 8 simulated workers under the fair schedule and reports, per run,
the **simulated throughput/speedup** — queries per simulated second,
what a multi-core deployment of the modelled architecture would
observe.  The fair schedule runs on the calling thread at every worker
count, so there is no wall-clock curve to record here; wall time is
``benchmarks/e2e``'s business (``serve_fair``).

Shape asserted: every worker count produces bit-identical accounting
totals (the fair schedule's determinism contract), and 4 workers beat
1 worker by more than 1.5x in simulated throughput.

A second arm runs the same workload once with the persistent second
tier enabled (``cache_tiers=2``, ``docs/TIERING.md``) and records the
per-tier hit ratios and spill/promote page counts — deterministic
counters only.

The full scan is written to ``BENCH_serve.json`` at the repo root.
"""

from repro.api import StackConfig, build_cache
from repro.experiments.configs import DEFAULT_SCALE
from repro.experiments.harness import get_system
from repro.experiments.multiuser import run_shared_concurrent, user_streams

WORKER_COUNTS = (1, 2, 4, 8)
NUM_STREAMS = 8


def totals(report):
    metrics = report.metrics
    return repr(
        (
            metrics.cost_saving_ratio(),
            metrics.mean_time(),
            metrics.total_pages_read(),
            len(metrics),
        )
    )


def run_row(workers, report, simulated_speedup):
    return {
        "workers": workers,
        "simulated_makespan": report.simulated_makespan,
        "simulated_throughput": report.simulated_throughput,
        "simulated_speedup": simulated_speedup,
        # The contention dict mixes wall-clock waits with deterministic
        # counters; this entry reads only the acquisition count.
        "backend_lock_acquisitions": (
            report.contention["backend"]["lock_acquisitions"]
        ),
    }


def tier_ratios(tiers):
    """Deterministic per-tier summary for the benchmark artifact."""
    l1, l2 = tiers["l1"], tiers["l2"]
    l1_lookups = l1["hits"] + l1["misses"]
    return {
        "l1_hit_ratio": l1["hits"] / l1_lookups if l1_lookups else 0.0,
        "l2_hit_ratio": l2["hit_ratio"],
        "l1_hits": l1["hits"],
        "l1_misses": l1["misses"],
        "l2_hits": l2["hits"],
        "l2_misses": l2["misses"],
        "spills": l2["spills"],
        "promotes": l2["promotes"],
        "l2_pages_written": l2["pages_written"],
        "l2_pages_read": l2["pages_read"],
    }


def test_bench_serve(benchmark, record_json, tmp_path):
    system = get_system(DEFAULT_SCALE)
    streams = user_streams(system, num_users=NUM_STREAMS)

    def scan():
        return {
            workers: run_shared_concurrent(
                system, streams, max_workers=workers
            )
            for workers in WORKER_COUNTS
        }

    reports = benchmark.pedantic(scan, rounds=1, iterations=1)

    # Determinism contract: the worker count changes throughput only,
    # never a single accounting number.
    baseline = totals(reports[1])
    for workers in WORKER_COUNTS[1:]:
        assert totals(reports[workers]) == baseline, (
            f"{workers}-worker totals diverged from sequential"
        )

    sim_base = reports[1].simulated_throughput
    sim_speedups = {
        workers: reports[workers].simulated_throughput / sim_base
        for workers in WORKER_COUNTS
    }
    assert sim_speedups[4] > 1.5, (
        f"4-worker simulated speedup only {sim_speedups[4]:.2f}x"
    )
    assert reports[8].simulated_makespan <= reports[1].simulated_makespan

    # The 2-tier arm: same workload, L1 over the persistent chunk log.
    # Untimed — the artifact entry is the per-tier counter split, not a
    # throughput number.  An eighth of the budget forces L1 evictions
    # so the demote/promote cycle actually runs.
    tiered_cache = build_cache(
        StackConfig(
            cache_bytes=system.cache_bytes // 8,
            num_shards=1,
            cache_tiers=2,
            persist_path=str(tmp_path / "chunklog.bin"),
        )
    )
    try:
        run_shared_concurrent(
            system, streams, max_workers=4, cache=tiered_cache
        )
        tiered_cache.check_conservation()
        tier_split = tier_ratios(tiered_cache.tiers())
    finally:
        tiered_cache.close()
    assert tier_split["spills"] > 0, "2-tier arm never spilled"

    record_json(
        "serve",
        {
            "experiment": "serve-throughput",
            "scale": "default",
            "streams": NUM_STREAMS,
            "queries": reports[1].queries,
            "schedule": "fair",
            "totals": baseline,
            "runs": [
                run_row(workers, reports[workers], sim_speedups[workers])
                for workers in WORKER_COUNTS
            ],
            "tiers": {"chunklog": tier_split},
        },
    )
