"""Front-door coalescing benchmark — duplicate-heavy admission windows.

Runs the paired-duplicate multiuser workload (users 2k and 2k+1 issue
identical query sequences) through the admission front door, once
with single-flight coalescing disabled and once enabled, at 1, 2 and
4 workers, and reports:

- **pages_read** — physical backend pages; the coalesced run must be
  strictly below the baseline (duplicate chunks in a window are fetched
  once and shared instead of refetched per requester);
- **coalesced_chunks / shared_pages** — how much of the workload the
  flight table absorbed;
- the determinism contract — the coalesced digest is identical at
  every worker count.

The full scan is written to ``BENCH_front.json`` at the repo root —
the artifact the nightly workflow archives next to ``BENCH_serve``.
"""

from dataclasses import replace

from repro.experiments.configs import DEFAULT_SCALE
from repro.experiments.harness import get_system, make_chunk_manager
from repro.experiments.multiuser import user_streams
from repro.serve import FrontConfig, run_front

WORKER_COUNTS = (1, 2, 4)
NUM_STREAMS = 8
CONFIG = FrontConfig(window=8)


def test_bench_front(benchmark, record_json):
    system = get_system(DEFAULT_SCALE)
    streams = user_streams(system, num_users=NUM_STREAMS, paired=True)

    def scan():
        baseline = run_front(
            make_chunk_manager(system),
            streams,
            replace(CONFIG, coalesce=False),
        )
        coalesced = {
            workers: run_front(
                make_chunk_manager(system),
                streams,
                replace(CONFIG, max_workers=workers),
            )
            for workers in WORKER_COUNTS
        }
        return baseline, coalesced

    baseline, coalesced = benchmark.pedantic(scan, rounds=1, iterations=1)

    # The headline claim: coalescing strictly cuts physical backend
    # pages on a duplicate-heavy workload, with conservation intact on
    # both sides.
    report = coalesced[1]
    assert report.pages_read < baseline.pages_read, (
        f"coalescing saved nothing: {report.pages_read} vs "
        f"{baseline.pages_read} baseline pages"
    )
    assert report.flights > 0 and report.coalesced_chunks > 0
    assert baseline.pages_read == baseline.disk_read_delta
    assert report.pages_read == report.disk_read_delta

    # Determinism contract: worker count never changes the digest.
    for workers in WORKER_COUNTS[1:]:
        assert coalesced[workers].digest == report.digest, (
            f"{workers}-worker digest diverged"
        )

    record_json(
        "front",
        {
            "experiment": "front-coalescing",
            "scale": "default",
            "streams": NUM_STREAMS,
            "queries": report.queries,
            "window": CONFIG.window,
            "baseline_pages_read": baseline.pages_read,
            "pages_saved": baseline.pages_read - report.pages_read,
            "digest": report.digest,
            "runs": [
                {
                    "workers": workers,
                    "coalesce": True,
                    "pages_read": run.pages_read,
                    "flights": run.flights,
                    "coalesced_chunks": run.coalesced_chunks,
                    "shared_pages": run.shared_pages,
                    "simulated_throughput": run.serve.simulated_throughput,
                }
                for workers, run in coalesced.items()
            ],
        },
    )
