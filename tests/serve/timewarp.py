"""One arm of the time-warp test in ``tests/serve/test_determinism.py``.

Run as ``PYTHONPATH=src python tests/serve/timewarp.py A|B``.  Before
``repro`` is imported it replaces ``time.perf_counter``,
``time.monotonic`` and ``time.time`` with a fake and reseeds the global
``random`` and ``numpy.random`` generators; then it runs every job
whose output is pinned as deterministic and prints their summaries as
one JSON object:

- arm ``A`` reads each clock as ``1e6 + 3 * t`` and seeds the RNGs
  with 1;
- arm ``B`` advances each clock by a random 0–1 ms on every call and
  seeds the RNGs with 99.

Both fakes are monotone, so no session deadline can fire.  The test
runs the two arms under different ``PYTHONHASHSEED`` values and
requires equal summaries.
"""

from __future__ import annotations

import json
import random
import sys
import time
from typing import Any, Callable

import numpy as np

Clock = Callable[[], float]


def warp(arm: str) -> list[int]:
    """Install arm ``arm``'s fake clocks and RNG seeds; count reads."""
    reads = [0]
    jitter = random.Random(arm)

    def fake(real: Clock) -> Clock:
        drift = 0.0

        def clock() -> float:
            nonlocal drift
            reads[0] += 1
            if arm == "A":
                return 1e6 + 3.0 * real()
            drift += jitter.uniform(0.0, 1e-3)
            return real() + drift

        return clock

    for name in ("perf_counter", "monotonic", "time"):
        setattr(time, name, fake(getattr(time, name)))
    seed = 1 if arm == "A" else 99
    random.seed(seed)
    np.random.seed(seed)
    return reads


def run_jobs() -> dict[str, Any]:
    """Every job that reports a digest or a deterministic summary."""
    from repro.experiments import jobs, multiuser
    from repro.experiments.configs import SMOKE_SCALE
    from repro.experiments.harness import get_system

    system = get_system(SMOKE_SCALE)
    shared = multiuser.run_shared_concurrent(
        system, multiuser.user_streams(system)
    )
    return {
        "soak": jobs.run_soak_job(SMOKE_SCALE),
        "chaos": jobs.run_chaos_job(SMOKE_SCALE),
        "chaos_2_tiers": jobs.run_chaos_job(
            SMOKE_SCALE, cache=jobs.cache_config(SMOKE_SCALE, cache_tiers=2)
        ),
        "front": jobs.run_front_job(SMOKE_SCALE),
        "front_chaos": jobs.run_front_chaos_job(SMOKE_SCALE),
        "shared_concurrent": shared.metrics.summary(),
    }


if __name__ == "__main__":
    clock_reads = warp(sys.argv[1])
    summaries = run_jobs()
    print(json.dumps({"clock_reads": clock_reads[0], "jobs": summaries}))
