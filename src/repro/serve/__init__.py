"""The multi-user serving layer.

Everything needed to run the chunk-caching middle tier for several
users' query streams.  A stack is not thread-safe: use one stack per
thread or process.  Every session runs its queries one at a time on
the calling thread.

- :class:`ShardedChunkCache` — a :class:`~repro.core.cache.ChunkStore`
  striped over shards (bit-identical to the plain cache at
  ``num_shards=1``);
- :class:`ServeSession` — the one serving engine: K user streams
  through the existing staged pipeline under the deterministic
  **fair** schedule, with simulated workers;
- :func:`run_soak` — the invariant-hammering stress harness over any
  store; given a fault injector it is the chaos soak, asserting
  graceful degradation (correct answer or typed failure, exact I/O
  conservation, reproducible digest);
- :class:`FrontSession` / :func:`run_front` — the admission front
  door, a :class:`ServeSession` over a precomputed admission schedule:
  bounded deterministic backpressure (every shed a recorded
  :class:`ShedQuery`), fixed admission windows, and single-flight
  chunk coalescing through the pipeline's
  :class:`~repro.pipeline.flight.FlightTable`.

The layer sits strictly *above* the pipeline: it composes the manager,
cache and workload layers and never touches the backend or storage
directly (enforced by reprolint rule R001); fault injectors arrive
duck-typed from the composition root so this layer never imports
:mod:`repro.faults` either (rule R006).
"""

from repro.serve.front import (
    FrontConfig,
    FrontReport,
    FrontSession,
    ShedQuery,
    run_front,
)
from repro.serve.session import (
    FAIR,
    QueryFailure,
    ServeReport,
    ServeSession,
)
from repro.serve.sharded import (
    CacheShard,
    ShardedChunkCache,
    stable_key_hash,
)
from repro.serve.soak import (
    FaultSource,
    SoakConfig,
    SoakReport,
    run_soak,
)

__all__ = [
    "FAIR",
    "CacheShard",
    "FaultSource",
    "FrontConfig",
    "FrontReport",
    "FrontSession",
    "QueryFailure",
    "ShedQuery",
    "ServeReport",
    "ServeSession",
    "ShardedChunkCache",
    "SoakConfig",
    "SoakReport",
    "run_front",
    "run_soak",
    "stable_key_hash",
]
