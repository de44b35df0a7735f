"""Per-stage and per-resolver totals over a stream of execution traces.

The package keeps no stream-level stage history: each
:class:`~repro.pipeline.trace.ExecutionTrace` lives on its answer (and,
in a serving session, in ``ServeReport.traces``).  A test that wants the
stream's totals folds the traces it holds with these two functions.
"""

from __future__ import annotations

from repro.pipeline.trace import STAGE_FIELDS


def stage_totals(traces):
    """``stage name -> {"calls", *STAGE_FIELDS}`` summed over every
    stage of ``traces``, in first-seen stage order."""
    totals = {}
    for trace in traces:
        for name, *values in trace.stages:
            bucket = totals.get(name)
            if bucket is None:
                bucket = totals[name] = dict.fromkeys(
                    ("calls", *STAGE_FIELDS), 0.0
                )
            bucket["calls"] += 1
            for field, value in zip(STAGE_FIELDS, values):
                bucket[field] += value
    return totals


def resolver_totals(traces):
    """Partitions resolved per resolver, summed over ``traces``."""
    totals = {}
    for trace in traces:
        for name, count in trace.resolved_by.items():
            totals[name] = totals.get(name, 0) + count
    return totals
