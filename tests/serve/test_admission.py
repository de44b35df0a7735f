"""Property tests for the front door's pure admission schedule.

``admission_schedule`` never looks inside a query, so the streams here
carry ``(stream name, position)`` pairs instead of real queries.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ServeError
from repro.serve import FrontConfig
from repro.serve.front import admission_schedule
from repro.workload.stream import QueryStream, interleave_streams


def _streams(lengths):
    # Handed over in reverse, so the schedule's own name sort is
    # exercised.
    return [
        QueryStream(
            name=f"user-{user}",
            queries=tuple(
                (f"user-{user}", position) for position in range(length)
            ),
        )
        for user, length in reversed(list(enumerate(lengths)))
    ]


LENGTHS = st.lists(st.integers(0, 12), min_size=1, max_size=6)


@settings(max_examples=200, deadline=None)
@given(
    lengths=LENGTHS,
    window=st.integers(1, 9),
    queue_limit=st.integers(1, 12),
    arrivals_per_tick=st.integers(1, 4),
)
def test_every_offer_is_admitted_once_or_shed(
    lengths, window, queue_limit, arrivals_per_tick
):
    config = FrontConfig(
        window=window,
        queue_limit=queue_limit,
        arrivals_per_tick=arrivals_per_tick,
    )
    windows, shed = admission_schedule(_streams(lengths), config)
    admitted = [seq for tickets in windows for seq, _name, _query in tickets]
    rejected = [entry.seq for entry in shed]
    # Exactly one fate per offered sequence number, never both.
    assert sorted(admitted + rejected) == list(range(sum(lengths)))
    for tickets in windows:
        seqs = [seq for seq, _name, _query in tickets]
        assert 1 <= len(seqs) <= window
        assert seqs == sorted(seqs)
    # Windows are admitted in order, so the flattening ascends too.
    assert admitted == sorted(admitted)
    assert rejected == sorted(rejected)
    for entry in shed:
        assert entry.depth == queue_limit
    # A stream's k-th sequence number, admitted or shed, is its k-th
    # query.
    fates = sorted(
        [ticket for tickets in windows for ticket in tickets]
        + [(entry.seq, entry.stream, None) for entry in shed],
        key=lambda fate: fate[0],
    )
    offered = Counter()
    for _seq, name, query in fates:
        assert query is None or query == (name, offered[name])
        offered[name] += 1


@settings(max_examples=100, deadline=None)
@given(lengths=LENGTHS, window=st.integers(1, 9))
def test_one_arrival_per_tick_is_the_canonical_interleave(lengths, window):
    streams = _streams(lengths)
    config = FrontConfig(window=window, queue_limit=sum(lengths) + 1)
    windows, shed = admission_schedule(streams, config)
    assert shed == []
    ordered = sorted(streams, key=lambda stream: stream.name)
    flattened = [query for tickets in windows for _s, _n, query in tickets]
    if sum(lengths):
        assert flattened == list(interleave_streams("all", ordered))
    else:
        assert flattened == []


@pytest.mark.parametrize(
    "field", ["window", "queue_limit", "arrivals_per_tick"]
)
def test_a_zero_knob_is_refused_at_construction(field):
    # A zero window or arrival rate would keep admission_schedule
    # looping forever, and a zero queue limit would shed every query.
    with pytest.raises(ServeError, match=f"{field} must be >= 1, got 0"):
        FrontConfig(**{field: 0})
