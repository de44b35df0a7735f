"""Self-test of the benchmark harness (not part of tier-1).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e``.  Everything
here runs at ``SMOKE_SCALE``; the numbers mean nothing, the checks are
about the harness: names match the declaration, counts repeat per seed
and move with it, and the span arithmetic is right.
"""

from __future__ import annotations

import functools
import json
import subprocess
import sys

import pytest

from .compare import verdict
from .metrics import REPO_ROOT, Declared, load_declaration
from .tracing import Tracer
from .worker import WorkerResult, run_workload

DECLARED = load_declaration()
WORKLOADS = DECLARED["workloads"]

#: Units of values read off a clock (or the allocator): free to differ
#: between two runs of one seed.  Everything else is a count.
TIMING_UNITS = {"s", "ms", "us", "1/s", "MiB"}
TIMING_RATIOS = ("overhead_share", "unattributed_share", "lock_wait")


@functools.lru_cache(maxsize=None)
def smoke(name: str, seed: int, traced: bool, repeat: int = 0) -> WorkerResult:
    """One smoke run; ``repeat`` only keys a second run of the same seed."""
    qps = smoke(name, seed, False).value("qps") if traced else 0.0
    return run_workload(name, seed, 1.0, traced, smoke=True, untraced_qps=qps)


def counts(result: WorkerResult) -> dict[str, float]:
    return {
        m.name: m.value
        for m in result.metrics
        if m.unit not in TIMING_UNITS
        and not any(part in m.name for part in TIMING_RATIOS)
    }


@pytest.mark.parametrize("name", WORKLOADS)
def test_emitted_names_are_exactly_the_declared_ones(name: str) -> None:
    for traced, kind in ((False, "end_to_end"), (True, "per_layer")):
        result = smoke(name, 1998, traced)
        assert result.correct and result.failed == 0, result.problems
        assert result.oracle_checked > 0
        emitted = [(m.name, m.unit) for m in result.metrics]
        assert emitted == [(d.name, d.unit) for d in DECLARED[kind]]
        assert all(unit for _name, unit in emitted)
    assert all(m.value != 0 for m in smoke(name, 1998, False).metrics)


def test_every_layer_metric_is_measured_by_some_workload() -> None:
    never = {d.name for d in DECLARED["per_layer"]} - {"serve.front.shed"}
    for name in WORKLOADS:
        never -= {m.name for m in smoke(name, 1998, True).metrics if m.value}
    assert not never, f"declared but never measured: {sorted(never)}"


@pytest.mark.parametrize("name", WORKLOADS)
def test_counts_repeat_per_seed_and_move_with_it(name: str) -> None:
    for traced in (False, True):
        first = counts(smoke(name, 1998, traced))
        assert first == counts(smoke(name, 1998, traced, repeat=1))
        # The seed orders a fixed query population.  hot_fit's measured
        # phase is all hits in any order, so there only the cold-start
        # page count (end to end) moves with the seed.
        if not (traced and name == "hot_fit"):
            assert first != counts(smoke(name, 7, traced))
    plain, traced_run = smoke(name, 1998, False), smoke(name, 1998, True)
    assert plain.attempted == traced_run.attempted


def test_contract_line_of_the_declared_command() -> None:
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        command = json.load(handle)["command"]
    assert command[0] == "python3"
    done = subprocess.run(
        [sys.executable, *command[1:], "--workload", "front_dup",
         "--seed", "3", "--seconds", "1", "--trace", "0", "--smoke"],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=120,
        check=True,
    )
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert list(line["metrics"]) == [d.name for d in DECLARED["end_to_end"]]
    for entry in line["metrics"].values():
        assert set(entry) == {"value", "unit"} and entry["value"] != 0


def test_self_time_and_unattributed_share_on_a_hand_built_tree() -> None:
    # answer [1, 11] > get [2, 5] > read [3, 4]; answer > get [6, 9];
    # then a second query: answer [12, 16].  The wall runs from 0 to 20.
    ticks = iter([1, 2, 3, 4, 5, 6, 9, 11, 12, 16])
    tracer = Tracer(sample_every=1, clock=lambda: next(ticks))
    tracer.enabled = True
    answer = tracer.begin("answer", root=True)
    get = tracer.begin("get")
    tracer.end(tracer.begin("read"))
    tracer.end(get)
    tracer.call("get", lambda: None)
    tracer.end(answer)
    tracer.end(tracer.begin("answer", root=True))

    totals = tracer.totals()
    assert (totals["answer"].calls, totals["answer"].busy) == (2, 14)
    assert totals["answer"].self_time == 14 - 6
    assert (totals["get"].calls, totals["get"].busy) == (2, 6)
    assert totals["get"].self_time == 5
    assert totals["read"].self_time == 1
    assert totals["answer"].longest == 10
    # Self times partition the covered time; the rest is unattributed.
    assert sum(t.self_time for t in totals.values()) == 14
    assert tracer.top_level_time() == 14
    assert tracer.unattributed_share(20.0) == pytest.approx(0.3)

    spans = tracer.spans()
    names = [s.name for s in spans]
    assert names == ["answer", "get", "read", "get", "answer"]
    first, get_span, read_span, second_get, last = spans
    assert first.parent == -1 and last.parent == -1
    assert get_span.parent == first.id and second_get.parent == first.id
    assert read_span.parent == get_span.id
    assert {s.query for s in spans[:4]} == {0} and last.query == 1


def test_nothing_is_recorded_while_the_tracer_is_off() -> None:
    tracer = Tracer()
    assert tracer.call("layer", lambda: 41 + 1) == 42
    tracer.count("layer.rows", 3)
    assert tracer.totals() == {} and tracer.counts() == {}


QPS = Declared("qps", "1/s", "higher", 0.10)
CSR = Declared("csr", "ratio", "higher", 0.05)


@pytest.mark.parametrize(
    "metric, base, new, expected",
    [
        (QPS, [100, 101, 99, 100, 102], [100, 100, 101, 99, 101], "unchanged"),
        (QPS, [100, 101, 99, 100, 102], [85, 86, 84, 85, 87], "regressed"),
        (QPS, [100, 101, 99, 100, 102], [108, 109, 107, 108, 110], "improved"),
        (QPS, [100, 140, 70, 100, 130], [96, 135, 72, 99, 120], "unresolved"),
        (CSR, [0.5] * 5, [0.5] * 5, "unchanged"),
        (CSR, [0.5] * 5, [0.4999] * 5, "regressed"),
    ],
)
def test_compare_verdicts(
    metric: Declared, base: list[float], new: list[float], expected: str
) -> None:
    assert verdict(metric, base, new) == expected
