"""tools.benchprofile end to end, at the benchmark's smoke scale."""

import gc
import os

import pytest

from tools import benchprofile


def test_prints_the_table_and_the_untraced_qps(capsys):
    affinity = os.sched_getaffinity(0)
    code = benchprofile.main(
        ["--workload", "miss_heavy", "--smoke", "--sort", "cumulative",
         "--top", "40"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert os.sched_getaffinity(0) == affinity
    assert "Ordered by: cumulative time" in out
    assert "(request_pages)" in out and "(_drive_miss_heavy)" in out
    lines = out.splitlines()
    assert lines[-1].startswith("miss_heavy seed 1998: ")
    assert "qps untraced" in lines[-1]
    # The collector's cost during each drive, per generation.
    for line, label in zip(lines[-3:-1], ("untraced", "under cProfile")):
        assert line.startswith(f"gc {label}: gen0 ")
        assert ", gen1 " in line and ", gen2 " in line
        assert line.endswith(" s")


def workloads_counts(name):
    from benchmarks.e2e import workloads

    return workloads.SMOKE_COUNTS[name]


def test_memory_phase_prints_each_phase_point_and_the_heap_sites(capsys):
    affinity = os.sched_getaffinity(0)
    code = benchprofile.main(
        ["--workload", "tiered_hot", "--smoke", "--phase", "memory",
         "--top", "5"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert os.sched_getaffinity(0) == affinity
    lines = out.splitlines()
    assert lines[0].split() == ["phase", "VmRSS", "MiB", "ru_maxrss", "MiB"]
    heading = next(
        index for index, line in enumerate(lines)
        if line.startswith("tracemalloc: top 5 allocation sites at ")
    )
    labels = [line.rsplit(None, 2)[0] for line in lines[1:heading]]
    counts = workloads_counts("tiered_hot")
    rounds = counts["rounds_a"] + counts["rounds_b"]
    assert labels == (
        ["set-up", "warm-up"]
        + [f"round {n}" for n in range(1, counts["rounds_a"] + 1)]
        + ["close", "reopen"]
        + [f"round {n}" for n in range(counts["rounds_a"] + 1, rounds + 1)]
    )
    for line in lines[1:heading]:
        rss, peak = map(float, line.split()[-2:])
        assert 0 < rss and 0 < peak
    sites = lines[heading + 1:-1]
    assert len(sites) == 5
    assert all(" MiB " in site and " blocks  " in site for site in sites)
    assert lines[-1].startswith("tiered_hot seed 1998: ru_maxrss ")
    assert "MiB untraced, tracemalloc peak " in lines[-1]


@pytest.mark.parametrize("name", ["hot_fit", "serve_fair"])
def test_marked_phases_finds_every_round(name):
    labels = []
    benchprofile.marked_drive(name, 1998, True, labels.append)
    rounds = workloads_counts(name)["rounds"]
    assert labels == ["set-up", "warm-up"] + [
        f"round {n}" for n in range(1, rounds + 1)
    ]


def test_gc_clock_counts_collections_per_generation():
    installed = list(gc.callbacks)
    clock = benchprofile.GcClock()
    with clock:
        gc.collect(0)
        gc.collect(2)
    assert clock.collections[0] >= 1 and clock.collections[2] >= 1
    assert all(seconds >= 0.0 for seconds in clock.seconds)
    assert gc.callbacks == installed


def test_setup_phase_profiles_the_setups_beside_their_median(capsys):
    affinity = os.sched_getaffinity(0)
    code = benchprofile.main(
        ["--workload", "miss_heavy", "--smoke", "--phase", "setup",
         "--runs", "2", "--sort", "cumulative", "--top", "30"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert os.sched_getaffinity(0) == affinity
    assert "Ordered by: cumulative time" in out
    assert "(setup)" in out and "(load)" in out
    assert "(_drive_miss_heavy)" not in out
    split, last = out.splitlines()[-2:]
    assert last.startswith("miss_heavy seed 1998: setup median ")
    assert last.endswith(" s under cProfile (2 runs each)")
    # Set-up's three parts, each a median of the untraced runs.
    assert split.startswith("setup split, untraced medians: ")
    parts = split.split(": ", 1)[1].split(", ")
    assert [part.rsplit(" ", 2)[0] for part in parts] == [
        "fact generation", "build_stack", "stream generation"
    ]
    assert all(part.endswith(" s") for part in parts)


def test_timed_parts_times_each_part_and_restores_the_module():
    from benchmarks.e2e import workloads

    originals = [getattr(workloads, name) for _, name in benchprofile.SETUP_PARTS]
    with benchprofile.timed_parts(workloads) as parts:
        workloads.generate_fact_table(workloads.build_paper_schema(), 10, seed=1)
    assert [getattr(workloads, name) for _, name in benchprofile.SETUP_PARTS] == originals
    assert len(parts["fact generation"]) == 1
    assert parts["build_stack"] == [] and parts["stream generation"] == []


#: ``--phase backend --smoke`` at seed 1998, recorded before the chunk
#: computation moved to column reads and the bincount kernel: recorded
#: ``compute_chunks`` calls, pages the replay reads and the SHA-256 over
#: every chunk it computes.  A bit that moves in any computed chunk, or a
#: page charged differently, fails here.
BACKEND_REPLAY_GOLDEN = {
    "miss_heavy": (
        104, 6008,
        "3f72969443ced93796c578428a7f073c2c1d54d60945756ca580bbd14a18d65d",
    ),
    "serve_fair": (
        341, 9894,
        "a3634371c3278e674122a5ef62e6374a382dc5c0f4111c8533d671a5652a259f",
    ),
}


@pytest.mark.parametrize("name", sorted(BACKEND_REPLAY_GOLDEN))
def test_backend_phase_replays_the_golden_chunks(capsys, name):
    affinity = os.sched_getaffinity(0)
    code = benchprofile.main(
        ["--workload", name, "--smoke", "--phase", "backend", "--runs", "2"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert os.sched_getaffinity(0) == affinity
    calls, pages, digest = BACKEND_REPLAY_GOLDEN[name]
    line = out.splitlines()[-1]
    assert line.startswith(
        f"{name} seed 1998: {calls} compute_chunks calls replayed 2 times: "
        "min "
    )
    assert line.endswith(f" s, {pages} pages read, sha256 {digest}")
    assert ", median " in line


def test_replays_that_disagree_fail_the_run(monkeypatch):
    outcomes = iter([(0.1, 10, "a"), (0.1, 11, "a")])
    monkeypatch.setattr(
        benchprofile, "record_backend_calls", lambda *args: (None, [])
    )
    monkeypatch.setattr(
        benchprofile, "replay_once", lambda env, calls: next(outcomes)
    )
    with pytest.raises(SystemExit, match="replays differ"):
        benchprofile.backend_replay("miss_heavy", 1998, True, 2)
