"""Where one benchmark workload spends its time: ``cProfile`` over its
driver or over its set-up, or a timed replay of its backend calls.

``python -m tools.benchprofile --workload NAME
[--phase driver|setup|backend|memory] [--runs N]
[--sort tottime|cumulative] [--top N] [--seed S] [--smoke]``
(``make profile WORKLOAD=NAME [PHASE=setup|backend|memory]``).

``--phase driver`` (the default) sets the workload up exactly as
``benchmarks/e2e`` does (its ``setup`` and driver are imported, not
copied), runs the driver once untraced for the queries per second it
reaches here, then once more on a fresh set-up under ``cProfile``, and
prints the top-N table with that qps beside it.

``--phase setup`` profiles what the benchmark's ``setup_s`` times: it
calls the workload's ``setup`` ``--runs`` times untraced, then as many
times under ``cProfile``, and prints the table of the profiled calls
with both medians beside it (the benchmark reports the median of its
set-ups too).  Beside them it prints the untraced median of each of
set-up's three parts — fact generation, ``build_stack`` and stream
generation — timed by wrapping the functions ``setup`` calls for them
(:data:`SETUP_PARTS`) for the untraced runs only.

``--phase backend`` times the chunk computations alone: it records
every ``BackendEngine.compute_chunks`` call of one untraced drive (the
warm-up included), then replays them ``--runs`` times, each on a fresh
backend loaded from the same records (a cold buffer pool), and prints
the min / median replay seconds, the pages the replay read and a
SHA-256 over every computed chunk's bytes (:func:`backend_replay`).
Pages and digest are the same on every replay, or the run fails; they
pin what the backend computes, whatever its speed.

``--phase memory`` says where the process's memory goes: it drives
the workload once untraced and prints the resident set (``VmRSS``) and
its high-water mark (``ru_maxrss``) at each phase point — after set-up,
after the warm-up, after every timed round, and for ``tiered_hot``
after the close and after the reopen.  The points come from wrapping
the ``benchmarks.e2e.workloads`` functions a drive calls between phases
(:func:`marked_phases`).  A second drive runs under ``tracemalloc`` and
prints its traced peak and the top-N allocation sites at the phase
point that held the most traced memory.

``cProfile`` charges every Python call and no native code,
so the table shifts weight towards call-heavy Python: it finds
candidates, and ``tools.benchpairs`` measures them.

Beside the table it prints, for each of the two drives, the cyclic
garbage collector's collections and seconds per generation while the
driver ran (``gc.callbacks``): time no profiler row shows, paid in
pauses wherever a collection happens to trigger.

Run from the repo root.  Leaves nothing behind but the benchmark's own
git-ignored scratch directory.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import cProfile
import gc
import hashlib
import io
import os
import pstats
import resource
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from typing import Any, Callable, Iterator, NamedTuple

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Set-up's three parts: a label, and the ``benchmarks.e2e.workloads``
#: function its ``setup`` calls once for that part.
SETUP_PARTS = (
    ("fact generation", "generate_fact_table"),
    ("build_stack", "_build"),
    ("stream generation", "_population"),
)


def _on_path() -> None:
    """Make ``benchmarks.e2e`` and ``repro`` importable from the root."""
    for entry in (str(REPO_ROOT), str(REPO_ROOT / "src")):
        if entry not in sys.path:
            sys.path.insert(0, entry)


class GcClock:
    """Cyclic-GC collections and seconds per generation while installed
    (``with GcClock() as clock: ...``), read from ``gc.callbacks``."""

    def __init__(self) -> None:
        self.collections = [0, 0, 0]
        self.seconds = [0.0, 0.0, 0.0]
        self._started = 0.0

    def _observe(self, phase: str, info: dict[str, Any]) -> None:
        if phase == "start":
            self._started = time.perf_counter()
            return
        generation = info["generation"]
        self.collections[generation] += 1
        self.seconds[generation] += time.perf_counter() - self._started

    def __enter__(self) -> "GcClock":
        gc.callbacks.append(self._observe)
        return self

    def __exit__(self, *exc_info: object) -> None:
        gc.callbacks.remove(self._observe)

    def summary(self) -> str:
        """``gen0 N collections X s, gen1 ..., gen2 ...``."""
        return ", ".join(
            f"gen{generation} {count} collections {seconds:.3f} s"
            for generation, (count, seconds) in enumerate(
                zip(self.collections, self.seconds)
            )
        )


@contextlib.contextmanager
def setup_args(
    name: str, seed: int, smoke: bool
) -> Iterator[tuple[Any, tuple[Any, ...]]]:
    """``benchmarks.e2e.workloads`` and the arguments of its ``setup``
    for ``name`` as the benchmark passes them, with a scratch directory
    that is removed on exit."""
    _on_path()
    from benchmarks.e2e import workloads
    from benchmarks.e2e.metrics import load_declaration
    from benchmarks.e2e.worker import WORK_DIR
    from repro.experiments.configs import PAPER_SCALE, SMOKE_SCALE

    run_seconds = load_declaration()["run_seconds"]
    counts = workloads.counts_for(name, run_seconds, run_seconds, smoke)
    scale = SMOKE_SCALE if smoke else PAPER_SCALE
    WORK_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK_DIR)
    try:
        yield workloads, (name, scale, seed, counts, None, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def drive(
    name: str,
    seed: int,
    smoke: bool,
    profile: cProfile.Profile | None,
    gc_clock: GcClock,
) -> float:
    """Set ``name`` up, run its driver (under ``profile`` when given)
    with ``gc_clock`` installed, and return the best round's queries per
    second."""
    with setup_args(name, seed, smoke) as (workloads, args):
        env = workloads.setup(*args)
        try:
            driver = workloads.WORKLOADS[name]
            with gc_clock:
                if profile is None:
                    out = driver(env)
                else:
                    out = profile.runcall(driver, env)
            if out.problems:
                raise SystemExit(f"benchprofile: {name}: {out.problems[0]}")
            return float(out.best_qps())
        finally:
            env.close()


def setup_walls(
    name: str, seed: int, smoke: bool, runs: int,
    profile: cProfile.Profile | None,
) -> list[float]:
    """Seconds of each of ``runs`` calls of ``name``'s ``setup`` (each
    under ``profile`` when given); every environment is closed before
    the next is built."""
    walls = []
    with setup_args(name, seed, smoke) as (workloads, args):
        for _ in range(runs):
            started = time.perf_counter()
            if profile is None:
                env = workloads.setup(*args)
            else:
                env = profile.runcall(workloads.setup, *args)
            walls.append(time.perf_counter() - started)
            env.close()
    return walls


@contextlib.contextmanager
def timed_parts(workloads: Any) -> Iterator[dict[str, list[float]]]:
    """While open, every call ``workloads.setup`` makes to a part of
    :data:`SETUP_PARTS` appends its seconds to that part's list; the
    module's functions are restored on exit."""
    seconds: dict[str, list[float]] = {label: [] for label, _ in SETUP_PARTS}
    originals = {name: getattr(workloads, name) for _, name in SETUP_PARTS}

    def timed(label: str, function: Any) -> Any:
        def call(*args: Any, **kwargs: Any) -> Any:
            started = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                seconds[label].append(time.perf_counter() - started)
        return call

    for label, name in SETUP_PARTS:
        setattr(workloads, name, timed(label, originals[name]))
    try:
        yield seconds
    finally:
        for name, function in originals.items():
            setattr(workloads, name, function)


class Replay(NamedTuple):
    """What :func:`backend_replay` measured: the recorded calls, the
    seconds of each replay, and the pages and chunk digest every replay
    produced."""

    calls: int
    seconds: list[float]
    pages_read: int
    digest: str


def record_backend_calls(
    name: str, seed: int, smoke: bool
) -> tuple[Any, list[tuple[tuple[Any, ...], dict[str, Any]]]]:
    """Drive ``name`` once, untraced, and return its stack and the
    arguments of every ``compute_chunks`` call the drive made, in
    order."""
    with setup_args(name, seed, smoke) as (workloads, args):
        env = workloads.setup(*args)
        try:
            backend = env.stack.backend
            compute = backend.compute_chunks
            calls: list[tuple[tuple[Any, ...], dict[str, Any]]] = []

            def recording(*call_args: Any, **call_kwargs: Any) -> Any:
                calls.append(copy.deepcopy((call_args, call_kwargs)))
                return compute(*call_args, **call_kwargs)

            backend.compute_chunks = recording
            out = workloads.WORKLOADS[name](env)
            if out.problems:
                raise SystemExit(f"benchprofile: {name}: {out.problems[0]}")
            return env, calls
        finally:
            env.close()


def replay_once(
    env: Any, calls: list[tuple[tuple[Any, ...], dict[str, Any]]]
) -> tuple[float, int, str]:
    """Seconds spent in ``compute_chunks``, pages read and SHA-256 of
    every chunk (number, dtype and row bytes, in call and chunk order)
    when ``calls`` run on a fresh backend over ``env``'s records."""
    from repro.api import build_backend

    backend = build_backend(
        env.stack.schema,
        env.stack.space,
        env.records,
        page_size=env.config.page_size,
        buffer_pool_pages=env.config.buffer_pool_pages,
    )
    clock = time.perf_counter
    digest = hashlib.sha256()
    seconds = 0.0
    pages = 0
    for call_args, call_kwargs in calls:
        started = clock()
        chunks, report = backend.compute_chunks(*call_args, **call_kwargs)
        seconds += clock() - started
        pages += report.pages_read
        for number in sorted(chunks):
            rows = chunks[number]
            digest.update(f"{number}:{rows.dtype.descr}:".encode())
            digest.update(rows.tobytes())
    return seconds, pages, digest.hexdigest()


def backend_replay(name: str, seed: int, smoke: bool, runs: int) -> Replay:
    """Record ``name``'s backend calls once, then replay them ``runs``
    times (see the module docstring)."""
    env, calls = record_backend_calls(name, seed, smoke)
    seconds: list[float] = []
    outcomes = set()
    for _ in range(runs):
        wall, pages, digest = replay_once(env, calls)
        seconds.append(wall)
        outcomes.add((pages, digest))
    if len(outcomes) != 1:
        raise SystemExit(
            f"benchprofile: {name}: replays differ in pages or chunks: "
            f"{sorted(outcomes)}"
        )
    ((pages, digest),) = outcomes
    return Replay(len(calls), seconds, pages, digest)


@contextlib.contextmanager
def marked_phases(
    workloads: Any, mark: Callable[[str], None]
) -> Iterator[None]:
    """While open, a drive calls ``mark(label)`` at each phase point:
    ``warm-up`` when its first measured span starts, ``round N`` after
    each timed round, and ``close`` / ``reopen`` around ``tiered_hot``'s
    reopen of its cache.  The module's functions are restored on exit."""
    names = ("_answer_all", "_measure", "_open_cache")
    originals = {name: getattr(workloads, name) for name in names}
    state = {"rounds": 0, "answered": False, "warmed": False}

    def end_round() -> None:
        state["rounds"] += 1
        mark(f"round {state['rounds']}")

    def answer_all(*args: Any, **kwargs: Any) -> Any:
        result = originals["_answer_all"](*args, **kwargs)
        state["answered"] = True
        end_round()
        return result

    def measure(env: Any, enabled: bool) -> None:
        # A round of a served workload is a session, whose end is the
        # end of its measured span.
        if enabled and not state["warmed"]:
            state["warmed"] = True
            mark("warm-up")
        originals["_measure"](env, enabled)
        if enabled:
            state["answered"] = False
        elif not state["answered"]:
            end_round()

    def open_cache(*args: Any, **kwargs: Any) -> Any:
        mark("close")
        result = originals["_open_cache"](*args, **kwargs)
        mark("reopen")
        return result

    workloads._answer_all = answer_all
    workloads._measure = measure
    workloads._open_cache = open_cache
    try:
        yield
    finally:
        for name, function in originals.items():
            setattr(workloads, name, function)


def resident_mib() -> tuple[float, float]:
    """``(VmRSS, ru_maxrss)`` of this process in MiB."""
    with open("/proc/self/status") as status:
        vm_rss = next(
            line for line in status if line.startswith("VmRSS:")
        )
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB
    return int(vm_rss.split()[1]) / 1024.0, peak / 1024.0


def marked_drive(
    name: str, seed: int, smoke: bool, mark: Callable[[str], None]
) -> None:
    """Set ``name`` up and run its driver untraced, calling ``mark`` at
    every phase point (``set-up`` first, then :func:`marked_phases`)."""
    with setup_args(name, seed, smoke) as (workloads, args):
        env = workloads.setup(*args)
        try:
            mark("set-up")
            with marked_phases(workloads, mark):
                out = workloads.WORKLOADS[name](env)
            if out.problems:
                raise SystemExit(f"benchprofile: {name}: {out.problems[0]}")
        finally:
            env.close()


class HeapPeak(NamedTuple):
    """What :func:`heap_peak` found: the traced peak, the phase point
    that held the most traced memory, that memory, and the top sites
    there as ``(bytes, blocks, "file:line")``."""

    peak_bytes: int
    label: str
    label_bytes: int
    sites: list[tuple[int, int, str]]


def heap_peak(name: str, seed: int, smoke: bool, top: int) -> HeapPeak:
    """One marked drive under ``tracemalloc``: at a phase point holding
    more traced memory than any before it, the top-``top`` allocation
    sites by size.  Each snapshot's own memory is kept out of the peak
    (the peak is read first, then reset)."""
    peak, label, held = 0, "", -1
    sites: list[tuple[int, int, str]] = []
    ignore = (tracemalloc.Filter(False, tracemalloc.__file__),)

    def mark(at: str) -> None:
        nonlocal peak, label, held, sites
        current, traced_peak = tracemalloc.get_traced_memory()
        peak = max(peak, traced_peak)
        if current <= held:
            return
        label, held = at, current
        snapshot = tracemalloc.take_snapshot().filter_traces(ignore)
        sites = [
            (
                stat.size,
                stat.count,
                f"{os.path.relpath(frame.filename, REPO_ROOT)}:{frame.lineno}",
            )
            for stat in snapshot.statistics("lineno")[:top]
            for frame in (stat.traceback[0],)
        ]
        del snapshot
        tracemalloc.reset_peak()

    tracemalloc.start()
    try:
        marked_drive(name, seed, smoke, mark)
        peak = max(peak, tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    return HeapPeak(peak, label, held, sites)


def memory_report(name: str, seed: int, smoke: bool, top: int) -> str:
    """The ``--phase memory`` report (see the module docstring)."""
    points: list[tuple[str, float, float]] = []
    marked_drive(
        name, seed, smoke, lambda label: points.append((label, *resident_mib()))
    )
    heap = heap_peak(name, seed, smoke, top)
    mib = 1024.0 * 1024.0
    lines = [f"{'phase':<12} {'VmRSS MiB':>10} {'ru_maxrss MiB':>14}"]
    lines += [
        f"{label:<12} {rss:>10.1f} {peak:>14.1f}"
        for label, rss, peak in points
    ]
    lines.append(
        f"tracemalloc: top {len(heap.sites)} allocation sites at "
        f"{heap.label} ({heap.label_bytes / mib:.1f} MiB traced there)"
    )
    lines += [
        f"{size / mib:>9.2f} MiB {count:>9} blocks  {site}"
        for size, count, site in heap.sites
    ]
    lines.append(
        f"{name} seed {seed}: ru_maxrss {points[-1][2]:.1f} MiB untraced, "
        f"tracemalloc peak {heap.peak_bytes / mib:.1f} MiB"
    )
    return "\n".join(lines) + "\n"


def table(profile: cProfile.Profile, sort: str, top: int) -> str:
    """The ``pstats`` top-``top`` table of ``profile``, sorted by ``sort``."""
    text = io.StringIO()
    stats = pstats.Stats(profile, stream=text)
    stats.strip_dirs().sort_stats(sort).print_stats(top)
    return text.getvalue()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m tools.benchprofile")
    parser.add_argument("--workload", required=True)
    parser.add_argument(
        "--phase",
        choices=("driver", "setup", "backend", "memory"),
        default="driver",
    )
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument(
        "--sort", choices=("tottime", "cumulative"), default="tottime"
    )
    parser.add_argument("--top", type=int, default=25)
    parser.add_argument("--seed", type=int, default=1998)
    parser.add_argument("--smoke", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    options = parser.parse_args(argv)
    _on_path()
    from benchmarks.e2e import workloads

    if options.workload not in workloads.WORKLOADS:
        parser.error(
            f"unknown workload {options.workload!r} "
            f"(one of {', '.join(workloads.WORKLOADS)})"
        )
    if options.top < 1:
        parser.error("--top must be at least 1")
    if options.runs < 1:
        parser.error("--runs must be at least 1")
    name: str = options.workload
    profile = cProfile.Profile()
    affinity = os.sched_getaffinity(0)
    workloads.pin_to_one_core()  # as the benchmark's worker runs
    if options.phase == "memory":
        try:
            report = memory_report(
                name, options.seed, options.smoke, options.top
            )
        finally:
            os.sched_setaffinity(0, affinity)
        print(report, end="")
        return 0
    if options.phase == "backend":
        try:
            replay = backend_replay(
                name, options.seed, options.smoke, options.runs
            )
        finally:
            os.sched_setaffinity(0, affinity)
        print(
            f"{name} seed {options.seed}: {replay.calls} compute_chunks "
            f"calls replayed {options.runs} times: min "
            f"{min(replay.seconds):.3f} s, median "
            f"{statistics.median(replay.seconds):.3f} s, "
            f"{replay.pages_read} pages read, sha256 {replay.digest}"
        )
        return 0
    if options.phase == "setup":
        try:
            with timed_parts(workloads) as parts:
                untraced = setup_walls(
                    name, options.seed, options.smoke, options.runs, None
                )
            profiled = setup_walls(
                name, options.seed, options.smoke, options.runs, profile
            )
        finally:
            os.sched_setaffinity(0, affinity)
        print(table(profile, options.sort, options.top), end="")
        print(
            "setup split, untraced medians: "
            + ", ".join(
                f"{label} {statistics.median(seconds):.3f} s"
                for label, seconds in parts.items()
            )
        )
        print(
            f"{name} seed {options.seed}: setup median "
            f"{statistics.median(untraced):.3f} s untraced, "
            f"{statistics.median(profiled):.3f} s under cProfile "
            f"({options.runs} runs each)"
        )
        return 0
    gc_untraced, gc_profiled = GcClock(), GcClock()
    try:
        untraced_qps = drive(
            name, options.seed, options.smoke, None, gc_untraced
        )
        profiled_qps = drive(
            name, options.seed, options.smoke, profile, gc_profiled
        )
    finally:
        os.sched_setaffinity(0, affinity)
    print(table(profile, options.sort, options.top), end="")
    print(f"gc untraced: {gc_untraced.summary()}")
    print(f"gc under cProfile: {gc_profiled.summary()}")
    print(
        f"{name} seed {options.seed}: {untraced_qps:.1f} qps untraced, "
        f"{profiled_qps:.1f} qps under cProfile"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
