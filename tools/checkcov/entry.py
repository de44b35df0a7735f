"""Product coverage: the lines of ``src/repro`` the repo's own runs reach.

Test coverage cannot tell whether code earns its place: a function that
only its own unit test calls scores 100 %.  This tool traces a fixed
list of *product* entry points instead, written once in :data:`ENTRIES`:

- ``repro list``, ``repro info`` and ``repro run --smoke``;
- every ``soak`` / ``front`` line of the nightly workflow at
  ``--smoke`` (the 2-tier, compaction and cold → warm restart pair
  included);
- the five benchmark workloads at smoke scale, untraced and traced,
  driven by ``benchmarks.e2e`` exactly as its harness self-test does;
- the five ``examples/`` scripts.

Usage (from the repo root, about 3 minutes on a 2-core host)::

    PYTHONPATH=src python -m tools.checkcov.entry

It prints coverage per module, then every function no entry enters,
largest first, and exits non-zero when product coverage falls below
:data:`FLOOR` or an entry fails.  The list is fixed on purpose: the
number moves only when ``src/`` changes.
"""

from __future__ import annotations

import ast
import contextlib
import os
import runpy
import sys
import tempfile
import traceback
from pathlib import Path
from typing import Callable, NamedTuple

from tools.checkcov import LineCollector, executable_lines, measure_tree

__all__ = ["ENTRIES", "FLOOR", "Function", "never_entered", "main"]

#: Product coverage (percent of ``src/repro``'s executable lines) below
#: which the tool fails: the value measured when the floor was set,
#: rounded down, so only new unreachable code (or a lost entry) trips it.
FLOOR = 85.6

ROOT = Path("src/repro")
EXAMPLES = (
    "quickstart",
    "sales_analysis_session",
    "updates_and_invalidation",
    "chunked_file_clustering",
    "cache_policy_comparison",
)


class Function(NamedTuple):
    """A function no entry point entered."""

    qualname: str
    line: int
    source_lines: int
    executable: int


def _cli(*argv: str) -> Callable[[Path], None]:
    def run(scratch: Path) -> None:
        from repro.__main__ import main as repro_main

        args = [a.replace("{dir}", str(scratch)) for a in argv]
        code = repro_main(args)
        if code != 0:
            raise RuntimeError(f"repro {' '.join(args)} exited {code}")

    return run


def _workload(name: str, traced: bool) -> Callable[[Path], None]:
    def run(scratch: Path) -> None:
        from benchmarks.e2e.worker import run_workload

        result = run_workload(name, 1998, 1.0, traced, smoke=True)
        if not result.correct or result.failed:
            raise RuntimeError(f"workload {name}: {result.problems}")

    return run


def _example(name: str) -> Callable[[Path], None]:
    def run(scratch: Path) -> None:
        runpy.run_path(f"examples/{name}.py", run_name="__main__")

    return run


_TIERED = ("--tiers", "2", "--cache-bytes", "1600000")

#: The product entry points, in run order.  ``{dir}`` in a command line
#: is one scratch directory all entries share (chunk logs, reports), so
#: the warm restart finds the log the cold run left.
ENTRIES: tuple[tuple[str, Callable[[Path], None]], ...] = (
    ("repro list", _cli("list")),
    ("repro info", _cli("info")),
    ("repro run --smoke", _cli("run", "--smoke")),
    ("soak", _cli("soak", "--smoke", "--report", "{dir}/soak.json")),
    ("soak --chaos mid", _cli(
        "soak", "--smoke", "--chaos", "--rate", "mid",
        "--report", "{dir}/chaos.json")),
    ("soak --chaos high", _cli(
        "soak", "--smoke", "--chaos", "--rate", "high",
        "--report", "{dir}/chaos-high.json")),
    ("soak --chaos 2-tier", _cli(
        "soak", "--smoke", "--chaos", "--rate", "mid", *_TIERED,
        "--persist", "{dir}/chunklog.bin",
        "--report", "{dir}/chaos-tiered.json")),
    ("soak --chaos 2-tier compaction", _cli(
        "soak", "--smoke", "--chaos", "--rate", "mid", *_TIERED,
        "--persist", "{dir}/chunklog-compact.bin", "--l2-budget", "1500000",
        "--compact-threshold", "0.3", "--report", "{dir}/chaos-compact.json")),
    *(
        (f"soak 2-tier {start}", _cli(
            "soak", "--smoke", *_TIERED, "--persist",
            "{dir}/chunklog-restart.bin", "--report", f"{{dir}}/{start}.json"))
        for start in ("cold", "warm")
    ),
    ("front", _cli("front", "--smoke", "--report", "{dir}/front.json")),
    ("front --chaos mid", _cli(
        "front", "--smoke", "--chaos", "--rate", "mid",
        "--report", "{dir}/front-chaos.json")),
    *(
        (f"e2e {name}{' traced' if traced else ''}", _workload(name, traced))
        for name in ("hot_fit", "miss_heavy", "tiered_hot", "serve_fair",
                     "front_dup")
        for traced in (False, True)
    ),
    *((f"examples/{name}.py", _example(name)) for name in EXAMPLES),
)


def _is_stub(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """A body of only a docstring and ``...`` / ``pass`` (protocols)."""
    return all(
        isinstance(stmt, ast.Pass)
        or (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))
        for stmt in node.body
    )


def never_entered(
    source: str, filename: str, hits: set[int]
) -> list[Function]:
    """The outermost functions of ``source`` whose body never ran.

    A function counts as entered when any executable line of its body
    (its ``def`` line excluded: that fires when the enclosing scope runs)
    is in ``hits``.  A function nested in a never-entered one is part of
    its parent's count, not listed again.  Stub bodies are skipped.
    """
    executable = executable_lines(source, filename)
    found: list[Function] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{child.name}"
                end = child.end_lineno or child.lineno
                body = {
                    line for line in executable
                    if child.body[0].lineno <= line <= end
                    and line != child.lineno
                }
                if body and not body & hits and not _is_stub(child):
                    start = min(
                        [child.lineno]
                        + [d.lineno for d in child.decorator_list]
                    )
                    found.append(
                        Function(name, child.lineno, end - start + 1,
                                 len(body))
                    )
                else:
                    visit(child, f"{name}.<locals>.")
            else:
                visit(child, prefix)

    visit(ast.parse(source, filename), "")
    return found


def _run_entries(collector: LineCollector) -> list[str]:
    """Run every entry under the collector; the names of those that failed."""
    failed = []
    with tempfile.TemporaryDirectory(prefix="entry-coverage-") as scratch:
        for name, entry in ENTRIES:
            print(f"  {name}", file=sys.stderr, flush=True)
            collector.install()
            try:
                with open(os.devnull, "w", encoding="utf-8") as sink:
                    with contextlib.redirect_stdout(sink):
                        entry(Path(scratch))
            except Exception:  # reported; the other entries still run
                failed.append(f"{name}:\n{traceback.format_exc()}")
            finally:
                collector.uninstall()
    return failed


def main() -> int:
    """Run the entries, print the report, return the exit status."""
    if not ROOT.is_dir():
        print("checkcov.entry: run from the repo root (src/repro not found)",
              file=sys.stderr)
        return 2
    # The default checking mode, whatever the caller's environment says:
    # the entry list fixes where deep checks run.
    os.environ.pop("REPRO_INVARIANTS", None)
    collector = LineCollector(ROOT)
    failed = _run_entries(collector)

    per_file = measure_tree(ROOT, collector.hits)
    covered = sum(hit for hit, _ in per_file.values())
    total = sum(lines for _, lines in per_file.values())
    percent = 100.0 * covered / total if total else 100.0
    root = str(ROOT.resolve()) + "/"

    width = max(len(name) for name in per_file) - len(root)
    for name, (hit, lines) in sorted(per_file.items()):
        pct = 100.0 * hit / lines if lines else 100.0
        print(f"{name[len(root):]:<{width}}  {hit:>5}/{lines:<5} {pct:6.1f}%")
    print(f"{'TOTAL':<{width}}  {covered:>5}/{total:<5} {percent:6.1f}%")

    unentered = [
        (function, name[len(root):])
        for name in per_file
        for function in never_entered(
            Path(name).read_text(encoding="utf-8"), name,
            collector.hits.get(name, set()),
        )
    ]
    unentered.sort(key=lambda item: (-item[0].executable, item[1],
                                     item[0].line))
    print(f"\nnever entered: {len(unentered)} functions, "
          f"{sum(f.source_lines for f, _ in unentered)} source lines / "
          f"{sum(f.executable for f, _ in unentered)} executable lines")
    for function, module in unentered:
        print(f"  {function.source_lines:>4} / {function.executable:<4} "
              f"{module}:{function.line} {function.qualname}")

    status = 0
    for problem in failed:
        print(f"checkcov.entry: entry failed: {problem}", file=sys.stderr)
        status = 1
    if percent < FLOOR:
        print(f"checkcov.entry: product coverage {percent:.1f}% is below "
              f"the floor {FLOOR:.1f}%", file=sys.stderr)
        status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
