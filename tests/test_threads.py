"""The contract: a stack is not thread-safe; use one stack per thread or
process.

No library module starts a thread, a process or an event loop.  The
only ``threading`` imports left are the two counted critical sections
the end-to-end benchmark reads (the backend engine's and the cache
shards' lock counters).
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Top-level modules no library module may import.
FORBIDDEN = frozenset({"_thread", "asyncio", "concurrent", "multiprocessing"})

#: The modules that keep a counted lock, and so import ``threading``.
COUNTED_LOCKS = {"backend/engine.py", "serve/sharded.py"}


def _imported_tops(path):
    """Top-level names of every absolute import in one module."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield (node.module or "").split(".")[0]


def test_no_module_starts_a_thread_a_process_or_an_event_loop():
    offenders = {}
    threading_users = set()
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        tops = set(_imported_tops(path))
        if tops & FORBIDDEN:
            offenders[module] = sorted(tops & FORBIDDEN)
        if "threading" in tops:
            threading_users.add(module)
    assert offenders == {}
    assert threading_users == COUNTED_LOCKS
