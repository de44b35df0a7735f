"""Runtime lock-order witness for the static/dynamic cross-check.

``tools/reprolint`` derives a **static** lock-order graph over the
serving stack (rule R009) and pins it as a golden artifact
(``tests/tools/lockorder.txt``).  This module is the dynamic half of
that contract: instrumented acquisition sites wrap their critical
sections in :func:`witness`, and while a :func:`capture` block is
active every nested pair of levels held by one thread is recorded as an
``(outer, inner)`` edge.  The tier-1 soak asserts the recorded edges
are a **subset** of the static graph — an acquisition order the
analyzer did not predict fails the build before it can deadlock.

Design constraints:

- **Leaf module.**  Imports nothing from the package, so every layer
  (backend, serve) may use it without bending the R001 layering DAG.
- **Near-zero cost when idle.**  Outside a ``capture()`` block,
  :func:`witness` checks one module global and returns one shared
  no-op context; nothing is allocated and no per-thread state is
  touched.  Production paths pay one branch.
- **No locks of its own.**  Edge recording appends to a plain list
  (atomic under the GIL) and deduplicates at read time, so the witness
  cannot introduce ordering edges of its own into the graph it checks.

Only one ``capture()`` may be active at a time (module-global slot);
the soak harness is the only intended user.
"""

from __future__ import annotations

import threading
from contextlib import AbstractContextManager, contextmanager, nullcontext
from typing import Iterator

__all__ = ["WitnessLog", "capture", "witness"]


class WitnessLog:
    """Accumulates the (outer, inner) level pairs observed at runtime."""

    def __init__(self) -> None:
        self._pairs: list[tuple[str, str]] = []

    def record(self, outer: str, inner: str) -> None:
        # list.append is atomic under the GIL; duplicates are collapsed
        # by edges().
        self._pairs.append((outer, inner))

    def edges(self) -> frozenset[tuple[str, str]]:
        return frozenset(self._pairs)

    def edge_lines(self) -> tuple[str, ...]:
        """Sorted ``"outer -> inner"`` lines, matching the golden-file
        format of the static graph."""
        return tuple(f"{a} -> {b}" for a, b in sorted(self.edges()))


_tls = threading.local()
_active: WitnessLog | None = None


@contextmanager
def capture() -> Iterator[WitnessLog]:
    """Record lock-order witnesses for the dynamic extent of the block."""
    global _active
    log = WitnessLog()
    _active = log
    try:
        yield log
    finally:
        _active = None


class _Held:
    """One witnessed critical section of an active capture."""

    __slots__ = ("_log", "_level", "_stack")

    def __init__(self, log: WitnessLog, level: str) -> None:
        self._log = log
        self._level = level

    def __enter__(self) -> None:
        stack: list[str] | None = getattr(_tls, "stack", None)
        if stack is None:
            stack = []
            _tls.stack = stack
        for outer in stack:
            self._log.record(outer, self._level)
        stack.append(self._level)
        self._stack = stack

    def __exit__(self, *exc_info: object) -> None:
        self._stack.pop()


_IDLE: AbstractContextManager[None] = nullcontext()


def witness(level: str) -> AbstractContextManager[None]:
    """Note that the calling thread holds lock level ``level``.

    Wrap the critical section *after* the lock is acquired.  While a
    :func:`capture` is active, holding level ``A`` and entering
    ``witness("B")`` records the edge ``A -> B`` (including ``A == B``
    for re-entrant or multi-instance acquisitions).
    """
    log = _active
    if log is None:
        return _IDLE
    return _Held(log, level)
