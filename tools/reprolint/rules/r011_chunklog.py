"""R011 — the persistent tier is wired through the ``repro.api`` facade.

The L2 backend (:class:`ChunkLog`) owns a file on disk, and a
:class:`TieredChunkCache` owns a backend.  Constructing either outside
a composition root invites two quiet failure modes:

- two logs opened on the same path corrupt each other's state — the
  log is single-writer by design and has no cross-process locking;
- a hand-rolled tier skips the facade's validation (``cache_tiers``,
  ``persist_path`` coupling, the tier option ranges, the warm-start
  ``reopen()`` call), so the stack silently diverges from what
  :class:`repro.api.StackConfig` describes and what the API-manifest
  test pins.

Concretely: inside ``src/repro``, calls to ``ChunkLog(...)`` and
``TieredChunkCache(...)`` are allowed only in ``repro.api`` and in the
modules that define them.  Tests and tools are exempt — they exercise
the storage layer directly by design.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.reprolint.engine import FileContext, Violation

CODE = "R011"
SUMMARY = (
    "the persistent tier is wired through the repro.api facade: only "
    "the facade and the defining modules may call ChunkLog/"
    "TieredChunkCache"
)

#: Modules allowed to call the tier constructors: the facade plus the
#: modules that define them.
COMPOSITION_ROOTS = (
    "repro.api",
    "repro.storage.chunklog",
    "repro.core.tiered",
)

#: Constructor names whose direct call marks a hand-rolled tier.
_TIER_TYPES = frozenset({"ChunkLog", "TieredChunkCache"})


def check(ctx: FileContext) -> Iterator[Violation]:
    if ctx.module is None or not ctx.in_package("repro"):
        return
    if ctx.in_package(*COMPOSITION_ROOTS):
        return

    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else None
        )
        if name in _TIER_TYPES:
            yield Violation(
                ctx.path, node.lineno, node.col_offset, CODE,
                f"{ctx.module} constructs {name} directly; wire the "
                "persistent tier through repro.api (cache_tiers=2 + "
                "persist_path) so single-writer ownership and warm-start "
                "live in one place",
            )
