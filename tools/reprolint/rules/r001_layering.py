"""R001 — the import-layering DAG and backend-call discipline.

The repro codebase is layered::

    schema / query / analysis / exceptions      (leaves)
        ^
    storage  ->  chunks                          (physical + geometry)
        ^
    backend                                      (evaluation engine)
        ^
    pipeline  ->  core                           (staged answering, caches)
        ^
    serve                                        (concurrent serving)
        ^
    experiments                                  (harness, figures)

Five machine-checkable facets:

1. ``repro.chunks`` and ``repro.storage`` must not import ``repro.core``
   or ``repro.pipeline`` — geometry and the storage engine sit *below*
   the caching layers and must stay reusable without them.
2. Backend answer/estimate entry points (``answer``, ``compute_chunks``,
   ``estimate_chunk_work``, ``estimate_chunk_work_batch``,
   ``estimate_bitmap_pages``) may only be *called* from the pipeline's
   sanctioned modules: ``repro.pipeline.resolvers`` (the resolver chain)
   and ``repro.pipeline.work`` (the memoized estimator facade).  Every
   other physical probe bypasses tracing and accounting.  Ground-truth
   oracle uses in the experiment harness carry explicit
   ``# reprolint: ignore[R001]`` waivers.
3. ``repro.experiments`` may not reach into ``repro.storage`` submodules
   — it must import through the ``repro.storage`` facade, so storage
   internals can be reorganized without breaking experiment code.
4. ``repro.serve`` may import only the layers it composes — the core,
   pipeline and workload layers plus the leaves — never the backend,
   storage, chunks or experiments packages.  The serving layer adds
   concurrency *around* the pipeline; if it needs physical work it must
   go through a resolver, so the backend-call discipline (facet 2)
   survives threading.
5. Nothing below the experiments layer may import ``repro.serve`` —
   core, pipeline, backend, chunks and storage must all stay usable in
   single-threaded form without the serving machinery.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.reprolint.engine import FileContext, Violation

CODE = "R001"
SUMMARY = (
    "import-layering DAG: chunks/storage below core/pipeline; backend "
    "entry points called only from pipeline resolvers/work; experiments "
    "import storage via its facade"
)

#: Packages that must stay below the caching layers.
_LOWER_LAYERS = ("repro.chunks", "repro.storage")
_UPPER_LAYERS = ("repro.core", "repro.pipeline")

#: The backend's answer/estimate entry points (physical work).
BACKEND_ENTRY_POINTS = frozenset(
    {
        "answer",
        "compute_chunks",
        "estimate_chunk_work",
        "estimate_chunk_work_batch",
        "estimate_bitmap_pages",
    }
)

#: Modules allowed to drive the backend's entry points.
BACKEND_CALLERS = ("repro.pipeline.resolvers", "repro.pipeline.work")

#: Receiver names that denote "the backend engine" at a call site.
_BACKEND_RECEIVERS = frozenset({"backend", "engine", "_backend", "_engine"})

#: Package prefixes the serving layer may import (facet 4); the bare
#: ``repro`` facade (``from repro import invariants``) is also allowed.
SERVE_ALLOWED_IMPORTS = (
    "repro.serve",
    "repro.core",
    "repro.pipeline",
    "repro.workload",
    "repro.query",
    "repro.schema",
    "repro.analysis",
    "repro.exceptions",
    "repro.invariants",
    "repro.lockorder",
)

#: Layers that must not know about the serving layer (facet 5).
_BELOW_SERVE = (
    "repro.core",
    "repro.pipeline",
    "repro.backend",
    "repro.chunks",
    "repro.storage",
    "repro.workload",
    "repro.query",
    "repro.schema",
    "repro.analysis",
)


def _in_modules(module: str, prefixes: tuple[str, ...]) -> bool:
    return any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in prefixes
    )


def _imported_modules(tree: ast.Module) -> Iterator[tuple[str, int, int]]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, node.lineno, node.col_offset
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            yield node.module, node.lineno, node.col_offset


def _is_backend_receiver(node: ast.expr) -> bool:
    """Whether a call receiver looks like the backend engine.

    Matches ``backend``, ``engine``, ``self.backend``, ``manager.backend``,
    ``self._backend`` — i.e. the terminal identifier names an engine.
    """
    if isinstance(node, ast.Name):
        return node.id in _BACKEND_RECEIVERS
    if isinstance(node, ast.Attribute):
        return node.attr in _BACKEND_RECEIVERS
    return False


def check(ctx: FileContext) -> Iterator[Violation]:
    if ctx.module is None or not ctx.in_package("repro"):
        return

    # Facet 1: chunks/storage must not import core/pipeline.
    if ctx.in_package(*_LOWER_LAYERS):
        for module, line, col in _imported_modules(ctx.tree):
            if any(
                module == upper or module.startswith(upper + ".")
                for upper in _UPPER_LAYERS
            ):
                yield Violation(
                    ctx.path, line, col, CODE,
                    f"layer violation: {ctx.module} (geometry/storage "
                    f"layer) imports {module}; chunks/ and storage/ must "
                    "not depend on core/ or pipeline/",
                )

    # Facet 2: backend entry points called only from pipeline resolvers/work.
    if ctx.module not in BACKEND_CALLERS and not ctx.in_package("repro.backend"):
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in BACKEND_ENTRY_POINTS
                and _is_backend_receiver(func.value)
            ):
                yield Violation(
                    ctx.path, node.lineno, node.col_offset, CODE,
                    f"backend entry point .{func.attr}() called outside "
                    "the pipeline layer; route physical work through "
                    "pipeline/resolvers.py or pipeline/work.py (waiver: "
                    "'# reprolint: ignore[R001] <reason>' for oracles)",
                )

    # Facet 3: experiments import storage only through the facade.
    if ctx.in_package("repro.experiments"):
        for module, line, col in _imported_modules(ctx.tree):
            if module.startswith("repro.storage."):
                yield Violation(
                    ctx.path, line, col, CODE,
                    f"experiments reach into storage internals "
                    f"({module}); import through the repro.storage "
                    "facade instead",
                )

    # Facet 4: serve composes core/pipeline/workload + leaves, nothing else.
    if ctx.in_package("repro.serve"):
        for module, line, col in _imported_modules(ctx.tree):
            if not module.startswith("repro"):
                continue
            if module == "repro" or _in_modules(
                module, SERVE_ALLOWED_IMPORTS
            ):
                continue
            yield Violation(
                ctx.path, line, col, CODE,
                f"layer violation: {ctx.module} (serving layer) imports "
                f"{module}; serve/ may only compose the core, pipeline "
                "and workload layers — backend access stays behind the "
                "pipeline's resolvers",
            )

    # Facet 5: layers below experiments must not import serve.
    if ctx.in_package(*_BELOW_SERVE):
        for module, line, col in _imported_modules(ctx.tree):
            if _in_modules(module, ("repro.serve",)):
                yield Violation(
                    ctx.path, line, col, CODE,
                    f"layer violation: {ctx.module} imports {module}; "
                    "only the experiments layer (and callers above it) "
                    "may depend on the serving machinery",
                )
