"""Phase 2 scaffolding: project symbol table and call graph.

Consumes the per-file :class:`~tools.reprolint.facts.FileFacts` of every
linted file and builds the two structures the whole-program rules share:

- :class:`SymbolTable` — every class and function in the project,
  indexed so a raw callee text from phase 1 (``"self._publish_delta"``,
  ``"shard.held"``, ``"run_digest"``) can be resolved to the candidate
  definitions it may denote;
- :class:`CallGraph` — resolved caller → callee edges, the substrate
  for taint propagation (R010).

Resolution is deliberately *name-based and optimistic about precision*:

- ``self.m`` resolves to the enclosing class's ``m`` when it defines
  one, else to every project class defining ``m`` (inheritance);
- ``obj.m`` / ``a.b.m`` resolve to every project class defining ``m``;
- a bare ``f`` resolves to the same file's module-level ``f`` when it
  exists, else to every module-level ``f`` in the project.

Unresolvable callees (stdlib, numpy, builtins) resolve to nothing —
phase-2 rules treat them as taint-free, and compensate
with explicit source/sink checks.  The trade-offs are documented in
``docs/STATIC_ANALYSIS.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from tools.reprolint.facts import ClassFacts, FileFacts, FunctionFacts

__all__ = [
    "FuncRef",
    "SymbolTable",
    "CallGraph",
    "AMBIGUOUS_METHOD_NAMES",
    "HOOK_BINDINGS",
]

#: Method names shared with stdlib containers/locks/futures.  A
#: non-``self`` call to one of these (``self._memo.get(k)``) is far more
#: likely a ``dict``/``list``/``Lock`` operation than a project method,
#: and resolving it to every project class defining the name fabricates
#: call edges (and through them taint) out of thin air.
#: ``self.m`` calls still resolve — the enclosing class is known.
AMBIGUOUS_METHOD_NAMES = frozenset(
    {
        "get", "put", "pop", "add", "append", "extend", "insert", "remove",
        "discard", "clear", "copy", "update", "setdefault", "items", "keys",
        "values", "index", "count", "sort", "reverse", "join", "split",
        "strip", "startswith", "endswith", "format", "encode", "decode",
        "read", "write", "readline", "flush", "seek", "tell",
        "acquire", "release", "locked", "wait", "wait_for", "notify",
        "notify_all", "set", "is_set", "submit", "map", "shutdown",
        "result", "done", "cancel", "exception", "cancelled",
        "qsize", "empty", "full", "get_nowait", "put_nowait",
        "send", "recv", "poll", "close", "terminate", "kill", "is_alive",
        "getvalue", "total_seconds", "timestamp",
        # Shared with *every* class: a dotted ``super().__init__(...)``
        # chain would otherwise resolve to each project constructor,
        # fabricating call edges into all of them.  Direct
        # instantiation (``ChunkLog(...)``) is unaffected — bare names
        # route through the class table, not this fallback.
        "__init__",
    }
)

#: Exact callee texts bound to known methods, checked *before* any
#: name-based resolution.  Two indirections need this:
#:
#: - ``self.evict_hook(...)`` is a stored callable, so name resolution
#:   sees nothing — but the only installer is the tiered cache, whose
#:   spill path it runs;
#: - ``self.log.<m>`` in the tiered cache denotes its owned
#:   :class:`ChunkLog`, but several of the method names (``put``,
#:   ``get``, ``clear``, ``close``) are in :data:`AMBIGUOUS_METHOD_NAMES`
#:   (resolve to nothing) or collide with the sharded store's methods
#:   (resolve to a *false* edge back into the store);
#: - ``self.fault_hook(...)`` (``BackendEngine``, ``ChunkCache``) is a
#:   stored callable too, and the chunk stores' ``fault_hook``
#:   properties share its name.  A call never runs a property setter,
#:   so it binds to nothing: what is installed there is the fault
#:   injector's.
#:
#: Every target must name exactly one method defined in ``src/``
#: (``tests/tools/test_callgraph.py`` checks it), so a binding cannot
#: outlive the method it binds.
HOOK_BINDINGS: Mapping[str, tuple[tuple[str, str], ...]] = {
    "self.evict_hook": (("TieredChunkCache", "_on_evict"),),
    "self.fault_hook": (),
    **{
        f"self.log.{method}": (("ChunkLog", method),)
        for method in (
            "put", "get", "peek", "delete", "drop", "clear",
            "scan_keys", "counters", "check_conservation", "compact",
            "close", "reopen",
        )
    },
}


@dataclass(frozen=True, order=True)
class FuncRef:
    """Stable identity of one function: its file and qualified name."""

    path: str
    qualname: str


class SymbolTable:
    """Name indexes over every class and function in the linted set."""

    def __init__(self, files: Sequence[FileFacts]) -> None:
        self.files: tuple[FileFacts, ...] = tuple(files)
        self.functions: dict[FuncRef, FunctionFacts] = {}
        self.file_of: dict[FuncRef, FileFacts] = {}
        self.classes: dict[str, list[tuple[str, ClassFacts]]] = {}
        self._by_method: dict[str, list[FuncRef]] = {}
        self._by_class_method: dict[tuple[str, str], list[FuncRef]] = {}
        self._module_funcs: dict[str, list[FuncRef]] = {}
        for facts in self.files:
            for cls in facts.classes:
                self.classes.setdefault(cls.name, []).append((facts.path, cls))
            for func in facts.functions:
                ref = FuncRef(path=facts.path, qualname=func.qualname)
                self.functions[ref] = func
                self.file_of[ref] = facts
                if func.cls is not None:
                    self._by_method.setdefault(func.name, []).append(ref)
                    self._by_class_method.setdefault(
                        (func.cls, func.name), []
                    ).append(ref)
                else:
                    self._module_funcs.setdefault(func.name, []).append(ref)

    def iter_functions(self) -> Iterator[tuple[FuncRef, FunctionFacts]]:
        yield from self.functions.items()

    def resolve_call(
        self, callee: str, caller: FunctionFacts, caller_path: str
    ) -> tuple[FuncRef, ...]:
        """Candidate definitions a raw callee text may denote."""
        bound = HOOK_BINDINGS.get(callee)
        if bound is not None:
            refs: list[FuncRef] = []
            for pair in bound:
                refs.extend(self._by_class_method.get(pair, ()))
            return tuple(refs)
        terminal = callee.rsplit(".", 1)[-1]
        if not terminal.isidentifier():
            return ()
        if "." not in callee:
            # Bare name: same-file module function wins, else any.
            refs = self._module_funcs.get(terminal, [])
            local = [r for r in refs if r.path == caller_path]
            if local:
                return tuple(local)
            if refs:
                return tuple(refs)
            # Class instantiation: route to __init__ when defined, and
            # to __enter__ — a context-manager object is built to be
            # entered (``with shard.held()`` runs both), so what its
            # __enter__ returns belongs to whoever builds it.
            if terminal in self.classes:
                return tuple(
                    ref
                    for method in ("__init__", "__enter__")
                    for ref in self._by_class_method.get((terminal, method), ())
                )
            return ()
        if callee == f"self.{terminal}" and caller.cls is not None:
            own = self._by_class_method.get((caller.cls, terminal), [])
            local = [r for r in own if r.path == caller_path]
            if local:
                return tuple(local)
            if own:
                return tuple(own)
        if terminal in AMBIGUOUS_METHOD_NAMES:
            return ()
        return tuple(self._by_method.get(terminal, ()))


class CallGraph:
    """Resolved caller → callee edges over the symbol table."""

    def __init__(self, symbols: SymbolTable) -> None:
        self.symbols = symbols
        self.edges: dict[FuncRef, tuple[FuncRef, ...]] = {}
        for ref, func in symbols.iter_functions():
            seen: list[FuncRef] = []
            for call in func.calls:
                for target in symbols.resolve_call(call.callee, func, ref.path):
                    if target != ref and target not in seen:
                        seen.append(target)
            self.edges[ref] = tuple(seen)

    def callees(self, ref: FuncRef) -> tuple[FuncRef, ...]:
        return self.edges.get(ref, ())

    def transitive_closure(
        self, seeds: Iterable[FuncRef]
    ) -> frozenset[FuncRef]:
        """All functions reachable from ``seeds`` (seeds included)."""
        reached: set[FuncRef] = set()
        stack = list(seeds)
        while stack:
            ref = stack.pop()
            if ref in reached:
                continue
            reached.add(ref)
            stack.extend(self.callees(ref))
        return frozenset(reached)
