"""R009 — whole-program lock discipline for the serving stack.

Three checks, all over the statically derived **lock-order graph**:

1. **Cycles.**  Every lock object in ``src/repro`` is assigned a
   *level* (``shard``, ``accounting``, ``engine``, …).  An edge
   ``A -> B`` means some code path acquires a ``B``-level lock while
   holding an ``A``-level lock — directly (nested ``with`` /
   ``.acquire()``) or transitively (a call made under ``A`` reaches a
   function that acquires ``B``).  Any cycle in the level graph is a
   potential deadlock and fails the build.  Self-loops are allowed only
   where re-acquisition is safe by construction: re-entrant locks
   (``RLock``) and the ``shard`` level, whose multi-lock path
   (``ShardedChunkCache.check_conservation``) documents ascending
   shard-index order.

2. **Documented order.**  ``docs/SERVING.md`` and the ``sharded``
   module docstring fix shard → accounting (the accounting lock nests
   *inside* a shard lock) and estimator → engine.  Any derived edge
   contradicting a documented pair fails even without a full cycle.

3. **Guarded shared state.**  A serve-layer class that owns a lock
   (directly or via a base class) is presumed shared between threads;
   writing one of its attributes outside any lock-held region is a data
   race unless the attribute is *coordinator-only* state — mutated only
   by the single coordinator thread between parallel sections.  Such
   attributes are declared in the typed :data:`COORDINATOR_STATE`
   registry below (each entry carries its reasoning), or waived inline
   with a reasoned ``# reprolint: ignore[R009]``.  A registry entry
   that no longer waives anything — its class is in the analysed tree
   but the attribute is gone, or every remaining write holds the lock —
   is a **stale waiver** and fails too, so the registry cannot outlive
   the code it argues about.

The derived graph is pinned as a golden artifact
(``tests/tools/lockorder.txt``) and cross-checked at runtime: the soak
harness records a lock-order witness (``repro.lockorder``) which the
tier-1 soak asserts is a subset of the static edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from tools.reprolint.callgraph import FuncRef, SymbolTable
from tools.reprolint.engine import Violation
from tools.reprolint.facts import FunctionFacts
from tools.reprolint.project import Project

CODE = "R009"
SUMMARY = (
    "lock discipline: acyclic lock-order graph, documented shard→accounting "
    "order, serve-layer shared state written under its lock"
)

#: Known lock objects mapped to named levels.  Locks created by classes
#: not listed here get an auto level ``"<Class>.<attr>"`` — they still
#: participate in cycle detection and show up in the golden graph, so a
#: new lock is always a reviewed diff.
LOCK_LEVELS: Mapping[tuple[str, str], str] = {
    ("CacheShard", "lock"): "shard",
    ("ShardedChunkCache", "_accounting_lock"): "accounting",
    ("BackendEngine", "_lock"): "engine",
    ("ServeSession", "_lock"): "session",
    ("FaultInjector", "_lock"): "faults",
    ("ChunkAdmitter", "_registry_lock"): "admitter",
    ("ChunkWorkEstimator", "_lock"): "estimator",
    ("TieredChunkCache", "_lock"): "tiered",
    # Named for the tier boundary, not the concrete store.
    ("ChunkLog", "_lock"): "l2",
}

#: Decorators that acquire a level around the wrapped function.  The
#: backend's ``@_synchronized`` methods take the engine big lock before
#: the body runs; the wrapper's ``self._lock`` is otherwise invisible to
#: per-callsite analysis.
DECORATOR_LOCKS: Mapping[str, str] = {
    "_synchronized": "engine",
}

#: Documented acquisition orders (outer, inner).  An edge in the
#: opposite direction is a violation even when no full cycle exists yet.
DOCUMENTED_ORDER: tuple[tuple[str, str], ...] = (
    ("shard", "accounting"),
    ("estimator", "engine"),
    ("shard", "tiered"),
    ("tiered", "l2"),
)


@dataclass(frozen=True)
class DeclaredEdge:
    """One lock-order edge the callgraph cannot derive, with the
    indirection that hides it recorded."""

    outer: str
    inner: str
    reason: str


#: Edges reached only through runtime indirection the name-based
#: callgraph cannot follow.  Each is pinned into the derived graph so
#: cycle detection, DOCUMENTED_ORDER and the golden file all see the
#: complete order; the runtime witness cross-checks them in the soak.
DECLARED_EDGES: tuple[DeclaredEdge, ...] = (
    DeclaredEdge(
        "shard",
        "tiered",
        "the tiered cache installs _on_evict as the L1 evict_hook; the "
        "hook fires inside CacheShard.held(), but only through the "
        "shard's cache.put() — an ambiguous name the callgraph leaves "
        "unresolved — so the ChunkCache._evict_one call site is never "
        "reached from the shard's critical section",
    ),
    DeclaredEdge(
        "shard",
        "l2",
        "transitive continuation of shard -> tiered: the spill hook "
        "writes to the L2 backend while the shard lock is still held",
    ),
)

#: Levels where acquiring while already holding the same level is safe:
#: ``engine`` is an RLock; ``shard`` multi-lock paths take ascending
#: shard-index order (``check_conservation``'s docstring).
ALLOWED_SELF_LOOPS = frozenset({"engine", "shard"})


@dataclass(frozen=True)
class StateWaiver:
    """One coordinator-only attribute: written without the class lock on
    purpose, with the happens-before argument recorded."""

    cls: str
    attr: str
    reason: str


#: The typed waiver registry for check 3.  Every entry must argue a
#: happens-before edge that makes the unlocked write safe; "it hasn't
#: crashed" is not a reason.
COORDINATOR_STATE: tuple[StateWaiver, ...] = (
    StateWaiver(
        "ServeSession",
        "_completed",
        "reset by run() before worker threads start (pool not yet created)",
    ),
    StateWaiver(
        "ServeSession",
        "_checkpoints_fired",
        "reset by run() before worker threads start",
    ),
    StateWaiver(
        "ServeSession",
        "_failure",
        "reset by run() before worker threads start",
    ),
    StateWaiver(
        "ServeSession",
        "_failures",
        "rebound by run() before worker threads start",
    ),
    StateWaiver(
        "FrontSession",
        "_windows",
        "rebound by _tickets(), which run() calls before the first ticket "
        "runs; the front door runs its tickets on the calling thread",
    ),
    StateWaiver(
        "FrontSession",
        "_shed",
        "rebound by _tickets(), which run() calls before the first ticket "
        "runs; never touched while tickets run",
    ),
)

_WAIVED_STATE = frozenset((w.cls, w.attr) for w in COORDINATOR_STATE)


@dataclass(frozen=True)
class LockGraph:
    """The derived static lock-order graph.

    ``edges`` maps (outer level, inner level) to the first witness
    ``(path, line)`` in sorted file order; ``levels`` maps each level to
    the lock kinds behind it (``{"Lock"}``, ``{"RLock"}`` …).
    """

    edges: Mapping[tuple[str, str], tuple[str, int]]
    levels: Mapping[str, frozenset[str]]

    def edge_lines(self) -> tuple[str, ...]:
        """Sorted ``"outer -> inner"`` lines (the golden-file format)."""
        return tuple(f"{a} -> {b}" for a, b in sorted(self.edges))


def _level_map(symbols: SymbolTable) -> dict[tuple[str, str], str]:
    levels = dict(LOCK_LEVELS)
    for (cls, attr), _kind in symbols.class_lock_attrs().items():
        levels.setdefault((cls, attr), f"{cls}.{attr}")
    return levels


def _base_classes(symbols: SymbolTable, cls: str) -> tuple[str, ...]:
    """``cls`` plus every (transitively) named base defined in-project."""
    out: list[str] = []
    stack = [cls]
    while stack:
        name = stack.pop()
        if name in out:
            continue
        out.append(name)
        for _path, facts in symbols.classes.get(name, []):
            for base in facts.bases:
                stack.append(base.rsplit(".", 1)[-1])
    return tuple(out)


class _Deriver:
    """Shared state for one derivation pass over a project."""

    def __init__(self, project: Project) -> None:
        self.symbols = project.symbols
        self.callgraph = project.callgraph
        self.levels = _level_map(self.symbols)
        # (attr name -> levels) for non-self receivers like "shard.lock".
        self.attr_levels: dict[str, set[str]] = {}
        for (_cls, attr), level in self.levels.items():
            self.attr_levels.setdefault(attr, set()).add(level)
        self.trans: dict[FuncRef, frozenset[str]] = {}

    def _plausible_callees(
        self, callee: str, func: FunctionFacts, path: str, held: frozenset[str]
    ) -> tuple[FuncRef, ...]:
        """Resolution for edge derivation, minus would-deadlock readings.

        A name-based resolution of ``cache.snapshot()`` matches every
        class defining ``snapshot``.  When the resolution is ambiguous
        (non-``self``, several candidates) and one candidate's own class
        holds a lock we are *currently inside*, that reading would
        self-deadlock — the author necessarily meant another candidate,
        so it is dropped.  An unambiguous or ``self.`` call keeps the
        candidate: a genuine self-deadlock must still be reported as a
        cycle.
        """
        refs = self.symbols.resolve_call(callee, func, path)
        if len(refs) <= 1 or callee.startswith("self.") or not held:
            return refs
        deadlocking = held - self._reacquirable_levels()
        if not deadlocking:
            return refs
        return tuple(
            ref
            for ref in refs
            if not (self.trans.get(ref, frozenset()) & deadlocking)
        )

    def _reacquirable_levels(self) -> frozenset[str]:
        """Levels safe to re-acquire while held: RLock-backed only.

        Deliberately narrower than :data:`ALLOWED_SELF_LOOPS`: the
        ``shard`` self-loop is an ascending-order argument over
        *different* instances, but for call-site plausibility the
        question is whether the candidate would re-take a plain lock the
        caller already holds — which deadlocks regardless of ordering
        discipline.
        """
        kinds: dict[str, set[str]] = {}
        for (cls, attr), level in self.levels.items():
            kind = self.symbols.class_lock_attrs().get((cls, attr))
            if kind is not None:
                kinds.setdefault(level, set()).add(kind)
        return frozenset(
            level for level, kindset in kinds.items() if kindset == {"RLock"}
        )

    def _self_lock_level(self, cls: str, attr: str) -> str | None:
        for name in _base_classes(self.symbols, cls):
            level = self.levels.get((name, attr))
            if level is not None:
                return level
        return None

    def levels_for(
        self, text: str, func: FunctionFacts, path: str
    ) -> frozenset[str]:
        """Levels a raw region text denotes (empty: not a known lock)."""
        if text.endswith("()"):
            refs = self.symbols.resolve_call(text[:-2], func, path)
            out: set[str] = set()
            for ref in refs:
                out |= self.trans.get(ref, frozenset())
            return frozenset(out)
        terminal = text.rsplit(".", 1)[-1]
        if not terminal.isidentifier():
            return frozenset()
        if func.cls is not None and text == f"self.{terminal}":
            level = self._self_lock_level(func.cls, terminal)
            return frozenset() if level is None else frozenset({level})
        if "." in text:
            return frozenset(self.attr_levels.get(terminal, set()))
        return frozenset()

    def direct_levels(self, func: FunctionFacts, path: str) -> frozenset[str]:
        """Levels ``func`` acquires in its own body (with/acquire/decorator)."""
        out: set[str] = set()
        for dec in func.decorators:
            level = DECORATOR_LOCKS.get(dec.rsplit(".", 1)[-1])
            if level is not None:
                out.add(level)
        for event in func.lock_events:
            if event.kind in ("with", "acquire"):
                out |= self.levels_for(event.target, func, path)
        return frozenset(out)

    def fixpoint(self) -> None:
        """``trans[f]`` = levels acquired by ``f`` or anything it calls."""
        functions = sorted(self.symbols.functions)
        self.trans = {ref: frozenset() for ref in functions}
        changed = True
        while changed:
            changed = False
            for ref in functions:
                func = self.symbols.functions[ref]
                acquired = set(self.direct_levels(func, ref.path))
                for callee in self.callgraph.callees(ref):
                    acquired |= self.trans.get(callee, frozenset())
                frozen = frozenset(acquired)
                if frozen != self.trans[ref]:
                    self.trans[ref] = frozen
                    changed = True

    def held_levels(
        self, held: tuple[str, ...], func: FunctionFacts, path: str
    ) -> frozenset[str]:
        out: set[str] = set()
        for text in held:
            out |= self.levels_for(text, func, path)
        return frozenset(out)

    def edges(self) -> dict[tuple[str, str], tuple[str, int]]:
        """(outer, inner) -> first witness, in deterministic order."""
        found: dict[tuple[str, str], tuple[str, int]] = {}

        def record(outer: str, inner: str, path: str, line: int) -> None:
            key = (outer, inner)
            if key not in found:
                found[key] = (path, line)

        for ref in sorted(self.symbols.functions):
            func = self.symbols.functions[ref]
            decorator_held = frozenset(
                DECORATOR_LOCKS[d.rsplit(".", 1)[-1]]
                for d in func.decorators
                if d.rsplit(".", 1)[-1] in DECORATOR_LOCKS
            )
            for event in func.lock_events:
                if event.kind not in ("with", "acquire"):
                    continue
                new_levels = self.levels_for(event.target, func, ref.path)
                if not new_levels:
                    continue
                held = (
                    self.held_levels(event.held, func, ref.path)
                    | decorator_held
                )
                for outer in held:
                    for inner in new_levels:
                        record(outer, inner, ref.path, event.line)
            for call in func.calls:
                held = (
                    self.held_levels(call.held, func, ref.path)
                    | decorator_held
                )
                if not held:
                    continue
                acquired: set[str] = set()
                for callee in self._plausible_callees(
                    call.callee, func, ref.path, held
                ):
                    acquired |= self.trans.get(callee, frozenset())
                for outer in held:
                    for inner in acquired:
                        record(outer, inner, ref.path, call.line)
        return found


def derive_lock_graph(project: Project) -> LockGraph:
    """Derive the static lock-order graph over ``src/repro`` files."""
    repro = project.repro_only()
    deriver = _Deriver(repro)
    deriver.fixpoint()
    return _graph_from(deriver, repro)


def _graph_from(deriver: _Deriver, repro: Project) -> LockGraph:
    edges = deriver.edges()
    # Allowed self-loops are part of the contract (RLock re-entry,
    # ascending shard order): pin them explicitly so the runtime witness
    # check and the golden file always cover them.
    levels: dict[str, set[str]] = {}
    for (cls, attr), level in deriver.levels.items():
        kind = repro.symbols.class_lock_attrs().get((cls, attr))
        if kind is not None:
            levels.setdefault(level, set()).add(kind)
    for level, kinds in levels.items():
        if level in ALLOWED_SELF_LOOPS or kinds == {"RLock"}:
            edges.setdefault((level, level), ("<allowed self-loop>", 0))
    # Edges hidden behind hook indirection are part of the contract:
    # pin them so cycle detection and the golden file stay complete.
    for declared in DECLARED_EDGES:
        edges.setdefault(
            (declared.outer, declared.inner), ("<declared edge>", 0)
        )
    return LockGraph(
        edges=edges,
        levels={lvl: frozenset(kinds) for lvl, kinds in levels.items()},
    )


def _self_loop_allowed(level: str, graph: LockGraph) -> bool:
    if level in ALLOWED_SELF_LOOPS:
        return True
    return graph.levels.get(level) == frozenset({"RLock"})


def _find_cycle(
    edges: Mapping[tuple[str, str], tuple[str, int]],
    skip_self_loop: frozenset[str],
) -> list[str] | None:
    """One cycle in the level digraph (as a node list), or None."""
    adjacency: dict[str, list[str]] = {}
    for outer, inner in sorted(edges):
        if outer == inner and outer in skip_self_loop:
            continue
        adjacency.setdefault(outer, []).append(inner)
        adjacency.setdefault(inner, [])
    state: dict[str, int] = {}  # 0 unvisited / 1 on stack / 2 done
    parent: dict[str, str] = {}

    for start in sorted(adjacency):
        if state.get(start, 0) != 0:
            continue
        stack: list[tuple[str, int]] = [(start, 0)]
        state[start] = 1
        while stack:
            node, i = stack[-1]
            if i < len(adjacency[node]):
                stack[-1] = (node, i + 1)
                nxt = adjacency[node][i]
                if state.get(nxt, 0) == 1:
                    cycle = [nxt]
                    cur = node
                    while cur != nxt:
                        cycle.append(cur)
                        cur = parent[cur]
                    cycle.append(nxt)
                    cycle.reverse()
                    return cycle
                if state.get(nxt, 0) == 0:
                    state[nxt] = 1
                    parent[nxt] = node
                    stack.append((nxt, 0))
            else:
                state[node] = 2
                stack.pop()
    return None


def _check_graph(graph: LockGraph) -> Iterator[Violation]:
    for outer, inner in DOCUMENTED_ORDER:
        witness = graph.edges.get((inner, outer))
        if witness is not None:
            path, line = witness
            yield Violation(
                path=path,
                line=line,
                col=0,
                code=CODE,
                message=(
                    f"lock order violation: acquires '{outer}' while "
                    f"holding '{inner}', contradicting the documented "
                    f"{outer} -> {inner} order"
                ),
            )
    skip = frozenset(
        level
        for level in graph.levels
        if _self_loop_allowed(level, graph)
    ) | frozenset(ALLOWED_SELF_LOOPS)
    cycle = _find_cycle(graph.edges, skip)
    if cycle is not None:
        first_edge = (cycle[0], cycle[1]) if len(cycle) > 1 else (cycle[0],) * 2
        path, line = graph.edges.get(first_edge, ("<derived>", 0))
        yield Violation(
            path=path,
            line=line,
            col=0,
            code=CODE,
            message=(
                "lock-order cycle: " + " -> ".join(cycle) + " (a thread "
                "holding one of these can deadlock against another; break "
                "the cycle or document and enforce a single order)"
            ),
        )


def _check_guarded_state(repro: Project, deriver: _Deriver) -> Iterator[Violation]:
    symbols = repro.symbols
    locked_classes: set[str] = set()
    for entries in symbols.classes.values():
        for path, cls in entries:
            facts = repro.by_path[path]
            if facts.module is None or not facts.module.startswith("repro.serve"):
                continue
            for name in _base_classes(symbols, cls.name):
                for _cand_path, cand in symbols.classes.get(name, []):
                    if cand.lock_attrs:
                        locked_classes.add(cls.name)
    used: set[tuple[str, str]] = set()
    for ref in sorted(symbols.functions):
        func = symbols.functions[ref]
        if func.cls is None or func.cls not in locked_classes:
            continue
        if func.name == "__init__":
            continue
        facts = repro.by_path[ref.path]
        if facts.module is None or not facts.module.startswith("repro.serve"):
            continue
        lock_attrs = {
            attr
            for name in _base_classes(symbols, func.cls)
            for (cls_name, attr) in symbols.class_lock_attrs()
            if cls_name == name
        }
        for write in func.attr_writes:
            if write.attr in lock_attrs:
                continue
            if deriver.held_levels(write.held, func, ref.path):
                continue
            waiver = next(
                (
                    (base, write.attr)
                    for base in _base_classes(symbols, func.cls)
                    if (base, write.attr) in _WAIVED_STATE
                ),
                None,
            )
            if waiver is not None:
                used.add(waiver)
                continue
            yield Violation(
                path=ref.path,
                line=write.line,
                col=0,
                code=CODE,
                message=(
                    f"unlocked write to shared state: {func.cls}."
                    f"{write.attr} is written in {func.qualname} outside "
                    f"any lock-held region; hold the class lock, register "
                    f"the attribute in COORDINATOR_STATE with a "
                    f"happens-before argument, or waive with a reason"
                ),
            )

    for waiver in COORDINATOR_STATE:
        if (waiver.cls, waiver.attr) in used:
            continue
        for path, cls in symbols.classes.get(waiver.cls, []):
            if cls.name not in locked_classes:
                continue
            yield Violation(
                path=path,
                line=cls.line,
                col=0,
                code=CODE,
                message=(
                    f"stale waiver: COORDINATOR_STATE registers "
                    f"{waiver.cls}.{waiver.attr} but no unlocked write to "
                    f"it remains in the analysed tree; delete the entry "
                    f"(tools/reprolint/rules/r009_lockorder.py)"
                ),
            )


def check_project(project: Project) -> Iterator[Violation]:
    repro = project.repro_only()
    deriver = _Deriver(repro)
    deriver.fixpoint()
    yield from _check_graph(_graph_from(deriver, repro))
    yield from _check_guarded_state(repro, deriver)
