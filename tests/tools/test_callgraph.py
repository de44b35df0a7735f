"""Phase-2 symbol table and call graph over a synthetic mini-project."""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

from tools.reprolint.callgraph import (
    HOOK_BINDINGS,
    CallGraph,
    FuncRef,
    SymbolTable,
)
from tools.reprolint.engine import run_lint
from tools.reprolint.facts import extract_facts
from tools.reprolint.project import Project

REPO = Path(__file__).resolve().parents[2]

A_PY = (
    "class Cache:\n"
    "    def lookup(self):\n"
    "        return self._probe()\n"
    "    def _probe(self):\n"
    "        return helper()\n"
    "def helper():\n"
    "    return 1\n"
)

B_PY = (
    "class Backend:\n"
    "    def lookup(self):\n"
    "        return 2\n"
    "def driver(cache):\n"
    "    return cache.lookup()\n"
    "def local_call():\n"
    "    return helper()\n"
    "class Hold:\n"
    "    def __init__(self):\n"
    "        self.depth = 0\n"
    "    def __enter__(self):\n"
    "        return self\n"
)


def _project_files():
    return {
        "src/repro/a.py": ("repro.a", A_PY),
        "src/repro/b.py": ("repro.b", B_PY),
    }


def _symbols():
    files = []
    for path, (module, source) in _project_files().items():
        files.append(
            extract_facts(
                path=path, module=module, tree=ast.parse(source), suppressions=()
            )
        )
    return SymbolTable(tuple(files))


def _func(symbols, path, qualname):
    ref = FuncRef(path=path, qualname=qualname)
    return ref, symbols.functions[ref]


class TestResolveCall:
    def test_bare_name_prefers_same_file(self):
        symbols = _symbols()
        _, caller = _func(symbols, "src/repro/b.py", "local_call")
        refs = symbols.resolve_call("helper", caller, "src/repro/b.py")
        assert refs == (FuncRef("src/repro/a.py", "helper"),)

    def test_self_call_resolves_to_own_class(self):
        symbols = _symbols()
        _, caller = _func(symbols, "src/repro/a.py", "Cache.lookup")
        refs = symbols.resolve_call("self._probe", caller, "src/repro/a.py")
        assert refs == (FuncRef("src/repro/a.py", "Cache._probe"),)

    def test_ambiguous_method_matches_every_class(self):
        symbols = _symbols()
        _, caller = _func(symbols, "src/repro/b.py", "driver")
        refs = symbols.resolve_call("cache.lookup", caller, "src/repro/b.py")
        assert set(refs) == {
            FuncRef("src/repro/a.py", "Cache.lookup"),
            FuncRef("src/repro/b.py", "Backend.lookup"),
        }

    def test_instantiation_reaches_init_and_enter(self):
        # A context-manager object is built to be entered: whoever
        # builds one (``return Hold()``) owns what ``__enter__`` does.
        symbols = _symbols()
        _, caller = _func(symbols, "src/repro/b.py", "driver")
        assert symbols.resolve_call("Hold", caller, "src/repro/b.py") == (
            FuncRef("src/repro/b.py", "Hold.__init__"),
            FuncRef("src/repro/b.py", "Hold.__enter__"),
        )

    def test_stdlib_colliding_names_are_denied(self):
        symbols = _symbols()
        _, caller = _func(symbols, "src/repro/b.py", "driver")
        # "get"/"put"/"items" collide with dict/queue methods; a
        # name-based match would fabricate edges.
        assert symbols.resolve_call("store.get", caller, "src/repro/b.py") == ()


class TestCallGraph:
    def test_edges_follow_resolution(self):
        symbols = _symbols()
        graph = CallGraph(symbols)
        ref, _ = _func(symbols, "src/repro/a.py", "Cache.lookup")
        assert FuncRef("src/repro/a.py", "Cache._probe") in graph.callees(ref)

    def test_transitive_closure(self):
        symbols = _symbols()
        graph = CallGraph(symbols)
        ref, _ = _func(symbols, "src/repro/a.py", "Cache.lookup")
        closure = graph.transitive_closure([ref])
        assert FuncRef("src/repro/a.py", "helper") in closure



def test_every_hook_binding_names_one_definition_in_src():
    # A binding that outlived its method would bind to nothing without
    # a word; one whose name two classes define would bind twice.
    symbols = Project(run_lint([REPO / "src"]).files).symbols
    defined = Counter(
        tuple(ref.qualname.split(".")) for ref in symbols.functions
    )
    targets = [pair for bound in HOOK_BINDINGS.values() for pair in bound]
    assert targets
    assert {pair: defined[pair] for pair in targets} == {
        pair: 1 for pair in targets
    }
