"""Phase 1 of the whole-program analyzer: per-file fact extraction.

The two-phase engine (see ``docs/STATIC_ANALYSIS.md``) splits analysis
into *fact extraction* — one pass over each file's AST producing a
JSON-serializable :class:`FileFacts` — and *whole-program rules* that
consume the facts of every file at once (taint propagation over the
call graph).  Facts are deliberately plain data:

- they can be cached by content hash (:mod:`tools.reprolint.cache`), so
  a warm ``make lint`` never re-parses an unchanged file;
- whole-program rules never touch an AST, which keeps phase 2 cheap
  enough to run on every lint invocation.

What is recorded per function (:class:`FunctionFacts`):

- **calls** — every call site with its callee text, the edges the
  project call graph is built from.
- **attribute reads and writes** — the attribute names a function reads
  and the taint tokens of *any* terminal attribute assignment (the
  R010 field-taint seed).
- **nondeterminism sources** — wall-clock reads, unseeded RNG calls,
  ``os.environ`` reads, ``id()`` / builtin ``hash()``, unordered-set
  iteration.
- **taint summaries** — which base tokens (``nondet``, ``call:<f>``,
  ``attr:<a>``) reach the function's returns, attribute writes, keyword
  constructor arguments and string-keyed dict literals, after a
  local-variable fixpoint.

The extraction is a syntactic over/under-approximation by design: it
resolves nothing (phase 2 owns resolution) and it tracks no aliasing.
The limits are documented in ``docs/STATIC_ANALYSIS.md``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Sequence

__all__ = [
    "CallSite",
    "NondetUse",
    "KwTaint",
    "DictKeyTaint",
    "FunctionFacts",
    "ClassFacts",
    "Suppression",
    "FileFacts",
    "extract_facts",
    "facts_to_dict",
    "facts_from_dict",
]

#: Wall-clock reads on the ``time`` module (value-returning).
CLOCK_CALLS = frozenset(
    {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
        "thread_time",
        "thread_time_ns",
        "clock_gettime",
        "clock_gettime_ns",
    }
)

#: ``random``-module calls that are *seeded constructors*, not sources.
SEEDED_CONSTRUCTORS = frozenset({"Random"})

@dataclass(frozen=True)
class CallSite:
    """One call expression: its raw callee text and line."""

    callee: str
    line: int


@dataclass(frozen=True)
class NondetUse:
    """One use of a nondeterminism source.

    ``kind`` is one of ``"clock"``, ``"rng"``, ``"environ"``, ``"id"``,
    ``"hash"``, ``"set-iter"``; ``detail`` names the concrete source
    (``"time.perf_counter"``, ``"random.random"``, ``"set iteration"``).
    """

    kind: str
    detail: str
    line: int


@dataclass(frozen=True)
class KwTaint:
    """Taint tokens flowing into one keyword argument of a call.

    The R010 field-taint seed for frozen dataclasses built by keyword
    (``ServeReport(wall_seconds=wall)``).
    """

    callee: str
    keyword: str
    tokens: tuple[str, ...]
    line: int


@dataclass(frozen=True)
class DictKeyTaint:
    """Taint tokens flowing into one string-keyed dict-literal value."""

    key: str
    tokens: tuple[str, ...]
    line: int


@dataclass(frozen=True)
class FunctionFacts:
    """Everything phase 2 needs to know about one function."""

    name: str
    qualname: str
    cls: str | None
    line: int
    calls: tuple[CallSite, ...]
    attr_reads: tuple[tuple[str, int], ...]
    nondet: tuple[NondetUse, ...]
    return_tokens: tuple[str, ...]
    attr_taints: tuple[tuple[str, tuple[str, ...]], ...]
    kw_taints: tuple[KwTaint, ...]
    dict_taints: tuple[DictKeyTaint, ...]


@dataclass(frozen=True)
class ClassFacts:
    """One class definition and its methods."""

    name: str
    line: int
    bases: tuple[str, ...]
    methods: tuple[str, ...]


@dataclass(frozen=True)
class Suppression:
    """One ``# reprolint: ignore[...]`` comment.

    Attributes:
        line: 1-based source line the comment sits on.
        codes: The rule codes it names.
        reason: The trailing free-text reason (stripped; empty when the
            waiver is bare — which R000 flags).
    """

    line: int
    codes: tuple[str, ...]
    reason: str


@dataclass(frozen=True)
class FileFacts:
    """Phase-1 output for one file: plain data, JSON-round-trippable."""

    path: str
    module: str | None
    imports: tuple[tuple[str, int], ...]
    classes: tuple[ClassFacts, ...]
    functions: tuple[FunctionFacts, ...]
    suppressions: tuple[Suppression, ...] = field(default=())


# ----------------------------------------------------------------------
# Expression rendering and taint-token collection
# ----------------------------------------------------------------------
def expr_text(node: ast.expr) -> str:
    """Best-effort dotted rendering of a receiver expression.

    ``self.log.put`` -> ``"self.log.put"``;
    ``shard.held()`` -> ``"shard.held()"``; anything unrenderable
    collapses to ``"?"`` segments rather than failing.
    """
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return f"{expr_text(node.value)}.{node.attr}"
    if isinstance(node, ast.Call):
        return f"{expr_text(node.func)}()"
    if isinstance(node, ast.Subscript):
        return f"{expr_text(node.value)}[]"
    return "?"


def _call_detail(node: ast.Call) -> tuple[str, str] | None:
    """Classify one call as a nondeterminism source, if it is one.

    Returns ``(kind, detail)`` or None.  Seeded constructions —
    ``random.Random(seed)``, ``np.random.default_rng(seed)`` — are
    excluded; the *global* process-wide RNGs and the wall clock are not.
    """
    func = node.func
    if isinstance(func, ast.Name):
        if func.id == "id":
            return "id", "id()"
        if func.id == "hash":
            return "hash", "hash()"
        if func.id == "getenv":
            return "environ", "getenv()"
        return None
    if not isinstance(func, ast.Attribute):
        return None
    receiver = expr_text(func.value)
    name = func.attr
    if receiver == "time" and name in CLOCK_CALLS:
        return "clock", f"time.{name}"
    if receiver == "datetime.datetime" and name in ("now", "utcnow", "today"):
        return "clock", f"datetime.{name}"
    if receiver == "random" and name not in SEEDED_CONSTRUCTORS:
        return "rng", f"random.{name}"
    if receiver in ("np.random", "numpy.random"):
        if name == "default_rng" and not node.args and not node.keywords:
            return "rng", f"{receiver}.default_rng (unseeded)"
        if name != "default_rng":
            return "rng", f"{receiver}.{name}"
        return None
    if receiver == "os" and name in ("getenv", "urandom"):
        return "environ" if name == "getenv" else "rng", f"os.{name}"
    if receiver == "os.environ" and name in ("get", "items", "keys"):
        return "environ", f"os.environ.{name}"
    if receiver == "uuid" and name in ("uuid1", "uuid4"):
        return "rng", f"uuid.{name}"
    if receiver == "secrets":
        return "rng", f"secrets.{name}"
    return None


def _environ_read(node: ast.expr) -> bool:
    """Whether ``node`` reads ``os.environ`` directly (subscript/attr)."""
    if isinstance(node, ast.Subscript):
        return expr_text(node.value) == "os.environ"
    return False


def _is_name_chain(node: ast.expr) -> bool:
    """``self``, ``report``, ``self.trace.stage`` — no calls inside."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return isinstance(node, ast.Name)


#: Cap on ``arg:`` wrapper nesting.  Deeper chains collapse to the bare
#: inner token — strictly more conservative (the barrier check below can
#: only *clear* taint, so dropping wrappers never hides a flow).
_MAX_ARG_DEPTH = 3


def split_arg_token(token: str) -> tuple[tuple[str, ...], str]:
    """``"arg:f:arg:g:attr:x"`` → ``(("f", "g"), "attr:x")``.

    Argument-derived tokens record which callees the value passed
    through so the taint rule can treat audited digest functions as
    barriers.  Callee texts come from :func:`expr_text` and never
    contain ``:``.
    """
    callees: list[str] = []
    while token.startswith("arg:"):
        callee, _, token = token[len("arg:") :].partition(":")
        callees.append(callee)
    return tuple(callees), token


def _wrap_arg(callees: tuple[str, ...], token: str) -> str:
    inner_depth = len(split_arg_token(token)[0])
    for callee in reversed(callees[: max(0, _MAX_ARG_DEPTH - inner_depth)]):
        token = f"arg:{callee}:{token}"
    return token


class _TokenCollector(ast.NodeVisitor):
    """Collect base taint tokens from one expression.

    Tokens: ``"nondet"`` (a direct source call in the expression),
    ``"call:<callee>"``, ``"attr:<name>"``, ``"local:<name>"`` (the
    last substituted away by the per-function fixpoint) and
    ``"arg:<callee>:<token>"`` for values passed *into* a call — the
    wrapper lets the taint rule stop argument flows at audited
    digest-function barriers.

    Attribute access on a plain name chain is a **field projection**:
    ``report.queries`` yields only ``attr:queries``, not the taint of
    ``report`` itself.  Field-level tracking is what lets one wall-clock
    field inside a report object stay quarantined instead of smearing
    its taint over every sibling field read from the same object.
    """

    def __init__(self, skip_str_dict_values: bool = False) -> None:
        self.tokens: set[str] = set()
        self._skip_str_dict_values = skip_str_dict_values

    def visit_Call(self, node: ast.Call) -> None:
        detail = _call_detail(node)
        if detail is not None:
            self.tokens.add("nondet")
            self.generic_visit(node)
            return
        callee = expr_text(node.func)
        self.tokens.add(f"call:{callee}")
        if not _is_name_chain(node.func):
            self.visit(node.func)
        # Argument taint flows through the call, but tagged with the
        # callee so digest functions (audited internally as sinks) can
        # act as barriers at their call sites.
        args: list[ast.expr] = list(node.args)
        args.extend(kw.value for kw in node.keywords)
        for arg in args:
            sub = _TokenCollector(self._skip_str_dict_values)
            sub.visit(arg)
            for token in sub.tokens:
                self.tokens.add(_wrap_arg((callee,), token))

    def visit_Dict(self, node: ast.Dict) -> None:
        if not self._skip_str_dict_values:
            self.generic_visit(node)
            return
        # Nested string-keyed dict literals are audited per key by their
        # own DictKeyTaint records; re-aggregating their values here
        # would let one whitelisted wall_* entry taint the whole
        # enclosing payload.
        for key, value in zip(node.keys, node.values):
            if (
                key is not None
                and isinstance(key, ast.Constant)
                and isinstance(key.value, str)
            ):
                continue
            if key is not None:
                self.visit(key)
            self.visit(value)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load):
            self.tokens.add(f"attr:{node.attr}")
        if not _is_name_chain(node.value):
            self.visit(node.value)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if _environ_read(node):
            self.tokens.add("nondet")
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self.tokens.add(f"local:{node.id}")


def _expr_tokens(
    node: ast.expr, skip_str_dict_values: bool = False
) -> frozenset[str]:
    collector = _TokenCollector(skip_str_dict_values)
    collector.visit(node)
    return frozenset(collector.tokens)


# ----------------------------------------------------------------------
# Per-function extraction
# ----------------------------------------------------------------------
class _FunctionVisitor:
    """Walks one function body in statement order."""

    def __init__(self, func: ast.FunctionDef | ast.AsyncFunctionDef, cls: str | None) -> None:
        self.func = func
        self.cls = cls
        self.calls: list[CallSite] = []
        self.attr_reads: list[tuple[str, int]] = []
        self.nondet: list[NondetUse] = []
        self.return_exprs: list[ast.expr] = []
        self.assigns: list[tuple[str, frozenset[str]]] = []
        self.attr_assigns: list[tuple[str, frozenset[str]]] = []
        self.kw_taints: list[KwTaint] = []
        self.dict_taints: list[DictKeyTaint] = []
        self.set_locals: set[str] = set()

    # -- helpers --------------------------------------------------------
    def _note_expr(self, node: ast.expr) -> None:
        """Record calls, reads and sources inside one expression."""
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                callee = expr_text(sub.func)
                self.calls.append(CallSite(callee=callee, line=sub.lineno))
                detail = _call_detail(sub)
                if detail is not None:
                    self.nondet.append(
                        NondetUse(kind=detail[0], detail=detail[1], line=sub.lineno)
                    )
                for kw in sub.keywords:
                    if kw.arg is not None:
                        self.kw_taints.append(
                            KwTaint(
                                callee=callee,
                                keyword=kw.arg,
                                tokens=tuple(sorted(_expr_tokens(kw.value))),
                                line=sub.lineno,
                            )
                        )
            elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                self.attr_reads.append((sub.attr, sub.lineno))
            elif isinstance(sub, ast.Subscript) and _environ_read(sub):
                self.nondet.append(
                    NondetUse(kind="environ", detail="os.environ[...]", line=sub.lineno)
                )
            elif isinstance(sub, ast.Dict):
                for key, value in zip(sub.keys, sub.values):
                    if (
                        key is not None
                        and isinstance(key, ast.Constant)
                        and isinstance(key.value, str)
                    ):
                        self.dict_taints.append(
                            DictKeyTaint(
                                key=key.value,
                                tokens=tuple(
                                    sorted(
                                        _expr_tokens(
                                            value, skip_str_dict_values=True
                                        )
                                    )
                                ),
                                line=key.lineno,
                            )
                        )

    def _is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("set", "frozenset"):
                return True
        if isinstance(node, ast.Name):
            return node.id in self.set_locals
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub)
        ):
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        return False

    def _note_iteration(self, iter_expr: ast.expr, line: int) -> None:
        if self._is_set_expr(iter_expr):
            self.nondet.append(
                NondetUse(kind="set-iter", detail="set iteration", line=line)
            )

    def _note_target(self, target: ast.expr, tokens: frozenset[str]) -> None:
        if isinstance(target, ast.Name):
            self.assigns.append((target.id, tokens))
        elif isinstance(target, ast.Attribute):
            self.attr_assigns.append((target.attr, tokens))
        elif isinstance(target, ast.Subscript):
            inner = target.value
            if (
                isinstance(inner, ast.Attribute)
                and isinstance(inner.value, ast.Name)
                and inner.value.id == "self"
            ):
                self.attr_assigns.append((inner.attr, tokens))
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._note_target(element, tokens)

    # -- statement traversal -------------------------------------------
    def run(self) -> None:
        for stmt in self.func.body:
            self._visit_stmt(stmt)

    def _visit_block(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self._visit_stmt(stmt)

    def _visit_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # nested defs analyzed separately
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._note_expr(item.context_expr)
            self._visit_block(stmt.body)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._note_iteration(stmt.iter, stmt.lineno)
            self._note_expr(stmt.iter)
            self._visit_block(stmt.body)
            self._visit_block(stmt.orelse)
            return
        if isinstance(stmt, ast.While):
            self._note_expr(stmt.test)
            self._visit_block(stmt.body)
            self._visit_block(stmt.orelse)
            return
        if isinstance(stmt, ast.If):
            self._note_expr(stmt.test)
            self._visit_block(stmt.body)
            self._visit_block(stmt.orelse)
            return
        if isinstance(stmt, ast.Try):
            self._visit_block(stmt.body)
            for handler in stmt.handlers:
                self._visit_block(handler.body)
            self._visit_block(stmt.orelse)
            self._visit_block(stmt.finalbody)
            return
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.return_exprs.append(stmt.value)
                self._note_expr(stmt.value)
            return
        if isinstance(stmt, ast.Assign):
            tokens = _expr_tokens(stmt.value)
            self._note_expr(stmt.value)
            for target in stmt.targets:
                self._note_target(target, tokens)
                if isinstance(target, ast.Name) and self._is_set_expr(stmt.value):
                    self.set_locals.add(target.id)
            for target in stmt.targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.expr) and not isinstance(
                        sub, (ast.Name, ast.Attribute, ast.Tuple, ast.List, ast.Starred)
                    ):
                        self._note_expr(sub)
            return
        if isinstance(stmt, ast.AugAssign):
            tokens = _expr_tokens(stmt.value)
            self._note_expr(stmt.value)
            self._note_target(stmt.target, tokens)
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                tokens = _expr_tokens(stmt.value)
                self._note_expr(stmt.value)
                self._note_target(stmt.target, tokens)
            return
        if isinstance(stmt, ast.Expr):
            self._note_expr(stmt.value)
            # Comprehensions iterate too: flag set-typed generators.
            for sub in ast.walk(stmt.value):
                if isinstance(sub, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
                    for gen in sub.generators:
                        self._note_iteration(gen.iter, sub.lineno)
            return
        if isinstance(stmt, (ast.Assert, ast.Raise, ast.Delete)):
            for value in ast.iter_child_nodes(stmt):
                if isinstance(value, ast.expr):
                    self._note_expr(value)
            return
        # Remaining compound/simple statements: record expressions inside.
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._note_expr(child)
            elif isinstance(child, ast.stmt):
                self._visit_stmt(child)

    # -- summary --------------------------------------------------------
    def _resolve_tokens(self) -> dict[str, frozenset[str]]:
        """Per-local base-token closure (substitute ``local:`` away)."""
        local_tokens: dict[str, set[str]] = {}
        for name, tokens in self.assigns:
            local_tokens.setdefault(name, set()).update(tokens)
        changed = True
        iterations = 0
        while changed and iterations < 32:
            changed = False
            iterations += 1
            for name, tokens in local_tokens.items():
                extra: set[str] = set()
                for token in list(tokens):
                    callees, base = split_arg_token(token)
                    if base.startswith("local:"):
                        ref = base[len("local:") :]
                        for sub in local_tokens.get(ref, set()):
                            extra.add(_wrap_arg(callees, sub))
                before = len(tokens)
                tokens.update(extra)
                if len(tokens) != before:
                    changed = True
        return {
            name: frozenset(
                t
                for t in tokens
                if not split_arg_token(t)[1].startswith("local:")
            )
            for name, tokens in local_tokens.items()
        }

    def _substitute(
        self, tokens: frozenset[str], resolved: dict[str, frozenset[str]]
    ) -> tuple[str, ...]:
        out: set[str] = set()
        for token in tokens:
            callees, base = split_arg_token(token)
            if base.startswith("local:"):
                for sub in resolved.get(base[len("local:") :], frozenset()):
                    out.add(_wrap_arg(callees, sub))
            else:
                out.add(token)
        return tuple(sorted(out))

    def summarize(self) -> FunctionFacts:
        resolved = self._resolve_tokens()
        return_tokens: set[str] = set()
        for expr in self.return_exprs:
            return_tokens.update(self._substitute(_expr_tokens(expr), resolved))
        attr_taints: dict[str, set[str]] = {}
        for attr, tokens in self.attr_assigns:
            attr_taints.setdefault(attr, set()).update(
                self._substitute(tokens, resolved)
            )
        qualname = (
            f"{self.cls}.{self.func.name}" if self.cls else self.func.name
        )
        return FunctionFacts(
            name=self.func.name,
            qualname=qualname,
            cls=self.cls,
            line=self.func.lineno,
            calls=tuple(self.calls),
            attr_reads=tuple(self.attr_reads),
            nondet=tuple(self.nondet),
            return_tokens=tuple(sorted(return_tokens)),
            attr_taints=tuple(
                sorted(
                    (attr, tuple(sorted(tokens)))
                    for attr, tokens in attr_taints.items()
                )
            ),
            kw_taints=tuple(
                KwTaint(
                    callee=kw.callee,
                    keyword=kw.keyword,
                    tokens=self._substitute(frozenset(kw.tokens), resolved),
                    line=kw.line,
                )
                for kw in self.kw_taints
            ),
            dict_taints=tuple(
                DictKeyTaint(
                    key=dk.key,
                    tokens=self._substitute(frozenset(dk.tokens), resolved),
                    line=dk.line,
                )
                for dk in self.dict_taints
            ),
        )


# ----------------------------------------------------------------------
# Per-file extraction
# ----------------------------------------------------------------------
def _extract_class(node: ast.ClassDef) -> tuple[ClassFacts, list[FunctionFacts]]:
    methods: list[str] = []
    functions: list[FunctionFacts] = []
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            methods.append(stmt.name)
            visitor = _FunctionVisitor(stmt, node.name)
            visitor.run()
            functions.append(visitor.summarize())
    facts = ClassFacts(
        name=node.name,
        line=node.lineno,
        bases=tuple(expr_text(base) for base in node.bases),
        methods=tuple(methods),
    )
    return facts, functions


def extract_facts(
    path: str,
    module: str | None,
    tree: ast.Module,
    suppressions: Sequence[Suppression] = (),
) -> FileFacts:
    """Extract one file's facts from its parsed AST."""
    imports: list[tuple[str, int]] = []
    classes: list[ClassFacts] = []
    functions: list[FunctionFacts] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imports.append((alias.name, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            if node.module and node.level == 0:
                imports.append((node.module, node.lineno))
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            cls_facts, cls_functions = _extract_class(node)
            classes.append(cls_facts)
            functions.extend(cls_functions)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            visitor = _FunctionVisitor(node, None)
            visitor.run()
            functions.append(visitor.summarize())
            # Nested defs (decorator wrappers, closures): analyze one
            # level down so their calls and taint are visible.
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    nested = _FunctionVisitor(stmt, None)
                    nested.run()
                    inner = nested.summarize()
                    functions.append(
                        FunctionFacts(
                            name=inner.name,
                            qualname=f"{node.name}.{inner.name}",
                            cls=None,
                            line=inner.line,
                            calls=inner.calls,
                            attr_reads=inner.attr_reads,
                            nondet=inner.nondet,
                            return_tokens=inner.return_tokens,
                            attr_taints=inner.attr_taints,
                            kw_taints=inner.kw_taints,
                            dict_taints=inner.dict_taints,
                        )
                    )
    return FileFacts(
        path=path,
        module=module,
        imports=tuple(imports),
        classes=tuple(classes),
        functions=tuple(functions),
        suppressions=tuple(suppressions),
    )


# ----------------------------------------------------------------------
# JSON round-trip (for the content-hash cache)
# ----------------------------------------------------------------------
def facts_to_dict(facts: FileFacts) -> dict[str, Any]:
    """Serialize to plain JSON types (tuples become lists)."""

    def _dc(obj: Any) -> Any:
        if isinstance(obj, tuple):
            return [_dc(item) for item in obj]
        if hasattr(obj, "__dataclass_fields__"):
            return {
                name: _dc(getattr(obj, name))
                for name in obj.__dataclass_fields__
            }
        return obj

    out = _dc(facts)
    assert isinstance(out, dict)
    return out


def _tup(items: Any) -> tuple[Any, ...]:
    return tuple(items)


def facts_from_dict(data: dict[str, Any]) -> FileFacts:
    """Rebuild :class:`FileFacts` from :func:`facts_to_dict` output."""

    functions = tuple(
        FunctionFacts(
            name=f["name"],
            qualname=f["qualname"],
            cls=f["cls"],
            line=f["line"],
            calls=tuple(CallSite(c["callee"], c["line"]) for c in f["calls"]),
            attr_reads=tuple((a, b) for a, b in f["attr_reads"]),
            nondet=tuple(
                NondetUse(n["kind"], n["detail"], n["line"]) for n in f["nondet"]
            ),
            return_tokens=_tup(f["return_tokens"]),
            attr_taints=tuple(
                (attr, _tup(tokens)) for attr, tokens in f["attr_taints"]
            ),
            kw_taints=tuple(
                KwTaint(k["callee"], k["keyword"], _tup(k["tokens"]), k["line"])
                for k in f["kw_taints"]
            ),
            dict_taints=tuple(
                DictKeyTaint(d["key"], _tup(d["tokens"]), d["line"])
                for d in f["dict_taints"]
            ),
        )
        for f in data["functions"]
    )
    classes = tuple(
        ClassFacts(
            name=c["name"],
            line=c["line"],
            bases=_tup(c["bases"]),
            methods=_tup(c["methods"]),
        )
        for c in data["classes"]
    )
    return FileFacts(
        path=data["path"],
        module=data["module"],
        imports=tuple((m, l) for m, l in data["imports"]),
        classes=classes,
        functions=functions,
        suppressions=tuple(
            Suppression(s["line"], _tup(s["codes"]), s["reason"])
            for s in data["suppressions"]
        ),
    )
