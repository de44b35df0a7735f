"""R010 — whole-program determinism taint.

The repo's reports promise that every digest is a **pure function of
(workload, seed, config)**: ``SoakReport.digest`` / ``FrontReport``'s
digest must not move when worker counts, scheduling, or the wall clock
do.  This rule makes that promise static:

1. **Sources** — wall-clock reads (``time.perf_counter`` …), unseeded
   RNG use (``random.random``, bare ``np.random.default_rng()``),
   ``os.environ`` reads, ``id()`` / builtin ``hash()``, and
   unordered-``set`` iteration.  Seeded constructions
   (``random.Random(seed)``, ``np.random.default_rng(seed)``) are not
   sources.

2. **Propagation** — a *function* is tainted when a source (or a call
   to a tainted function, or a read of a tainted field) reaches its
   return value; a *field* is tainted when a tainted expression is
   assigned to it (``self.stage.wall_seconds = perf_counter() - t0``)
   or passed as its constructor keyword.  Both run to a joint fixpoint
   over the project call graph.  Fields are tracked by bare attribute
   name — coarse, but exactly right for the handful of wall-clock
   fields (``wall_seconds``, ``lock_wait_seconds``) that must never
   cross into a digest.  Values passed *into* a call carry
   ``arg:<callee>:``-tagged tokens; when the callee is itself a sink
   (audited internally), the call acts as a taint **barrier** — passing
   a partly-tainted report into ``run_digest`` does not taint the
   hash, because the fields the hash actually reads are checked inside
   the sink's own body.

3. **Sinks** — functions whose name contains ``digest`` plus the serve
   totals surface (:data:`SINK_QUALNAMES`).  Inside a sink, any direct
   source use, any read of a tainted field, and any call into a tainted
   function is a violation.  Separately, every ``BENCH_*`` payload
   (string-keyed dict literals under ``benchmarks/``) may only carry
   taint in the explicit wall-clock whitelist
   (:data:`BENCH_WALL_WHITELIST`) — benchmarks *should* measure wall
   time, but only under names that say so.

Reporting surfaces that are allowed to show wall-clock numbers
(``stage_summary``'s latency buckets) are simply not sinks; the rule is
about the deterministic contract, not about banning clocks.
"""

from __future__ import annotations

from typing import Iterator

from tools.reprolint.callgraph import FuncRef, SymbolTable
from tools.reprolint.engine import Violation
from tools.reprolint.facts import FileFacts, FunctionFacts, split_arg_token
from tools.reprolint.project import Project

CODE = "R010"
SUMMARY = (
    "determinism taint: nondeterminism sources must not reach digest/"
    "totals sinks or non-whitelisted BENCH_* fields"
)

#: Exact qualnames that are sinks besides any ``*digest*`` function.
#: ``StreamMetrics.summary`` is the serve totals surface — the numbers
#: asserted bit-identical across worker counts.
SINK_QUALNAMES = frozenset({"StreamMetrics.summary"})

#: BENCH_* payload keys allowed to carry wall-clock taint.  The name
#: must say "wall" — a reader of BENCH_serve.json can then tell at a
#: glance which numbers are machine-dependent.
BENCH_WALL_WHITELIST = frozenset({"wall_seconds", "wall_qps", "wall_speedup"})


def _is_sink(func: FunctionFacts) -> bool:
    return "digest" in func.name or func.qualname in SINK_QUALNAMES


class _Taint:
    """Joint tainted-functions / tainted-fields fixpoint."""

    def __init__(self, symbols: SymbolTable) -> None:
        self.symbols = symbols
        self.functions: set[FuncRef] = set()
        self.fields: set[str] = set()

    def _is_barrier(
        self, callee: str, func: FunctionFacts, path: str
    ) -> bool:
        """Audited sink functions stop argument taint at call sites.

        ``digest = run_digest(serve, ...)`` passes the whole (partly
        wall-clock-tainted) report in, but ``run_digest`` projects
        only deterministic fields out — and because it *is* a sink, any
        tainted field it actually reads is flagged inside its own body
        by :func:`_check_sinks`.  Treating such calls as barriers keeps
        argument flow conservative everywhere else while not smearing
        whole-object taint over deliberately deterministic hashes.
        """
        refs = self.symbols.resolve_call(callee, func, path)
        return bool(refs) and all(
            _is_sink(self.symbols.functions[ref]) for ref in refs
        )

    def token_tainted(
        self, token: str, func: FunctionFacts, path: str
    ) -> bool:
        callees, base = split_arg_token(token)
        if any(self._is_barrier(c, func, path) for c in callees):
            return False
        if base == "nondet":
            return True
        if base.startswith("attr:"):
            return base[len("attr:") :] in self.fields
        if base.startswith("call:"):
            callee = base[len("call:") :]
            return any(
                ref in self.functions
                for ref in self.symbols.resolve_call(callee, func, path)
            )
        return False

    def any_tainted(
        self, tokens: tuple[str, ...], func: FunctionFacts, path: str
    ) -> bool:
        return any(self.token_tainted(t, func, path) for t in tokens)

    def run(self) -> None:
        changed = True
        while changed:
            changed = False
            for ref in sorted(self.symbols.functions):
                func = self.symbols.functions[ref]
                if ref not in self.functions and self.any_tainted(
                    func.return_tokens, func, ref.path
                ):
                    self.functions.add(ref)
                    changed = True
                for attr, tokens in func.attr_taints:
                    if attr not in self.fields and self.any_tainted(
                        tokens, func, ref.path
                    ):
                        self.fields.add(attr)
                        changed = True
                for kw in func.kw_taints:
                    # Constructor keyword -> dataclass field.  Only
                    # project classes count; f(timeout=...) on stdlib
                    # calls must not poison a field name.
                    if kw.keyword in self.fields:
                        continue
                    terminal = kw.callee.rsplit(".", 1)[-1]
                    if terminal not in self.symbols.classes:
                        continue
                    if self.any_tainted(kw.tokens, func, ref.path):
                        self.fields.add(kw.keyword)
                        changed = True


def _check_sinks(repro: Project, taint: _Taint) -> Iterator[Violation]:
    symbols = repro.symbols
    for ref in sorted(symbols.functions):
        func = symbols.functions[ref]
        if not _is_sink(func):
            continue
        for use in func.nondet:
            yield Violation(
                path=ref.path,
                line=use.line,
                col=0,
                code=CODE,
                message=(
                    f"nondeterminism source {use.detail} used directly in "
                    f"digest/totals sink {func.qualname}; digests must be "
                    f"pure functions of (workload, seed, config)"
                ),
            )
        for attr, line in func.attr_reads:
            if attr in taint.fields:
                yield Violation(
                    path=ref.path,
                    line=line,
                    col=0,
                    code=CODE,
                    message=(
                        f"wall-clock-tainted field '{attr}' read in "
                        f"digest/totals sink {func.qualname}; taint "
                        f"reaches the deterministic digest"
                    ),
                )
        for call in func.calls:
            tainted = [
                target
                for target in symbols.resolve_call(call.callee, func, ref.path)
                if target in taint.functions
            ]
            if tainted:
                names = ", ".join(
                    sorted(symbols.functions[t].qualname for t in tainted)
                )
                yield Violation(
                    path=ref.path,
                    line=call.line,
                    col=0,
                    code=CODE,
                    message=(
                        f"digest/totals sink {func.qualname} calls "
                        f"nondeterminism-tainted function(s) {names}"
                    ),
                )


def _is_benchmark(facts: FileFacts) -> bool:
    return "benchmarks" in facts.path.replace("\\", "/").split("/")


def _check_bench(project: Project, taint: _Taint) -> Iterator[Violation]:
    for facts in project.files:
        if not _is_benchmark(facts):
            continue
        for func in facts.functions:
            for entry in func.dict_taints:
                if entry.key in BENCH_WALL_WHITELIST:
                    continue
                if taint.any_tainted(entry.tokens, func, facts.path):
                    yield Violation(
                        path=facts.path,
                        line=entry.line,
                        col=0,
                        code=CODE,
                        message=(
                            f"benchmark field '{entry.key}' carries "
                            f"wall-clock/nondeterminism taint but is not in "
                            f"the wall-clock whitelist "
                            f"({', '.join(sorted(BENCH_WALL_WHITELIST))}); "
                            f"rename it wall_* or derive it from modelled "
                            f"costs"
                        ),
                    )


def check_project(project: Project) -> Iterator[Violation]:
    repro = project.repro_only()
    taint = _Taint(repro.symbols)
    taint.run()
    yield from _check_sinks(repro, taint)
    yield from _check_bench(project, taint)
