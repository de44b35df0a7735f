"""R009 (lock discipline) and R010 (determinism taint) fire/no-fire."""

from __future__ import annotations

import ast

from tools.reprolint.engine import lint_source, lint_sources
from tools.reprolint.facts import extract_facts
from tools.reprolint.project import Project
from tools.reprolint.rules import r009_lockorder, r010_taint


def _codes(violations):
    return [v.code for v in violations]


def _r009(source, path="src/repro/serve/mod.py"):
    return lint_source(source, path=path, rules=(r009_lockorder,))


def _r010(source, path="src/repro/mod.py"):
    return lint_source(source, path=path, rules=(r010_taint,))


class TestLockOrderGraph:
    TWO_LOCKS = (
        "import threading\n"
        "class CacheShard:\n"
        "    def __init__(self):\n"
        "        self.lock = threading.Lock()\n"
        "class ShardedChunkCache:\n"
        "    def __init__(self):\n"
        "        self._accounting_lock = threading.Lock()\n"
        "        self._shard = CacheShard()\n"
    )

    def test_documented_order_passes(self):
        source = self.TWO_LOCKS + (
            "    def ok(self):\n"
            "        with self._shard.lock:\n"
            "            with self._accounting_lock:\n"
            "                pass\n"
        )
        assert _r009(source) == []

    def test_contradicting_documented_order_fires(self):
        source = self.TWO_LOCKS + (
            "    def bad(self):\n"
            "        with self._accounting_lock:\n"
            "            with self._shard.lock:\n"
            "                pass\n"
        )
        codes = _codes(_r009(source))
        assert "R009" in codes

    def test_cycle_between_auto_levels_fires(self):
        source = (
            "import threading\n"
            "class A:\n"
            "    def __init__(self):\n"
            "        self._la = threading.Lock()\n"
            "    def fwd(self, b):\n"
            "        with self._la:\n"
            "            with b._lb:\n"
            "                pass\n"
            "class B:\n"
            "    def __init__(self):\n"
            "        self._lb = threading.Lock()\n"
            "    def rev(self, a):\n"
            "        with self._lb:\n"
            "            with a._la:\n"
            "                pass\n"
        )
        messages = [v.message for v in _r009(source)]
        assert any("cycle" in m for m in messages)

    def test_transitive_edge_through_call(self):
        source = (
            "import threading\n"
            "class A:\n"
            "    def __init__(self):\n"
            "        self._la = threading.Lock()\n"
            "    def outer(self, b):\n"
            "        with self._la:\n"
            "            b.inner_hold()\n"
            "class B:\n"
            "    def __init__(self):\n"
            "        self._lb = threading.Lock()\n"
            "    def inner_hold(self):\n"
            "        with self._lb:\n"
            "            pass\n"
            "    def rev(self, a):\n"
            "        with self._lb:\n"
            "            with a._la:\n"
            "                pass\n"
        )
        # outer->inner via the call plus the explicit reverse nesting
        # closes a cycle even though no single function nests both ways.
        messages = [v.message for v in _r009(source)]
        assert any("cycle" in m for m in messages)


class TestGuardedState:
    LOCKED_CLASS = (
        "import threading\n"
        "class Session:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self._count = 0\n"
    )

    def test_unlocked_write_fires(self):
        source = self.LOCKED_CLASS + (
            "    def bump(self):\n"
            "        self._count += 1\n"
        )
        assert _codes(_r009(source)) == ["R009"]

    def test_locked_write_passes(self):
        source = self.LOCKED_CLASS + (
            "    def bump(self):\n"
            "        with self._lock:\n"
            "            self._count += 1\n"
        )
        assert _r009(source) == []

    def test_init_writes_are_exempt(self):
        assert _r009(self.LOCKED_CLASS) == []

    def test_outside_serve_layer_not_checked(self):
        source = self.LOCKED_CLASS + (
            "    def bump(self):\n"
            "        self._count += 1\n"
        )
        assert _r009(source, path="src/repro/core/mod.py") == []

    @staticmethod
    def _serve_session(attrs):
        """A ``ServeSession`` whose ``run()`` rebinds ``attrs`` unlocked."""
        return (
            "import threading\n"
            "class ServeSession:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "    def run(self):\n"
        ) + "".join(f"        self.{attr} = 0\n" for attr in attrs)

    REGISTERED = tuple(
        waiver.attr
        for waiver in r009_lockorder.COORDINATOR_STATE
        if waiver.cls == "ServeSession"
    )

    def test_registered_coordinator_state_passes(self):
        assert _r009(self._serve_session(self.REGISTERED)) == []

    def test_stale_waiver_fires(self):
        # The class is in the analysed tree but one registered attribute
        # is no longer written unlocked: its waiver argues about nothing.
        gone, *kept = self.REGISTERED
        violations = _r009(self._serve_session(kept))
        assert _codes(violations) == ["R009"]
        assert "stale waiver" in violations[0].message
        assert f"ServeSession.{gone}" in violations[0].message

    def test_waiver_is_stale_once_every_write_holds_the_lock(self):
        gone, *kept = self.REGISTERED
        source = self._serve_session(kept) + (
            "        with self._lock:\n"
            f"            self.{gone} = 0\n"
        )
        messages = [v.message for v in _r009(source)]
        assert len(messages) == 1 and "stale waiver" in messages[0]

    def test_inline_waiver_with_reason_passes(self):
        source = self.LOCKED_CLASS + (
            "    def bump(self):\n"
            "        self._count += 1  # reprolint: ignore[R009] single-threaded test\n"
        )
        assert _r009(source) == []


class TestTaintSinks:
    def test_clock_in_digest_fires(self):
        source = (
            "import time\n"
            "def compute_digest():\n"
            "    return str(time.perf_counter())\n"
        )
        assert _codes(_r010(source)) == ["R010"]

    def test_deterministic_digest_passes(self):
        source = (
            "from hashlib import sha256\n"
            "def compute_digest(records):\n"
            "    return sha256(repr(records).encode()).hexdigest()\n"
        )
        assert _r010(source) == []

    def test_taint_propagates_through_call_chain(self):
        source = (
            "import time\n"
            "def wall():\n"
            "    return time.perf_counter()\n"
            "def middle():\n"
            "    return wall()\n"
            "def compute_digest():\n"
            "    return middle()\n"
        )
        assert "R010" in _codes(_r010(source))

    def test_tainted_field_read_in_digest_fires(self):
        source = (
            "import time\n"
            "class Trace:\n"
            "    def tick(self):\n"
            "        self.wall_seconds = time.perf_counter()\n"
            "def compute_digest(trace):\n"
            "    return trace.wall_seconds\n"
        )
        assert "R010" in _codes(_r010(source))

    def test_sibling_field_stays_clean(self):
        source = (
            "import time\n"
            "class Trace:\n"
            "    def tick(self):\n"
            "        self.wall_seconds = time.perf_counter()\n"
            "        self.pages = 3\n"
            "def compute_digest(trace):\n"
            "    return trace.pages\n"
        )
        assert _r010(source) == []

    def test_digest_call_is_a_barrier_for_arguments(self):
        # Passing a partly-tainted object INTO a digest function must
        # not taint the hash: the fields the digest reads are audited
        # inside its own (sink) body.
        sources = {
            "src/repro/serve/x.py": (
                "import time\n"
                "class Session:\n"
                "    def run(self):\n"
                "        self.wall_seconds = time.perf_counter()\n"
                "        return self\n"
                "def _x_digest(report):\n"
                "    return repr(report.pages)\n"
                "def drive(session):\n"
                "    report = session.run()\n"
                "    return Outcome(digest=_x_digest(report))\n"
                "class Outcome:\n"
                "    def __init__(self, digest):\n"
                "        self.digest = digest\n"
            ),
        }
        assert lint_sources(sources, rules=(r010_taint,)) == []

    def test_seeded_rng_passes(self):
        source = (
            "import random\n"
            "def compute_digest(seed):\n"
            "    return random.Random(seed).random()\n"
        )
        assert _r010(source) == []


class TestBenchFields:
    def test_non_whitelisted_tainted_field_fires(self):
        source = (
            "import time\n"
            "def run_row():\n"
            "    return {'throughput': time.perf_counter()}\n"
        )
        violations = _r010(source, path="benchmarks/test_bench_x.py")
        assert _codes(violations) == ["R010"]
        assert "throughput" in violations[0].message

    def test_wall_whitelist_passes(self):
        source = (
            "import time\n"
            "def run_row():\n"
            "    return {'wall_seconds': time.perf_counter()}\n"
        )
        assert _r010(source, path="benchmarks/test_bench_x.py") == []

    def test_untainted_field_passes(self):
        source = (
            "def run_row(report):\n"
            "    return {'pages_read': report.pages_read}\n"
        )
        assert _r010(source, path="benchmarks/test_bench_x.py") == []

    def test_outside_benchmarks_not_checked(self):
        source = (
            "import time\n"
            "def run_row():\n"
            "    return {'throughput': time.perf_counter()}\n"
        )
        assert _r010(source, path="src/repro/mod.py") == []


class TestDeriveLockGraph:
    def test_graph_matches_known_edges(self):
        source = TestLockOrderGraph.TWO_LOCKS + (
            "    def ok(self):\n"
            "        with self._shard.lock:\n"
            "            with self._accounting_lock:\n"
            "                pass\n"
        )
        facts = extract_facts(
            path="src/repro/serve/mod.py",
            module="repro.serve.mod",
            tree=ast.parse(source),
            suppressions=(),
        )
        graph = r009_lockorder.derive_lock_graph(Project((facts,)))
        assert "shard -> accounting" in graph.edge_lines()
