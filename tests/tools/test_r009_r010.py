"""R010 (determinism taint) fire/no-fire."""

from __future__ import annotations

from tools.reprolint.engine import lint_source, lint_sources
from tools.reprolint.rules import r010_taint


def _codes(violations):
    return [v.code for v in violations]


def _r010(source, path="src/repro/mod.py"):
    return lint_source(source, path=path, rules=(r010_taint,))


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
