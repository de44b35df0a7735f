"""The static lock-order graph is pinned as a golden artifact.

``tests/tools/lockorder.txt`` is the contract between the static
analyzer (R009 derives it), the runtime witness (the tier-1 soak
asserts its observed edges are a subset of it), and the human reader
(DESIGN.md documents the shard -> accounting and estimator -> engine
orders).  If an intentional locking change moves the graph, regenerate
the file with ``python -m tools.reprolint --dump-lockorder src`` and
review the diff like any other API change.
"""

from __future__ import annotations

from pathlib import Path

from tools.reprolint.engine import run_lint
from tools.reprolint.project import Project
from tools.reprolint.rules.r009_lockorder import derive_lock_graph

REPO = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).with_name("lockorder.txt")


def test_static_graph_matches_golden():
    result = run_lint([REPO / "src"])
    graph = derive_lock_graph(Project(result.files))
    expected = tuple(GOLDEN.read_text().splitlines())
    assert graph.edge_lines() == expected


def test_documented_orders_are_pinned():
    # The two documented orders must never silently drop out of the
    # golden file — they are what R009 checks contradictions against.
    lines = GOLDEN.read_text().splitlines()
    assert "shard -> accounting" in lines
    assert "estimator -> engine" in lines


def test_tiering_orders_are_pinned():
    # The two-tier cache's locking discipline: an L1 eviction spills
    # under the shard lock (shard -> tiered -> l2), and the transitive
    # shard -> l2 edge is declared alongside it.
    lines = GOLDEN.read_text().splitlines()
    assert "shard -> tiered" in lines
    assert "tiered -> l2" in lines
    assert "shard -> l2" in lines
