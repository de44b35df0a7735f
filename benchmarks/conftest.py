"""Shared fixture of the serving benchmarks (``test_bench_serve.py``,
``test_bench_front.py``): each writes its deterministic payload to
``BENCH_<name>.json`` at the repo root.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).parent.parent


@pytest.fixture(scope="session")
def record_json():
    """Write a machine-readable benchmark payload at the repo root.

    ``record_json("serve", payload)`` produces ``BENCH_serve.json`` —
    the artifact CI and throughput-tracking dashboards consume.
    """

    def _record(name: str, payload: dict) -> Path:
        path = REPO_ROOT / f"BENCH_{name}.json"
        path.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return path

    return _record
