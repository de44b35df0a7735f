"""The facade's lifetime contract: closing a stack, and a cheap import.

``Stack.close()`` is the one cache-closing path (the soak/front job
runners go through it too); importing the serving stack must not pull
in process machinery — there is one execution mode, threads over one
backend engine (``docs/SERVING.md``, "Why there is no process mode").
"""

import os
import subprocess
import sys
from pathlib import Path

from repro.api import build_stack

SRC = Path(__file__).resolve().parents[2] / "src"


class TestStackClose:
    def test_stack_close_is_idempotent(self, small_schema, small_records):
        stack = build_stack(small_schema, small_records)
        stack.close()  # 1-tier: nothing to close, twice
        stack.close()


def test_importing_the_serving_stack_leaves_multiprocessing_out():
    done = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro.serve, repro.api; "
            "print('multiprocessing' in sys.modules)",
        ],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
