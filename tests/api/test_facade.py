"""The facade's lifetime contract: closing a stack, a rejected
configuration that opens nothing, and a cheap import.

``Stack.close()`` is the one cache-closing path (the soak/front job
runners go through it too); importing the serving stack must not pull
in process machinery — there is one execution mode, threads over one
backend engine (``docs/SERVING.md``, "Why there is no process mode").
"""

import contextlib
import dataclasses
import gc
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from repro.api import StackConfig, build_cache, build_stack
from repro.core.chunk import ChunkKey
from repro.core.tiered import TieredChunkCache, chunk_token
from repro.exceptions import StackError
from repro.storage.chunklog import CHUNKLOG_MAGIC, ChunkLog

SRC = Path(__file__).resolve().parents[2] / "src"


class TestStackClose:
    def test_stack_close_is_idempotent(self, small_schema, small_records):
        stack = build_stack(small_schema, small_records)
        stack.close()  # 1-tier: nothing to close, twice
        stack.close()


@contextlib.contextmanager
def no_unclosed_files():
    """Fail on a ResourceWarning from the block or from collecting what
    it left behind (what ``-W error::ResourceWarning`` would trip on)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        yield
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


class TestRejectedTierConfig:
    @pytest.mark.parametrize(
        "name, value",
        [
            ("compact_threshold", 2.0),
            ("compact_threshold", 0.0),
            ("demote_min_benefit", -1.0),
            ("l2_budget_bytes", -5),
            ("cache_bytes", -1),
        ],
    )
    def test_rejected_before_anything_is_opened(self, tmp_path, name, value):
        path = tmp_path / "chunklog.bin"
        config = StackConfig(
            cache_tiers=2, persist_path=str(path), **{name: value}
        )
        with no_unclosed_files(), pytest.raises(StackError, match=name):
            build_cache(config)
        assert not path.exists()

    @pytest.mark.parametrize(
        "version, page_size, refusal",
        [(2, 4096, "format v2"), (1, 512, "page_size=512")],
    )
    def test_a_log_the_store_refuses_is_a_stack_error(
        self, tmp_path, version, page_size, refusal
    ):
        path = tmp_path / "chunklog.bin"
        header = struct.pack("<4sHI6x", CHUNKLOG_MAGIC, version, page_size)
        path.write_bytes(header)
        config = StackConfig(cache_tiers=2, persist_path=str(path))
        with no_unclosed_files(), pytest.raises(StackError) as refused:
            build_cache(config)
        assert str(path) in str(refused.value)
        assert refusal in str(refused.value)
        assert path.read_bytes() == header

    def test_failed_warm_start_closes_the_log(self, tmp_path, monkeypatch):
        path = str(tmp_path / "chunklog.bin")
        log = ChunkLog(path)
        key = ChunkKey((1, 1), 0, (("v", "sum"),), frozenset())
        log.put(chunk_token(key), b"payload", 1.0)
        log.close()

        def failing_reopen(self):
            raise RuntimeError("warm start failed")

        monkeypatch.setattr(TieredChunkCache, "reopen", failing_reopen)
        with no_unclosed_files(), pytest.raises(RuntimeError, match="warm"):
            build_cache(StackConfig(cache_tiers=2, persist_path=path))


def test_stack_config_has_no_l2_backend_or_miss_path_option():
    names = {field.name for field in dataclasses.fields(StackConfig)}
    assert names.isdisjoint({"l2_backend", "miss_path"})


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
