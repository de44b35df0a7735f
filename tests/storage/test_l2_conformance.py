"""The in-tree L2 backend passes the conformance battery.

The battery itself lives in :mod:`tests.storage.l2_contract`; the
class below binds it to the one implementation.  Another backend earns
its place the same way: subclass :class:`L2ContractBattery` and
implement ``make_backend`` (``docs/TIERING.md`` §Backends).
"""

from repro.storage.chunklog import ChunkLog

from tests.storage.l2_contract import PAGE, L2ContractBattery


class TestChunkLogConformance(L2ContractBattery):
    """The append-only checksummed log."""

    def make_backend(self, path=None):
        return ChunkLog(path, page_size=PAGE)
