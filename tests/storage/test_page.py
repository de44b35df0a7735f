"""Tests for the packed fact-file page codec that the storage references
encode their pages with (``tests/reference/pages.py``)."""

import numpy as np
import pytest

from repro.exceptions import PageError
from repro.storage.record import RecordFormat
from tests.reference.pages import PackedPage


@pytest.fixture()
def codec():
    fmt = RecordFormat([("k", "i4"), ("v", "f8")])
    return PackedPage(fmt, page_size=256)


class TestPackedPage:
    def test_capacity(self, codec):
        assert codec.capacity == (256 - 4) // 12

    def test_roundtrip(self, codec):
        records = codec.record_format.from_tuples([(1, 2.0), (3, 4.0)])
        payload = codec.encode(records)
        back = codec.decode(payload)
        assert np.array_equal(back, records)
        assert payload[:4] == (2).to_bytes(4, "little")  # record count

    def test_empty_page(self, codec):
        payload = codec.encode(codec.record_format.empty())
        assert payload == bytes(4)
        assert len(codec.decode(payload)) == 0

    def test_overfull_rejected(self, codec):
        records = codec.record_format.empty(codec.capacity + 1)
        with pytest.raises(PageError):
            codec.encode(records)

    def test_corrupt_count_rejected(self, codec):
        with pytest.raises(PageError):
            codec.decode(b"\xff\xff\xff\xff" + b"\x00" * 100)

    def test_truncated_header_rejected(self, codec):
        with pytest.raises(PageError):
            codec.decode(b"\x01")

