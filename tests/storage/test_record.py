"""Tests for repro.storage.record."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st


from repro.exceptions import FileFormatError
from repro.storage import record
from repro.storage.record import (
    Columns,
    RecordFormat,
    concatenate_records,
    fact_record_format,
    groupby_record_format,
)


@pytest.fixture()
def fmt():
    return RecordFormat([("a", "i4"), ("b", "i4"), ("x", "f8")])


class TestRecordFormat:
    def test_size_and_names(self, fmt):
        assert fmt.record_size == 16
        assert fmt.field_names == ("a", "b", "x")

    def test_empty_fields_rejected(self):
        with pytest.raises(FileFormatError):
            RecordFormat([])

    def test_duplicate_names_rejected(self):
        with pytest.raises(FileFormatError):
            RecordFormat([("a", "i4"), ("a", "f8")])

    def test_records_per_page(self, fmt):
        assert fmt.records_per_page(160) == 10
        assert fmt.records_per_page(160, header_size=16) == 9

    def test_record_too_big_for_page(self, fmt):
        with pytest.raises(FileFormatError):
            fmt.records_per_page(12)

    def test_tuple_roundtrip(self, fmt):
        rows = [(1, 2, 3.5), (4, 5, 6.25)]
        array = fmt.from_tuples(rows)
        assert fmt.to_tuples(array) == rows

    def test_pack_unpack_roundtrip(self, fmt):
        array = fmt.from_tuples([(1, 2, 3.0), (7, 8, 9.0)])
        payload = fmt.pack(array)
        assert len(payload) == 2 * fmt.record_size
        back = fmt.unpack(payload)
        assert np.array_equal(back, array)

    def test_unpack_with_padding_and_count(self, fmt):
        array = fmt.from_tuples([(1, 2, 3.0)])
        payload = fmt.pack(array) + b"\x00" * 7
        back = fmt.unpack(payload, count=1)
        assert back["a"][0] == 1

    def test_unpack_count_too_large(self, fmt):
        with pytest.raises(FileFormatError):
            fmt.unpack(b"\x00" * 8, count=1)

    def test_pack_wrong_dtype_rejected(self, fmt):
        wrong = np.zeros(1, dtype=[("a", "i8")])
        with pytest.raises(FileFormatError):
            fmt.pack(wrong)

    def test_unpack_result_is_writable_copy(self, fmt):
        array = fmt.from_tuples([(1, 2, 3.0)])
        back = fmt.unpack(fmt.pack(array))
        back["a"][0] = 99  # must not raise

    def test_concatenate_matches_numpy(self, fmt):
        array = fmt.from_tuples([(i, -i, i * 0.5) for i in range(20)])
        parts = [array[12:], array[:0], array[3:7], array[::2]]
        joined = fmt.concatenate(parts)
        assert joined.dtype == fmt.dtype
        assert np.array_equal(joined, np.concatenate(parts))
        assert not np.shares_memory(joined, array)

    def test_concatenate_wrong_dtype_rejected(self, fmt):
        wrong = np.zeros(2, dtype=[("a", "i4"), ("b", "i4"), ("x", "i8")])
        with pytest.raises(FileFormatError):
            fmt.concatenate([fmt.empty(2), wrong])

    def test_concatenate_records_takes_the_first_parts_dtype(self, fmt):
        array = fmt.from_tuples([(i, -i, i * 0.5) for i in range(20)])
        parts = [array[12:], array[:0], array[3:7], array[::2]]
        joined = concatenate_records(parts)
        assert joined.dtype == fmt.dtype
        assert joined.tobytes() == np.concatenate(parts).tobytes()
        assert not np.shares_memory(joined, array)
        # Same width, other meaning: rejected, not reinterpreted.
        wrong = np.zeros(2, dtype=[("a", "i4"), ("b", "i4"), ("x", "i8")])
        with pytest.raises(FileFormatError):
            concatenate_records([array, wrong])

    def test_equality_and_hash(self, fmt):
        same = RecordFormat([("a", "i4"), ("b", "i4"), ("x", "f8")])
        other = RecordFormat([("a", "i8")])
        assert fmt == same and hash(fmt) == hash(same)
        assert fmt != other

    @given(
        st.lists(
            st.tuples(
                st.integers(-(2**31), 2**31 - 1),
                st.integers(-(2**31), 2**31 - 1),
                st.floats(allow_nan=False, allow_infinity=False, width=32),
            ),
            max_size=50,
        )
    )
    def test_roundtrip_property(self, rows):
        fmt = RecordFormat([("a", "i4"), ("b", "i4"), ("x", "f8")])
        array = fmt.from_tuples(rows)
        assert np.array_equal(fmt.unpack(fmt.pack(array)), array)


class TestSchemaFormats:
    def test_fact_record_format(self, small_schema):
        fmt = fact_record_format(small_schema)
        assert fmt.field_names == ("D0", "D1", "v")
        assert fmt.record_size == 4 + 4 + 8

    def test_groupby_format_drops_all_dims(self, small_schema):
        fmt = groupby_record_format(small_schema, (1, 0))
        assert fmt.field_names == ("D0", "sum_v")

    def test_groupby_format_aggregate_dtypes(self, small_schema):
        fmt = groupby_record_format(
            small_schema,
            (1, 1),
            aggregates=[("v", "count"), ("v", "avg"), ("v", "min")],
        )
        assert fmt.dtype["count_v"] == np.dtype("i8")
        assert fmt.dtype["avg_v"] == np.dtype("f8")
        assert fmt.dtype["min_v"] == np.dtype("f8")


class TestColumns:
    @pytest.fixture()
    def records(self, fmt):
        records = fmt.empty(10)
        records["a"] = np.arange(10)
        records["b"] = np.arange(10) * 3
        records["x"] = np.arange(10) / 4
        return records

    def test_round_trip_through_columns(self, records):
        columns = Columns.from_records(records)
        assert len(columns) == 10
        assert columns.dtype == records.dtype
        assert columns.to_records().tobytes() == records.tobytes()

    def test_every_field_is_a_contiguous_read_only_copy(self, records):
        columns = Columns.from_records(records)
        for name in records.dtype.names:
            assert columns[name].dtype == records.dtype[name]
            assert columns[name].flags.c_contiguous
            assert not columns[name].flags.writeable
        records["a"] = -1  # the columns are a copy
        assert columns["a"].tolist() == list(range(10))

    def test_unknown_field_is_a_key_error(self, records):
        columns = Columns.from_records(records)
        with pytest.raises(KeyError):
            columns["nope"]
        with pytest.raises(KeyError):
            columns.spans([(0, 2), (4, 5)])["nope"]

    def test_one_span_is_a_view(self, records):
        columns = Columns.from_records(records)
        part = columns.spans([(2, 6)])
        assert len(part) == 4
        assert part["b"].tolist() == [6, 9, 12, 15]
        assert np.shares_memory(part["b"], columns["b"])

    def test_several_spans_join_every_field(self, records):
        columns = Columns.from_records(records)
        joined = columns.spans([(0, 2), (5, 5), (7, 9)])
        assert len(joined) == 4
        for name in records.dtype.names:
            assert joined[name].flags.c_contiguous
            assert not joined[name].flags.writeable
            assert not np.shares_memory(joined[name], columns[name])
        assert joined.to_records().tobytes() == records[[0, 1, 7, 8]].tobytes()
        assert len(columns.spans([])) == 0
        assert columns.spans([])["x"].dtype == np.float64

    def test_append_copies_each_field_once(self, records):
        columns = Columns.from_records(records[:4])
        with mock.patch.object(
            record.np, "concatenate", wraps=np.concatenate
        ) as join:
            longer = columns.append(records[4:])
        assert join.call_count == len(records.dtype.names)
        assert longer.to_records().tobytes() == records.tobytes()
        assert not longer["b"].flags.writeable
        with pytest.raises(FileFormatError):
            columns.append(records[["a", "b"]])

    def test_take_and_compress_copy_every_field(self, records):
        columns = Columns.from_records(records)
        taken = columns.take(np.array([9, 0, 4]))
        assert taken.to_records().tobytes() == records[[9, 0, 4]].tobytes()
        mask = records["a"] % 3 == 0
        kept = columns.compress(mask)
        assert kept.to_records().tobytes() == records[mask].tobytes()
        assert not kept["x"].flags.writeable

    def test_concatenate(self, fmt, records):
        columns = Columns.from_records(records)
        assert Columns.concatenate([columns]) is columns
        both = Columns.concatenate([columns, columns.spans([(0, 3)])])
        assert len(both) == 13
        assert both["b"].tolist() == records["b"].tolist() + [0, 3, 6]
        other = Columns.from_records(np.zeros(2, dtype=[("a", "i4")]))
        with pytest.raises(FileFormatError):
            Columns.concatenate([columns, other])
