"""Fixed-length record formats with a numpy bridge.

The fact table of a star schema has a rigid layout: one integer foreign key
per dimension plus one numeric column per measure.  :class:`RecordFormat`
describes such a layout once and converts between four representations:

- Python tuples (convenient in tests and examples),
- packed bytes (what pages store),
- numpy structured arrays (what loads take and aggregations return), and
- :class:`Columns`, one contiguous array per field (what record files
  read and the aggregation operators consume).

Packing many records is a single ``ndarray.tobytes`` call and unpacking is
a single ``np.frombuffer`` call, so the simulated backend stays fast enough
to run the paper's full 500 000-tuple experiments in pure Python.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from repro.exceptions import FileFormatError
from repro.schema.star import StarSchema

__all__ = [
    "Columns",
    "RecordFormat",
    "concatenate_records",
    "fact_record_format",
    "groupby_record_format",
]


class RecordFormat:
    """A fixed-length record layout.

    Args:
        fields: ``(name, dtype)`` pairs; dtypes are numpy scalar dtype
            strings such as ``"i4"`` or ``"f8"``.  Field names must be
            unique and non-empty.
    """

    def __init__(self, fields: Sequence[tuple[str, str]]) -> None:
        if not fields:
            raise FileFormatError("a record format needs at least one field")
        names = [name for name, _ in fields]
        if len(set(names)) != len(names) or not all(names):
            raise FileFormatError(f"field names must be unique and non-empty: {names}")
        self.fields: tuple[tuple[str, str], ...] = tuple(fields)
        self.dtype = np.dtype([(name, dt) for name, dt in self.fields])
        self.record_size: int = self.dtype.itemsize

    @property
    def field_names(self) -> tuple[str, ...]:
        """Field names in layout order."""
        return self.dtype.names  # type: ignore[return-value]

    def records_per_page(self, page_size: int, header_size: int = 0) -> int:
        """How many records fit in one page after ``header_size`` bytes."""
        usable = page_size - header_size
        count = usable // self.record_size
        if count < 1:
            raise FileFormatError(
                f"record of {self.record_size} bytes does not fit in a "
                f"{page_size}-byte page with a {header_size}-byte header"
            )
        return count

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def empty(self, count: int = 0) -> np.ndarray:
        """An empty (or zeroed) structured array of this format."""
        return np.zeros(count, dtype=self.dtype)

    def from_tuples(self, rows: Sequence[tuple[object, ...]]) -> np.ndarray:
        """Build a structured array from Python tuples."""
        return np.array([tuple(row) for row in rows], dtype=self.dtype)

    def to_tuples(self, records: np.ndarray) -> list[tuple[object, ...]]:
        """Convert a structured array back to plain Python tuples."""
        return [tuple(rec.item()) for rec in records]

    def pack(self, records: np.ndarray) -> bytes:
        """Serialize a structured array to packed bytes."""
        if records.dtype != self.dtype:
            raise FileFormatError(
                f"array dtype {records.dtype} does not match format "
                f"{self.dtype}"
            )
        return records.tobytes()

    def unpack(self, payload: bytes, count: int | None = None) -> np.ndarray:
        """Deserialize packed bytes into a structured array.

        Args:
            payload: Bytes produced by :meth:`pack`, possibly followed by
                padding.
            count: Number of records to read; defaults to as many whole
                records as the payload holds.
        """
        if count is None:
            count = len(payload) // self.record_size
        needed = count * self.record_size
        if needed > len(payload):
            raise FileFormatError(
                f"payload of {len(payload)} bytes holds fewer than "
                f"{count} records of {self.record_size} bytes"
            )
        array = np.frombuffer(payload[:needed], dtype=self.dtype)
        # Copy so the result does not alias the (immutable) page buffer.
        return array.copy()

    def concatenate(self, parts: Sequence[np.ndarray]) -> np.ndarray:
        """Join arrays of this format end to end
        (:func:`concatenate_records` held to this format's dtype)."""
        return concatenate_records(parts, self.dtype)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RecordFormat) and self.fields == other.fields

    def __hash__(self) -> int:
        return hash(self.fields)

    def __repr__(self) -> str:
        parts = ", ".join(f"{n}:{d}" for n, d in self.fields)
        return f"RecordFormat({parts})"


def concatenate_records(
    parts: Sequence[np.ndarray], dtype: np.dtype | None = None
) -> np.ndarray:
    """Join same-dtype structured arrays end to end, as opaque records.

    ``np.concatenate`` on structured arrays re-derives the common dtype
    once per part in Python and copies field by field; parts that share
    a dtype are fixed-width byte strings to one another, which copy an
    order of magnitude faster.  ``dtype`` defaults to the first part's;
    a part of any other dtype is rejected, never promoted.
    """
    if dtype is None:
        dtype = parts[0].dtype
    raw = _opaque_dtype(dtype.itemsize)
    views = []
    for part in parts:
        if part.dtype != dtype:
            raise FileFormatError(
                f"array dtype {part.dtype} does not match record dtype "
                f"{dtype}"
            )
        views.append(part.view(raw))
    return np.concatenate(views).view(dtype)


@lru_cache(maxsize=None)
def _opaque_dtype(itemsize: int) -> np.dtype:
    """The fixed-width byte-string dtype of ``itemsize``-byte records
    (one per record width; building it costs as much as the join of two
    small chunks)."""
    return np.dtype((np.void, itemsize))


class Columns:
    """Records of one format held as one contiguous array per field,
    each in the field's own dtype.

    ``columns[name]`` and ``len(columns)`` read like a structured
    array's, so code that only reads fields takes either.  Every field
    is read-only.

    Args:
        dtype: The structured record dtype the columns stand for.
        length: Rows.
        arrays: One array of ``length`` rows per field of ``dtype``.
    """

    __slots__ = ("dtype", "names", "_length", "_arrays")

    def __init__(
        self, dtype: np.dtype, length: int, arrays: dict[str, np.ndarray]
    ) -> None:
        if dtype.names is None:
            raise FileFormatError(f"columns need a structured dtype, not {dtype}")
        self.dtype = dtype
        self.names: tuple[str, ...] = dtype.names
        self._length = length
        self._arrays = arrays

    @classmethod
    def from_records(cls, records: np.ndarray) -> "Columns":
        """Read-only columns copied out of a structured array."""
        return cls._build(records.dtype, lambda name: np.array(records[name]))

    def __getitem__(self, name: str) -> np.ndarray:
        return self._arrays[name]

    def __len__(self) -> int:
        return self._length

    def spans(self, bounds: Sequence[tuple[int, int]]) -> "Columns":
        """The rows of each ``(start, stop)`` of ``bounds`` in turn: a
        view of each field for one span, one ``np.concatenate`` per
        field otherwise."""
        if len(bounds) == 1:
            ((start, stop),) = bounds
            return self._build(self.dtype, lambda name: self[name][start:stop])
        return self._build(
            self.dtype,
            lambda name: np.concatenate(
                [self[name][start:stop] for start, stop in bounds]
                or [self[name][:0]]
            )
        )

    def take(self, positions: np.ndarray) -> "Columns":
        """The rows at ``positions``, every field copied."""
        return self._build(self.dtype, lambda name: self[name].take(positions))

    def compress(self, mask: np.ndarray) -> "Columns":
        """The rows where ``mask`` is true, every field copied."""
        return self._build(self.dtype, lambda name: self[name].compress(mask))

    def append(self, records: np.ndarray) -> "Columns":
        """These rows followed by those of a structured array of the
        same dtype, every field copied once."""
        if records.dtype != self.dtype:
            raise FileFormatError(
                f"array dtype {records.dtype} does not match {self.dtype}"
            )
        return self._build(
            self.dtype,
            lambda name: np.concatenate([self[name], records[name]]),
        )

    @staticmethod
    def concatenate(parts: Sequence["Columns"]) -> "Columns":
        """Columns of one dtype joined end to end, every field copied
        (one part is returned as it is)."""
        dtype = parts[0].dtype
        for part in parts:
            if part.dtype != dtype:
                raise FileFormatError(
                    f"columns of dtype {part.dtype} do not match {dtype}"
                )
        if len(parts) == 1:
            return parts[0]
        return Columns._build(
            dtype, lambda name: np.concatenate([part[name] for part in parts])
        )

    @classmethod
    def _build(
        cls, dtype: np.dtype, field: Callable[[str], np.ndarray]
    ) -> "Columns":
        """Columns of ``dtype`` whose every field is ``field(name)``,
        made read-only."""
        arrays = {}
        for name in dtype.names or ():
            column = field(name)
            column.flags.writeable = False
            arrays[name] = column
        return cls(dtype, len(column), arrays)

    def to_records(self) -> np.ndarray:
        """The rows as a structured array of :attr:`dtype` (a copy)."""
        records = np.empty(self._length, dtype=self.dtype)
        for name in self.names:
            records[name] = self[name]
        return records


def fact_record_format(schema: StarSchema, key_dtype: str = "i4") -> RecordFormat:
    """The record format of a schema's base fact table.

    One ``key_dtype`` foreign-key column per dimension (holding the
    leaf-level ordinal) followed by one column per measure.
    """
    fields = [(dim.name, key_dtype) for dim in schema.dimensions]
    fields.extend((m.name, m.dtype) for m in schema.measures)
    return RecordFormat(fields)


def groupby_record_format(
    schema: StarSchema,
    groupby: Sequence[int],
    aggregates: Sequence[tuple[str, str]] | None = None,
    key_dtype: str = "i4",
) -> RecordFormat:
    """The record format of an aggregated (group-by) result.

    One ordinal column per *retained* dimension (level > 0), named after the
    dimension, followed by one column per aggregate output.

    Args:
        schema: The star schema.
        groupby: Level per dimension; level 0 dimensions are dropped.
        aggregates: ``(measure_name, aggregate)`` pairs; defaults to each
            measure with its default aggregate.  Output columns are named
            ``"<agg>_<measure>"``; ``avg`` additionally implies a hidden
            ``count`` column is NOT added here — averages are finalized by
            the aggregation operator (see :mod:`repro.backend.aggregate`).
    """
    groupby = schema.validate_groupby(groupby)
    fields = [
        (dim.name, key_dtype)
        for dim, level in zip(schema.dimensions, groupby)
        if level > 0
    ]
    if aggregates is None:
        aggregates = [(m.name, m.default_aggregate) for m in schema.measures]
    for measure_name, aggregate in aggregates:
        measure = schema.measure(measure_name)
        dtype = "i8" if aggregate == "count" else measure.dtype
        if aggregate == "avg":
            dtype = "f8"
        fields.append((f"{aggregate}_{measure_name}", dtype))
    return RecordFormat(fields)
