"""Struct-of-arrays record container.

A :class:`ColumnFrame` holds N records of one
:class:`~repro.frames.schema.RecordSchema` as per-field columns instead
of N dicts.  Every record carries exactly the schema's fields.  Values
are kept as python objects in per-column lists (the source of truth, so
a reconstructed row is exactly what was appended — same objects for
nested values, bit-identical scalars) and materialize on demand into
read-only numpy arrays for query evaluation and batch feature
extraction: non-nullable ``float``/``int``/``bool`` fields as
``float64``/``int64``/``bool_`` columns, everything else as ``object``
columns.  An array is built once per (column, frame length): reads
between two appends share it, and the first read after an append
builds a fresh one.

Writes go through :meth:`ColumnFrame.extend_batch`: one key-set
validation pass over the documents, then one ``list.extend`` per column
— the append-optimized ingest path the server's chunk handler uses.

:class:`FrameRow` is a zero-copy read-only mapping view of one row,
usable anywhere a document dict is read (``row["field"]``,
``row.get(...)``, ``{**row}``).  :class:`ColumnRun` is the multi-row
counterpart: a read-only sequence view over a fixed set of row
positions that yields :class:`FrameRow` views lazily and exposes the
underlying column slices (``run.column("start")``) so per-device
traversals can consume contiguous arrays instead of materializing one
view object per record.  Reading a field the schema does not declare
raises ``KeyError``, as a dict does.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator, Mapping, Sequence
from typing import Any

import numpy as np

from .schema import RecordSchema

__all__ = ["ColumnFrame", "ColumnRun", "FrameRow", "SchemaMismatchError"]

_NUMPY_DTYPES = {"float": np.float64, "int": np.int64, "bool": np.bool_}


class SchemaMismatchError(ValueError):
    """A document does not carry exactly the schema's fields."""


class FrameRow(Mapping):
    """Read-only mapping view of one frame row (no dict materialized)."""

    __slots__ = ("_frame", "_index")

    def __init__(self, frame: "ColumnFrame", index: int) -> None:
        self._frame = frame
        self._index = index

    def __getitem__(self, key: str) -> Any:
        return self._frame.cell(key, self._index)

    def __iter__(self) -> Iterator[str]:
        return iter(self._frame._columns)  # the schema's field names

    def __len__(self) -> int:
        return len(self._frame._columns)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FrameRow({dict(self)!r})"


class ColumnRun(Sequence):
    """Read-only sequence view over selected rows of one frame.

    Holds the frame and a position array; rows materialize lazily as
    :class:`FrameRow` views on access, and whole-field reads come back
    as numpy slices (:meth:`column`) so batch consumers never touch the
    per-row path at all.
    """

    __slots__ = ("frame", "positions")

    def __init__(self, frame: "ColumnFrame", positions) -> None:
        self.frame = frame
        self.positions = np.asarray(positions, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.positions)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return ColumnRun(self.frame, self.positions[index])
        return FrameRow(self.frame, int(self.positions[index]))

    def __iter__(self) -> Iterator[FrameRow]:
        frame = self.frame
        for position in self.positions.tolist():
            yield FrameRow(frame, position)

    def __reversed__(self) -> Iterator[FrameRow]:
        frame = self.frame
        for position in self.positions[::-1].tolist():
            yield FrameRow(frame, position)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ColumnRun({len(self)} rows)"

    def column(self, name: str) -> np.ndarray:
        """This run's slice of one column (native dtype where the
        schema allows)."""
        return self.frame.column(name)[self.positions]

    def cells(self, name: str) -> list:
        """Raw python values for one field over the run."""
        values = self.frame.values(name)
        return [values[position] for position in self.positions.tolist()]


class ColumnFrame:
    """Columnar storage for the records of one schema."""

    def __init__(self, schema: RecordSchema) -> None:
        self.schema = schema
        self._length = 0
        self._columns: dict[str, list] = {name: [] for name in schema.field_names}
        # name -> (array, length-at-build): reads reuse the array until
        # the frame grows, preserving identity between appends.
        self._views: dict[str, tuple[np.ndarray, int]] = {}

    # -- writes ---------------------------------------------------------
    def extend_batch(self, documents: Sequence[Mapping]) -> int:
        """Append a batch column-wise, one C-level pass per column.

        Raises :class:`SchemaMismatchError` (never a partial write —
        the frame is untouched or rolled back to its pre-call state)
        when any document does not carry exactly the schema's fields.
        Rows come out in batch order.

        Key-set validation is one ``sum(map(len, ...))`` check (every
        document that survives the per-column ``itemgetter`` extraction
        carries all schema fields, so an exact total length means no
        extras either), and each column fills through
        ``list.extend(map(itemgetter(name), documents))``.
        """
        documents = (
            documents if isinstance(documents, (list, tuple)) else list(documents)
        )
        if not documents:
            return 0
        try:
            total = sum(map(len, documents))
        except TypeError:
            raise SchemaMismatchError("documents must be sized mappings")
        if total != len(self._columns) * len(documents):
            raise SchemaMismatchError(
                f"batch key sets do not match schema {self.schema.name!r} fields"
            )
        start = self._length
        try:
            for name, column in self._columns.items():
                column.extend(map(operator.itemgetter(name), documents))
        except (KeyError, TypeError, AttributeError):
            for column in self._columns.values():
                del column[start:]
            raise SchemaMismatchError(
                f"batch documents do not match schema {self.schema.name!r} fields"
            )
        self._length += len(documents)
        return len(documents)

    # -- basic reads ----------------------------------------------------
    def __len__(self) -> int:
        return self._length

    def values(self, name: str) -> list:
        """The raw value list backing one column (do not mutate)."""
        return self._columns[name]

    def cell(self, name: str, index: int) -> Any:
        """One cell; raises ``KeyError`` for an undeclared field."""
        return self._columns[name][index]

    def row(self, index: int) -> dict:
        """Materialize one row as a dict (schema key order)."""
        return {name: column[index] for name, column in self._columns.items()}

    def view(self, index: int) -> FrameRow:
        return FrameRow(self, index)

    def run(self, positions) -> ColumnRun:
        """A :class:`ColumnRun` view over the given row positions."""
        return ColumnRun(self, positions)

    # -- numpy materialization -----------------------------------------
    def column(self, name: str) -> np.ndarray:
        """The column as a read-only numpy array.

        Non-nullable ``float``/``int``/``bool`` fields come back with
        their native dtype; every other field is an ``object`` array.
        Reads with no append in between return the same array.
        """
        cached = self._views.get(name)
        if cached is not None and cached[1] == self._length:
            return cached[0]
        values = self._columns[name]
        dtype = self._native_dtype(name)
        if dtype is not None:
            array = np.array(values, dtype=dtype)
        else:
            array = np.fromiter(values, dtype=object, count=self._length)
        array.flags.writeable = False
        self._views[name] = (array, self._length)
        return array

    def _native_dtype(self, name: str):
        field = self.schema.field(name)
        if field.nullable:
            return None
        return _NUMPY_DTYPES.get(field.kind)

    def native_kind(self, name: str) -> str | None:
        """The schema kind of a non-nullable scalar field (``float``,
        ``int``, ``bool`` or ``str``), whose column holds no ``None``;
        ``None`` for nullable, ``object`` and undeclared fields."""
        if name not in self.schema:
            return None
        field = self.schema.field(name)
        if field.nullable or field.kind == "object":
            return None
        return field.kind
