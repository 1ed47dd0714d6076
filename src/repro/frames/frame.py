"""Struct-of-arrays record container.

A :class:`ColumnFrame` holds N records as per-field columns instead of
N dicts.  Values are kept as python objects in per-column lists (the
source of truth, so a reconstructed row is exactly what was appended —
same objects for nested values, bit-identical scalars) and materialize
on demand into read-only numpy arrays for query evaluation and batch
feature extraction.  An array is built once per (column, frame length):
reads between two appends share it, and the first read after an append
builds a fresh one.

Frames come in two modes:

* **typed** — constructed with a :class:`~repro.frames.schema.RecordSchema`;
  every record must carry exactly the schema's fields.  Numeric fields
  materialize as ``float64``/``int64``/``bool_`` columns.
* **generic** — no schema; columns are discovered from the documents
  (in first-seen order, which is deterministic: it follows document
  insertion order, never set iteration) and key *absence* is tracked
  per cell so ``$exists`` can distinguish a missing key from an
  explicit ``None``.

Batch writes go through :meth:`ColumnFrame.extend_batch`: one key-set
validation pass over the documents, then one ``list.extend`` per column
— the append-optimized ingest path the server's chunk handler uses.

:class:`FrameRow` is a zero-copy read-only mapping view of one row,
usable anywhere a document dict is read (``row["field"]``,
``row.get(...)``, ``{**row}``).  :class:`ColumnRun` is the multi-row
counterpart: a read-only sequence view over a fixed set of row
positions that yields :class:`FrameRow` views lazily and exposes the
underlying column slices (``run.column("start")``) so per-device
traversals can consume contiguous arrays instead of materializing one
view object per record.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator, Mapping, Sequence
from typing import Any

import numpy as np

from .schema import RecordSchema

__all__ = ["ColumnFrame", "ColumnRun", "FrameRow", "SchemaMismatchError"]

#: Cell marker for "this document did not carry the key" (generic mode).
_ABSENT = object()

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
        return self._frame.row_keys(self._index)

    def __len__(self) -> int:
        return sum(1 for _ in self._frame.row_keys(self._index))

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
        """This run's slice of one column (native dtype when typed)."""
        return self.frame.column(name)[self.positions]

    def cells(self, name: str) -> list:
        """Raw python values for one field over the run (absent -> None)."""
        values = self.frame._columns.get(name)
        if values is None:
            return [None] * len(self.positions)
        out = [values[position] for position in self.positions.tolist()]
        return [None if value is _ABSENT else value for value in out]

    def rows(self) -> list[dict]:
        """Materialize every row as a plain dict."""
        return [self.frame.row(position) for position in self.positions.tolist()]


class ColumnFrame:
    """Columnar storage for homogeneous (typed) or ad-hoc (generic) records."""

    def __init__(self, schema: RecordSchema | None = None) -> None:
        self.schema = schema
        self._length = 0
        self._columns: dict[str, list] = {}
        # name -> (array, length-at-build): reads reuse the array until
        # the frame grows, preserving identity between appends.
        self._views: dict[str, tuple[np.ndarray, int]] = {}
        self._present_views: dict[str, tuple[np.ndarray, int]] = {}
        if schema is not None:
            for field in schema.fields:
                self._columns[field.name] = []
            self._field_names = frozenset(schema.field_names)
        else:
            self._field_names = frozenset()

    # -- writes ---------------------------------------------------------
    def append(self, document: Mapping) -> None:
        if self.schema is not None:
            if document.keys() != self._field_names:
                raise SchemaMismatchError(
                    f"document keys {sorted(document.keys())} do not match "
                    f"schema {self.schema.name!r} fields"
                )
            for name, column in self._columns.items():
                column.append(document[name])
        else:
            for key in document:
                if key not in self._columns:
                    # Backfill: rows appended before this key was first
                    # seen did not carry it.
                    self._columns[key] = [_ABSENT] * self._length
            for name, column in self._columns.items():
                column.append(document.get(name, _ABSENT))
        self._length += 1

    def extend(self, documents) -> int:
        count = 0
        for document in documents:
            self.append(document)
            count += 1
        return count

    def extend_batch(self, documents: Sequence[Mapping]) -> int:
        """Append a batch column-wise, one C-level pass per column.

        Raises :class:`SchemaMismatchError` (never a partial write —
        the frame is untouched or rolled back to its pre-call state)
        when any document mismatches; the store then falls back to the
        per-document path, which degrades at exactly the offending
        record.  Semantics are identical to appending each document in
        order.

        The typed fast path avoids per-document python work entirely:
        key-set validation is one ``sum(map(len, ...))`` check (every
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
        if self.schema is not None:
            try:
                total = sum(map(len, documents))
            except TypeError:
                raise SchemaMismatchError("documents must be sized mappings")
            if total != len(self._field_names) * len(documents):
                raise SchemaMismatchError(
                    f"batch key sets do not match schema {self.schema.name!r} "
                    "fields"
                )
            start = self._length
            try:
                for name, column in self._columns.items():
                    column.extend(map(operator.itemgetter(name), documents))
            except (KeyError, TypeError, AttributeError):
                for column in self._columns.values():
                    del column[start:]
                raise SchemaMismatchError(
                    f"batch documents do not match schema "
                    f"{self.schema.name!r} fields"
                )
        else:
            new_columns: dict[str, None] = {}
            try:
                for document in documents:
                    for key in document.keys():
                        if key not in self._columns:
                            new_columns[key] = None
                staged = {
                    name: [document.get(name, _ABSENT) for document in documents]
                    for name in (*self._columns, *new_columns)
                }
            except (TypeError, AttributeError):
                raise SchemaMismatchError("documents must be mappings")
            for key in new_columns:
                self._columns[key] = [_ABSENT] * self._length
            for name, values in staged.items():
                self._columns[name].extend(values)
        self._length += len(documents)
        return len(documents)

    # -- basic reads ----------------------------------------------------
    def __len__(self) -> int:
        return self._length

    def values(self, name: str) -> list:
        """The raw value list backing one column (do not mutate)."""
        return self._columns[name]

    def cell(self, name: str, index: int) -> Any:
        """One cell; raises ``KeyError`` for an absent key (like a dict)."""
        column = self._columns.get(name)
        if column is None:
            raise KeyError(name)
        value = column[index]
        if value is _ABSENT:
            raise KeyError(name)
        return value

    def row_keys(self, index: int) -> Iterator[str]:
        for name, column in self._columns.items():
            if column[index] is not _ABSENT:
                yield name

    def row(self, index: int) -> dict:
        """Materialize one row as a dict (schema/first-seen key order)."""
        return {
            name: column[index]
            for name, column in self._columns.items()
            if column[index] is not _ABSENT
        }

    def view(self, index: int) -> FrameRow:
        return FrameRow(self, index)

    def run(self, positions) -> ColumnRun:
        """A :class:`ColumnRun` view over the given row positions."""
        return ColumnRun(self, positions)

    # -- numpy materialization -----------------------------------------
    def column(self, name: str) -> np.ndarray:
        """The column as a read-only numpy array.

        Typed non-nullable ``float``/``int``/``bool`` fields come back
        with their native dtype; everything else is an ``object`` array
        in which absent cells read as ``None`` (mirroring ``dict.get``).
        An unknown column reads as all-``None``.  Reads with no append
        in between return the same array.
        """
        cached = self._views.get(name)
        if cached is not None and cached[1] == self._length:
            return cached[0]
        dtype = self._native_dtype(name)
        if dtype is not None:
            array = np.array(self._columns[name], dtype=dtype)
        else:
            array = np.fromiter(self.cells(name), dtype=object, count=self._length)
        array.flags.writeable = False
        self._views[name] = (array, self._length)
        return array

    def present(self, name: str) -> np.ndarray:
        """Boolean mask of rows whose document carried ``name`` at all."""
        cached = self._present_views.get(name)
        if cached is not None and cached[1] == self._length:
            return cached[0]
        values = self._columns.get(name)
        if values is None:
            array = np.zeros(self._length, dtype=bool)
        elif self.schema is not None:
            array = np.ones(self._length, dtype=bool)
        else:
            array = np.fromiter(
                (value is not _ABSENT for value in values), np.bool_, self._length
            )
        array.flags.writeable = False
        self._present_views[name] = (array, self._length)
        return array

    def cells(self, name: str) -> Iterator[Any]:
        """Iterate effective cell values (absent/unknown keys -> ``None``)."""
        values = self._columns.get(name)
        if values is None:
            return iter([None] * self._length)
        return (None if value is _ABSENT else value for value in values)

    def _native_dtype(self, name: str):
        if self.schema is None or name not in self.schema:
            return None
        field = self.schema.field(name)
        if field.nullable:
            return None
        return _NUMPY_DTYPES.get(field.kind)

    def native_kind(self, name: str) -> str | None:
        """The schema kind of a non-nullable scalar field (``float``,
        ``int``, ``bool`` or ``str``), whose column holds no ``None``;
        ``None`` for nullable, ``object`` and undeclared fields."""
        if self.schema is None or name not in self.schema:
            return None
        field = self.schema.field(name)
        if field.nullable or field.kind == "object":
            return None
        return field.kind
