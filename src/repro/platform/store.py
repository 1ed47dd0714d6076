"""In-memory document store of typed collections answering equality
queries.

The paper's backend persists snapshots into MongoDB (§3).  This store
provides the access pattern the analysis code uses: named collections
of documents, equality queries (``{"install_id": i, "_type": t}``),
and single-field hash indexes for the hot lookups (by install id).

Each collection is a :class:`ColumnarCollection` over one of the
schemas :data:`~repro.frames.SCHEMA_BY_COLLECTION` declares: documents
live in a typed :class:`~repro.frames.ColumnFrame`, and every query
runs through :func:`~repro.frames.matching_positions`, starting from an
index bucket when the query opens with a field that has an index.

The query semantics are those of a brute-force scan that tests every
document in insertion order (a ``$`` operator raises ``ValueError``).
That scan lives in ``tests/oracles.py``; the store must return the same
documents in the same order for any query
(``tests/platform/test_store_query.py``).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any

import numpy as np

from ..frames import (
    SCHEMA_BY_COLLECTION,
    ColumnFrame,
    RecordSchema,
    matching_positions,
)
from ..frames.frame import SchemaMismatchError

__all__ = ["DocumentStore", "ColumnarCollection"]


class ColumnarCollection:
    """One named collection backed by a :class:`ColumnFrame`.

    An index is a hash map ``value -> [positions]`` (ascending, i.e.
    insertion order) over one field, kept current on every merge.  A
    query whose *first* field has an index starts from that value's
    bucket; only the first, because a scan tests predicates in query
    order, and a bucket for a later one could skip a row that raises
    on an earlier predicate.  Every candidate is re-checked, so a
    bucket may over-approximate (a NaN key is found by identity, but
    equality rejects it).  Materialized rows are cached per position,
    so repeated finds hand back the same dict objects.

    Writes are *staged*: ``insert``/``insert_many`` only check that
    each document is a dict carrying exactly the schema's fields
    (raising ``TypeError`` or :class:`SchemaMismatchError` at the
    offending document, with earlier ones kept) and append them to a
    write-optimized backlog.  A value of the wrong kind is stored as
    given; the server's ingest path checks kinds too
    (:meth:`~repro.frames.schema.RecordSchema.validate`).  The first
    read — any query, index build, or ``frame`` access — merges the
    backlog into the columns and indexes in one batch (C-Store's
    write-store / read-store split).  Ingest latency is therefore O(1)
    per document and the row-to-column transposition is paid once per
    ingest-then-read cycle, at full batch width.
    """

    def __init__(self, name: str, schema: RecordSchema) -> None:
        self.name = name
        self._frame = ColumnFrame(schema)
        self._keys = frozenset(schema.field_names)
        self._staged: list[dict] = []
        self._indexes: dict[str, defaultdict[Any, list[int]]] = {}
        self._rows: dict[int, dict] = {}

    @property
    def frame(self) -> ColumnFrame:
        """The read-optimized column store, with all staged writes
        merged in."""
        if self._staged:
            self._flush()
        return self._frame

    def compact(self) -> None:
        """Merge staged writes now instead of at the next read."""
        if self._staged:
            self._flush()

    def __len__(self) -> int:
        return len(self._frame) + len(self._staged)

    # -- writes ---------------------------------------------------------
    def _check(self, document: dict) -> None:
        if not isinstance(document, dict):
            raise TypeError("documents must be dicts")
        if document.keys() != self._keys:
            raise SchemaMismatchError(
                f"collection {self.name!r}: document keys {list(document)} "
                f"do not match schema {self._frame.schema.name!r} fields"
            )

    def insert(self, document: dict) -> None:
        self._check(document)
        self._staged.append(document)

    def insert_many(self, documents) -> int:
        documents = (
            documents
            if isinstance(documents, (list, tuple))
            else list(documents)
        )
        checked = 0
        try:
            for document in documents:
                self._check(document)
                checked += 1
        finally:
            self._staged.extend(documents[:checked])
        return checked

    def _flush(self) -> None:
        staged, self._staged = self._staged, []
        start = len(self._frame)
        self._frame.extend_batch(staged)
        for fieldname, index in self._indexes.items():
            for position, document in enumerate(staged, start):
                index[document[fieldname]].append(position)

    # -- transactional marks -------------------------------------------
    def mark(self) -> tuple[int, int]:
        """Watermark for :meth:`rollback_to`: (merged rows, staged rows).
        Valid only while no read merges the backlog — exactly the
        server's receive window, which never reads mid-chunk."""
        return (len(self._frame), len(self._staged))

    def rollback_to(self, mark: tuple[int, int]) -> None:
        """Undo every insert since ``mark`` by truncating the staged
        backlog (inserts only ever stage, so the frame, its indexes and
        the row cache were never touched)."""
        frame_len, staged_len = mark
        if len(self._frame) != frame_len:
            raise RuntimeError(
                f"collection {self.name!r}: staged writes were merged "
                "after the mark was taken; cannot roll back"
            )
        del self._staged[staged_len:]

    # -- indexes --------------------------------------------------------
    def create_index(self, fieldname: str) -> None:
        if fieldname in self._indexes:
            return
        index = defaultdict(list)
        for position, value in enumerate(self.frame.values(fieldname)):
            index[value].append(position)
        self._indexes[fieldname] = index

    # -- reads ----------------------------------------------------------
    def _positions(self, query: dict | None) -> np.ndarray:
        frame = self.frame  # merges staged writes into the indexes too
        candidates = None
        if query:
            fieldname, value = next(iter(query.items()))
            index = self._indexes.get(fieldname)
            if index is not None:
                try:
                    candidates = index.get(value, ())
                except TypeError:  # unhashable value: no bucket to seed from
                    pass
        return matching_positions(frame, query, candidates)

    def _row(self, position: int) -> dict:
        row = self._rows.get(position)
        if row is None:
            row = self._rows[position] = self._frame.row(position)
        return row

    def find(self, query: dict | None = None) -> list[dict]:
        return [self._row(position) for position in self._positions(query).tolist()]

    def find_one(self, query: dict | None = None) -> dict | None:
        positions = self._positions(query)
        return self._row(int(positions[0])) if len(positions) else None

    def find_views(self, query: dict | None = None) -> list:
        """Like :meth:`find`, but zero-copy :class:`FrameRow` views."""
        positions = self._positions(query)
        return [self._frame.view(position) for position in positions.tolist()]

    def count(self, query: dict | None = None) -> int:
        return len(self._positions(query)) if query else len(self.frame)

    def distinct(self, fieldname: str) -> list:
        seen = set(self.frame.values(fieldname))
        seen.discard(None)
        return sorted(seen, key=repr)


class DocumentStore:
    """The set of declared collections (the Mongo database)."""

    def __init__(self) -> None:
        self._collections: dict[str, ColumnarCollection] = {}

    def collection(self, name: str) -> ColumnarCollection:
        """The collection ``name``, built on first access; ``KeyError``
        unless ``SCHEMA_BY_COLLECTION`` declares it."""
        if name not in self._collections:
            self._collections[name] = ColumnarCollection(
                name, SCHEMA_BY_COLLECTION[name]
            )
        return self._collections[name]

    def __getitem__(self, name: str) -> ColumnarCollection:
        return self.collection(name)

    def collection_names(self) -> list[str]:
        return sorted(self._collections)

    def compact(self) -> None:
        """Merge every collection's staged writes into its
        read-optimized columns (the tuple-mover step; a no-op for
        already-settled collections).  Ingest pipelines call this once
        when a load finishes so the first analytical read doesn't pay
        the merge."""
        for collection in self._collections.values():
            collection.compact()

    def total_documents(self) -> int:
        return sum(len(c) for c in self._collections.values())
