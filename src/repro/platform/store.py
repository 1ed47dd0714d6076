"""In-memory document store with Mongo-like query operators.

The paper's backend persists snapshots into MongoDB (§3).  This store
provides the same access pattern for the analysis code: named
collections of documents, a small operator language (``$eq``, ``$ne``,
``$gt``, ``$gte``, ``$lt``, ``$lte``, ``$in``, ``$exists``), and
single-field indexes for the hot lookups (by install id).

Each collection is a :class:`ColumnarCollection`: documents live in a
:class:`~repro.frames.ColumnFrame` (typed when the collection name has
a declared schema, generic otherwise); queries compile once per shape
into cached :class:`~repro.frames.QueryPlan`s that are seeded by
incremental indexes (hash buckets for equality, a sorted run plus
pending delta for ranges) and evaluated over progressively narrowed
position sets.

The query semantics are those of a brute-force scan that tests every
document in insertion order (missing keys read as ``None``, ``$exists``
tests presence, ordering operators never match ``None``).  That scan
lives in ``tests/oracles.py``; the store must return the same documents
in the same order for any query (``tests/platform/test_store_query.py``).
"""

from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right
from collections import defaultdict
from typing import Any, Callable

import numpy as np

from ..frames import (
    SCHEMA_BY_COLLECTION,
    ColumnFrame,
    QueryPlan,
    compile_plan,
    plan_key,
)
from ..frames.frame import _ABSENT, SchemaMismatchError

__all__ = ["DocumentStore", "ColumnarCollection"]


_ORDERING_OPS: dict[str, Callable[[Any, Any], bool]] = {
    "$gt": operator.gt,
    "$gte": operator.ge,
    "$lt": operator.lt,
    "$lte": operator.le,
}


class _SortedColumnIndex:
    """Incrementally maintained index over one sortable typed column.

    Two probe structures; neither is ever invalidated or rebuilt from
    scratch:

    * a hash map ``key -> positions`` (ascending = insertion order),
      kept current on every insert — the O(1) fast-path for equality
      probes, and the only per-insert cost;
    * a sorted run (``_keys``/``_positions``, ties in insertion order)
      covering positions below a ``_filled`` watermark.  Positions at
      or above the watermark form the *pending delta*; their keys are
      read straight off the collection's live column list at probe
      time, so inserts pay nothing to maintain it.  Range probes
      bisect the sorted run and linearly scan the delta alongside it;
      when the delta outgrows ``max(_MERGE_MIN, run // 8)`` at probe
      time it is sorted once and linearly merged into the run.
      Interleaved insert/range-query workloads therefore pay an
      amortized O(log n) per insert instead of a full argsort rebuild
      per query, and insert-only or equality-only workloads never pay
      the sort at all.

    ``None`` keys never satisfy an ordering operator, so they are
    skipped by the delta scan and dropped at merge time — which also
    keeps the run sortable for nullable columns.

    Probe results are *candidates*: the caller re-verifies them
    through the query plan (e.g. a hash bucket keyed by NaN is found
    by identity, but equality must still reject it).
    """

    __slots__ = ("_keys", "_positions", "_filled", "_buckets", "_numeric")

    _MERGE_MIN = 32

    def __init__(self, numeric: bool, values: list | None = None) -> None:
        self._numeric = numeric
        self._keys: list = []
        self._positions: list[int] = []
        self._filled = 0
        self._buckets: dict[Any, list[int]] = {}
        if values:
            self.add_batch(values, 0)

    def add(self, value, position: int) -> None:
        try:
            self._buckets[value].append(position)
        except KeyError:
            self._buckets[value] = [position]

    def add_batch(self, values: list, start: int) -> None:
        buckets = self._buckets
        position = start
        for value in values:
            # try/except beats get()-then-test: after warmup almost
            # every key hits, and a no-raise try block is free.
            try:
                buckets[value].append(position)
            except KeyError:
                buckets[value] = [position]
            position += 1

    def _comparable(self, operand) -> bool:
        # Operands that cannot compare against the column never match
        # (a foreign-typed key is never equal to any cell).
        if self._numeric:
            return isinstance(operand, (int, float))
        return isinstance(operand, str)

    def equality_positions(self, operand) -> list[int]:
        """Candidate positions for ``column == operand`` (ascending)."""
        if not self._comparable(operand):
            return []
        return self._buckets.get(operand) or []

    def range_positions(self, values: list, condition: dict) -> list[int] | None:
        """Candidate positions for the ordering operators of an
        operator-form condition, or ``None`` when no ordering bound is
        usable (the caller falls back to the planner's full path, which
        preserves scalar semantics such as ``TypeError`` on
        incomparable operands).  ``values`` is the live column list the
        index shadows; everything past the watermark is the delta."""
        bounds = [
            (op, operand)
            for op, operand in condition.items()
            if op in _ORDERING_OPS
        ]
        if not bounds or not all(
            self._comparable(operand) for _op, operand in bounds
        ):
            return None
        if len(values) - self._filled > max(self._MERGE_MIN, self._filled // 8):
            self._merge(values)
        lo, hi = 0, len(self._keys)
        for op, operand in bounds:
            if op == "$gt":
                lo = max(lo, bisect_right(self._keys, operand))
            elif op == "$gte":
                lo = max(lo, bisect_left(self._keys, operand))
            elif op == "$lt":
                hi = min(hi, bisect_left(self._keys, operand))
            else:
                hi = min(hi, bisect_right(self._keys, operand))
        out = list(self._positions[lo:hi]) if lo < hi else []
        ops = _ORDERING_OPS
        for position in range(self._filled, len(values)):
            key = values[position]
            if key is not None and all(
                ops[op](key, operand) for op, operand in bounds
            ):
                out.append(position)
        return out

    def _merge(self, values: list) -> None:
        """Fold the pending delta into the sorted run (one small sort +
        one linear merge).  Delta positions are all newer than run
        positions, so on key ties run entries stay first and the
        ties-in-insertion-order invariant is preserved."""
        tail = sorted(
            (
                position
                for position in range(self._filled, len(values))
                if values[position] is not None
            ),
            key=values.__getitem__,
        )
        keys, positions = self._keys, self._positions
        merged_keys: list = []
        merged_positions: list[int] = []
        i, total = 0, len(keys)
        for position in tail:
            key = values[position]
            while i < total and keys[i] <= key:
                merged_keys.append(keys[i])
                merged_positions.append(positions[i])
                i += 1
            merged_keys.append(key)
            merged_positions.append(position)
        merged_keys.extend(keys[i:])
        merged_positions.extend(positions[i:])
        self._keys = merged_keys
        self._positions = merged_positions
        self._filled = len(values)


def _query_cache_key(query: dict) -> tuple:
    """Hashable identity of a concrete query (fields, ops, operand
    values in query order).  Unhashable operands surface as
    ``TypeError`` when the key is used, which callers treat as
    uncacheable."""
    return tuple(
        (fieldname, tuple(condition.items()))
        if isinstance(condition, dict)
        else (fieldname, condition)
        for fieldname, condition in query.items()
    )


class ColumnarCollection:
    """One named collection backed by a :class:`ColumnFrame`.

    Reads compile the query into a :class:`~repro.frames.QueryPlan`
    cached per query *shape*, seed it from an index probe when one
    applies (hash bucket for equality, sorted-run bisection for
    ranges), and evaluate the remaining predicates over progressively
    narrowed position sets.  Materialized rows are cached per position,
    so repeated finds hand back the same dict objects.

    A collection whose name has a declared schema stores typed
    columns; if a document ever fails the schema (only possible
    outside the server's validated ingest path), the frame degrades
    once to generic columns so the store still accepts any dict.

    Writes are *staged*: ``insert``/``insert_many`` only type-check
    their documents (so ``TypeError`` raises at the offending record
    with earlier ones kept) and append them to a write-optimized
    backlog.  The first read — any query,
    index build, or ``frame`` access — merges the backlog into the
    columns and indexes in one batch (C-Store's write-store /
    read-store split).  Ingest latency is therefore O(1) per document
    and the row-to-column transposition is paid once per
    ingest-then-read cycle, at full batch width.  A schema mismatch
    surfaces at merge time as the same degrade-to-generic the eager
    path performed; the observable store state is identical.
    """

    def __init__(self, name: str, schema=None) -> None:
        self.name = name
        self._frame = ColumnFrame(schema)
        self._staged: list[dict] = []
        self._indexes: dict[str, _SortedColumnIndex | dict[Any, list[int]]] = {}
        self._plans: dict[tuple, QueryPlan] = {}
        self._rows: dict[int, dict] = {}
        self._results: dict[tuple, tuple[int, Any]] = {}

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
    def insert(self, document: dict) -> None:
        if not isinstance(document, dict):
            raise TypeError("documents must be dicts")
        self._staged.append(document)

    def insert_many(self, documents) -> int:
        documents = (
            documents
            if isinstance(documents, (list, tuple))
            else list(documents)
        )
        if all(isinstance(document, dict) for document in documents):
            self._staged.extend(documents)
            return len(documents)
        # Stage per-document so the TypeError raises at the offending
        # record with earlier ones kept.
        count = 0
        for document in documents:
            self.insert(document)
            count += 1
        return count

    def _flush(self) -> None:
        staged, self._staged = self._staged, []
        try:
            self._insert_batch(staged)
            return
        except SchemaMismatchError:
            # Frame untouched (extend_batch stages or rolls back before
            # raising); replay per-document to degrade at exactly the
            # offending record.
            pass
        for document in staged:
            self._insert_one(document)

    def _insert_one(self, document: dict) -> None:
        try:
            self._frame.append(document)
        except SchemaMismatchError:
            self._degrade_to_generic()
            self._frame.append(document)
        position = len(self._frame) - 1
        for fieldname, index in self._indexes.items():
            if isinstance(index, _SortedColumnIndex):
                index.add(document.get(fieldname), position)
            else:
                index[document.get(fieldname)].append(position)

    def _insert_batch(self, documents) -> int:
        start = len(self._frame)
        count = self._frame.extend_batch(documents)
        for fieldname, index in self._indexes.items():
            if isinstance(index, _SortedColumnIndex):
                # Sorted indexes only shadow typed columns, so the
                # freshly extended column tail *is* the batch's values —
                # a C-level slice instead of a per-document listcomp.
                index.add_batch(self._frame.values(fieldname)[start:], start)
            else:
                for offset, document in enumerate(documents):
                    index[document.get(fieldname)].append(start + offset)
        return count

    # -- transactional marks -------------------------------------------
    def mark(self) -> tuple[int, int]:
        """Watermark for :meth:`rollback_to`: (merged rows, staged rows).
        Valid only while no read merges the backlog — exactly the
        server's receive window, which never reads mid-chunk."""
        return (len(self._frame), len(self._staged))

    def rollback_to(self, mark: tuple[int, int]) -> None:
        """Undo every insert since ``mark`` by truncating the staged
        backlog (inserts only ever stage, so the frame and its indexes
        were never touched and all length-stamped caches stay valid)."""
        frame_len, staged_len = mark
        if len(self._frame) != frame_len:
            raise RuntimeError(
                f"collection {self.name!r}: staged writes were merged "
                "after the mark was taken; cannot roll back"
            )
        del self._staged[staged_len:]

    def _degrade_to_generic(self) -> None:
        generic = ColumnFrame()
        for i in range(len(self._frame)):
            generic.append(self._frame.row(i))
        self._frame = generic
        # Sorted indexes probe schema-typed columns; rebuild as hash maps.
        for fieldname in list(self._indexes):
            del self._indexes[fieldname]
            self.create_index(fieldname)

    # -- indexes --------------------------------------------------------
    def create_index(self, fieldname: str) -> None:
        if fieldname in self._indexes:
            return
        if self._staged:
            self._flush()
        schema = self._frame.schema
        if schema is not None and fieldname in schema and schema.field(fieldname).sortable:
            index: _SortedColumnIndex | dict = _SortedColumnIndex(
                numeric=schema.field(fieldname).kind in ("float", "int"),
                values=self.frame.values(fieldname),
            )
        else:
            index = defaultdict(list)
            for position, value in enumerate(self.frame.cells(fieldname)):
                index[value].append(position)
        self._indexes[fieldname] = index

    # -- reads ----------------------------------------------------------
    def _plan_for(self, query: dict) -> QueryPlan:
        key = plan_key(query)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = compile_plan(query)
        return plan

    def _probe(self, query: dict) -> list[int] | None:
        """Index-probe candidate positions (ascending), or ``None``
        when no index applies.

        The first index (in creation order) whose field carries a
        plain equality condition, or an ordering condition on a sorted
        index, seeds the plan: hash bucket or bisection respectively.
        Probe results are candidates only; the plan re-verifies every
        predicate including the probed one.
        """
        for fieldname, index in self._indexes.items():
            condition = query.get(fieldname)
            if condition is None:
                continue
            sorted_index = isinstance(index, _SortedColumnIndex)
            if not isinstance(condition, dict):
                if sorted_index:
                    return index.equality_positions(condition)
                return list(index.get(condition, ()))
            if sorted_index and any(key.startswith("$") for key in condition):
                probe = index.range_positions(
                    self.frame.values(fieldname), condition
                )
                if probe is not None:
                    probe.sort()  # key-ordered run slice -> insertion order
                    return probe
        return None

    def _positions_for(self, query: dict) -> np.ndarray:
        plan = self._plan_for(query)
        return plan.positions(self.frame, query, seed=self._probe(query))

    def _row(self, position: int) -> dict:
        row = self._rows.get(position)
        if row is None:
            row = self._rows[position] = self.frame.row(position)
        return row

    def _cached(self, key: tuple, compute):
        """Length-stamped query-result cache.

        The store is append-only, so a result is valid exactly while
        ``len(frame)`` is unchanged; any insert bumps the stamp and the
        next read recomputes.  Operand equivalence follows dict-key
        semantics (``1`` and ``True`` share a slot), which is sound
        because every query operator compares with ``==`` too.  Keys
        with unhashable operands (e.g. an ``$in`` list) just bypass the
        cache.  This is what makes the server's repeated per-install
        ``find``/``find_one`` calls O(1) after the first.
        """
        try:
            hit = self._results.get(key)
        except TypeError:
            return compute()
        stamp = len(self.frame)
        if hit is not None and hit[0] == stamp:
            return hit[1]
        value = compute()
        self._results[key] = (stamp, value)
        return value

    def _find_rows(self, query: dict) -> list[dict]:
        positions = self._positions_for(query)
        rows = self._rows
        out = []
        for position in positions.tolist():
            row = rows.get(position)
            if row is None:
                row = rows[position] = self.frame.row(position)
            out.append(row)
        return out

    def find(self, query: dict | None = None) -> list[dict]:
        query = query or {}
        rows = self._cached(
            ("find", _query_cache_key(query)), lambda: self._find_rows(query)
        )
        return list(rows)

    def _find_first(self, query: dict) -> dict | None:
        positions = self._positions_for(query)
        if len(positions) == 0:
            return None
        return self._row(int(positions[0]))

    def find_one(self, query: dict | None = None) -> dict | None:
        query = query or {}
        return self._cached(
            ("one", _query_cache_key(query)), lambda: self._find_first(query)
        )

    def find_views(self, query: dict | None = None) -> list:
        """Like :meth:`find`, but zero-copy :class:`FrameRow` views."""
        positions = self._positions_for(query or {})
        return [self.frame.view(position) for position in positions.tolist()]

    def count(self, query: dict | None = None) -> int:
        query = query or {}
        if not query:
            return len(self.frame)
        plan = self._plan_for(query)
        return self._cached(
            ("count", _query_cache_key(query)),
            lambda: plan.count(self.frame, query, seed=self._probe(query)),
        )

    def distinct(self, fieldname: str, query: dict | None = None) -> list:
        query = query or {}
        values = self._cached(
            ("distinct", fieldname, _query_cache_key(query)),
            lambda: self._distinct_values(fieldname, query),
        )
        return list(values)

    def _distinct_values(self, fieldname: str, query: dict) -> list:
        positions = None if not query else self._positions_for(query)
        kind = self.frame.native_kind(fieldname)
        if kind in ("float", "int", "bool"):
            # Native-dtype column: one C-level unique pass.  A native
            # scalar column cannot hold list/tuple cells or None, so no
            # flattening or discard is needed; validated ingest keeps
            # the python values type-homogeneous, so ``.tolist()``
            # round-trips them bit-identically.  Floats fall back to
            # the set path when NaN or signed zero could diverge from
            # python set semantics (NaN objects are identity-distinct
            # in a set; -0.0 == 0.0 but reprs differ).
            array = self.frame.column(fieldname)
            if positions is not None:
                array = array[positions]
            if kind != "float" or (
                not np.isnan(array).any()
                and not np.signbit(array[array == 0.0]).any()
            ):
                return sorted(np.unique(array).tolist(), key=repr)
        if positions is None:
            if self.frame.schema is not None and self.frame.has_column(fieldname):
                gathered = self.frame.values(fieldname)
            else:
                gathered = list(self.frame.cells(fieldname))
        else:
            column = self.frame._columns.get(fieldname)
            if column is None:
                gathered = []
            else:
                gathered = [column[p] for p in positions.tolist()]
                if self.frame.schema is None:
                    gathered = [
                        None if value is _ABSENT else value for value in gathered
                    ]
        if any(isinstance(value, (list, tuple)) for value in gathered):
            seen: set = set()
            for value in gathered:
                if isinstance(value, (list, tuple)):
                    seen.update(value)
                else:
                    seen.add(value)
        else:
            seen = set(gathered)
        seen.discard(None)
        return sorted(seen, key=repr)


class DocumentStore:
    """A set of named collections (the Mongo database)."""

    def __init__(self) -> None:
        self._collections: dict[str, ColumnarCollection] = {}

    def collection(self, name: str) -> ColumnarCollection:
        if name not in self._collections:
            self._collections[name] = ColumnarCollection(
                name, schema=SCHEMA_BY_COLLECTION.get(name)
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
