"""Compile Mongo-style queries to vectorized masks and reusable plans.

The operator language is exactly the document store's (``$eq``, ``$ne``,
``$gt``, ``$gte``, ``$lt``, ``$lte``, ``$in``, ``$exists``) with the
same semantics, including the corner cases:

* a missing key reads as ``None`` for every operator except ``$exists``,
  which tests key *presence* (so ``field: None`` satisfies
  ``{"$exists": True}`` while an absent key does not);
* ordering operators never match ``None``;
* comparing incomparable types raises ``TypeError`` exactly where a
  per-document scan would.

Two evaluation strategies share those semantics:

* :func:`mask_for` — the original one-shot compiler: every predicate
  evaluates over the full column and the masks AND together.
* :class:`QueryPlan` (via :func:`compile_plan`) — the planner.  A query
  dict is normalized once into ``(field, op, operand-type)`` predicate
  shapes, ordered by estimated selectivity (equality first, ``$ne`` and
  ``$exists`` last), and executed over *progressively narrowed position
  sets*: the first predicate runs as a full-column mask (or the caller
  seeds candidate positions from an index probe) and every later
  predicate only looks at the rows still alive, via fancy-indexed
  column slices where numpy comparison is safe and per-value python
  everywhere else.  Plans carry no operand values, only shapes, so the
  store caches them per (collection, query-shape) and repeated queries
  skip normalization entirely.

Matching positions always come back ascending, i.e. in insertion
order — the same order a brute-force scan over the documents produces
(the reference matcher in ``tests/oracles.py``).
"""

from __future__ import annotations

import operator

import numpy as np

from .frame import _ABSENT, ColumnFrame

__all__ = ["mask_for", "compile_plan", "plan_key", "QueryPlan", "QUERY_OPERATORS"]

#: The operator names this compiler understands (the store's language).
QUERY_OPERATORS = ("$eq", "$ne", "$gt", "$gte", "$lt", "$lte", "$in", "$exists")

_ORDERING = {
    "$gt": operator.gt,
    "$gte": operator.ge,
    "$lt": operator.lt,
    "$lte": operator.le,
}
_ORDERING_UFUNC = {
    "$gt": np.greater,
    "$gte": np.greater_equal,
    "$lt": np.less,
    "$lte": np.less_equal,
}

_NUMERIC_KINDS = ("float", "int", "bool")

#: Below this many candidate positions, verifying off the raw cells is
#: cheaper than materializing a column's numpy shadow for a
#: fancy-indexed comparison (unless the shadow already exists).
_VECTOR_MIN = 128

#: Estimated fraction of rows an operator keeps, used to order
#: predicate evaluation (lowest first).  The exact numbers only matter
#: relative to each other; ties keep query-dict order, so plans are
#: deterministic for a given query shape.
_SELECTIVITY_RANK = {
    "$eq": 0,
    "$in": 1,
    "$gt": 2,
    "$gte": 2,
    "$lt": 2,
    "$lte": 2,
    "$exists": 3,
    "$ne": 4,
}


def _vector_comparable(frame: ColumnFrame, fieldname: str, operand) -> bool:
    """Whether ``column <op> operand`` is safe as one numpy expression."""
    kind = frame.native_kind(fieldname)
    if kind in _NUMERIC_KINDS:
        return isinstance(operand, (int, float, bool)) and not isinstance(
            operand, np.ndarray
        )
    if kind == "str":
        return isinstance(operand, str)
    return False


def _eq_mask(frame: ColumnFrame, fieldname: str, operand) -> np.ndarray:
    if _vector_comparable(frame, fieldname, operand):
        return frame.column(fieldname) == operand
    return np.fromiter(
        (value == operand for value in frame.cells(fieldname)),
        np.bool_,
        len(frame),
    )


def _ordering_mask(
    frame: ColumnFrame, fieldname: str, op: str, operand
) -> np.ndarray:
    if _vector_comparable(frame, fieldname, operand):
        return _ORDERING_UFUNC[op](frame.column(fieldname), operand)
    compare = _ORDERING[op]
    return np.fromiter(
        (
            value is not None and compare(value, operand)
            for value in frame.cells(fieldname)
        ),
        np.bool_,
        len(frame),
    )


def _op_mask(frame: ColumnFrame, fieldname: str, op: str, operand) -> np.ndarray:
    if op == "$exists":
        present = frame.present(fieldname)
        return present if operand else ~present
    if op == "$eq":
        return _eq_mask(frame, fieldname, operand)
    if op == "$ne":
        return ~_eq_mask(frame, fieldname, operand)
    if op == "$in":
        return np.fromiter(
            (value in operand for value in frame.cells(fieldname)),
            np.bool_,
            len(frame),
        )
    if op in _ORDERING:
        return _ordering_mask(frame, fieldname, op, operand)
    raise ValueError(f"unknown query operator {op!r}")


def mask_for(frame: ColumnFrame, query: dict | None) -> np.ndarray:
    """Boolean row mask of the documents matching ``query``."""
    mask = np.ones(len(frame), dtype=bool)
    for fieldname, condition in (query or {}).items():
        if isinstance(condition, dict) and any(
            key.startswith("$") for key in condition
        ):
            for op, operand in condition.items():
                mask &= _op_mask(frame, fieldname, op, operand)
        else:
            mask &= _eq_mask(frame, fieldname, condition)
    return mask


# -- the planner --------------------------------------------------------------


def _iter_predicates(query: dict):
    """Yield ``(fieldname, op, operand, plain)`` for every predicate.

    ``plain`` marks bare-equality conditions (``{"city": "lima"}``) —
    the only form the store's index-selection rule considers.
    """
    for fieldname, condition in query.items():
        if isinstance(condition, dict) and any(
            key.startswith("$") for key in condition
        ):
            # Unknown operators pass through here and raise at
            # evaluation time, exactly like a per-document scan (a
            # query that never evaluates them never raises).
            yield from (
                (fieldname, op, operand, False) for op, operand in condition.items()
            )
        else:
            yield fieldname, "$eq", condition, True


def plan_key(query: dict) -> tuple:
    """Hashable shape of a query: fields, ops, and operand types (not
    values), in query order.  Two queries with the same key evaluate
    with the same plan."""
    return tuple(
        (fieldname, op, plain, operand.__class__)
        for fieldname, op, operand, plain in _iter_predicates(query)
    )


def _narrow_positions(
    frame: ColumnFrame, positions: np.ndarray, fieldname: str, op: str, operand
) -> np.ndarray:
    """Filter a candidate position array through one predicate.

    Same per-value semantics as :func:`_op_mask`, evaluated only on the
    surviving rows: a fancy-indexed numpy comparison when that is safe,
    otherwise a python pass over the raw cells.
    """
    if len(positions) == 0:
        return positions
    if op == "$exists":
        keep = frame.present(fieldname)[positions]
        return positions[keep if operand else ~keep]
    # The fancy-indexed comparison only pays for itself when the
    # candidate set is large, or when the column's numpy shadow is
    # already materialized; a handful of survivors from an index probe
    # is cheaper to verify off the raw cells than to coerce a 10k-row
    # column for.
    vectorize = len(positions) >= _VECTOR_MIN or fieldname in frame._views
    if vectorize and op in _ORDERING and _vector_comparable(frame, fieldname, operand):
        keep = _ORDERING_UFUNC[op](frame.column(fieldname)[positions], operand)
        return positions[keep]
    if (
        vectorize
        and op in ("$eq", "$ne")
        and _vector_comparable(frame, fieldname, operand)
    ):
        keep = frame.column(fieldname)[positions] == operand
        return positions[keep if op == "$eq" else ~keep]
    # Python fallback with the scalar semantics (missing keys read as
    # None; ordering never matches None; $in keeps `in` semantics).
    values = frame._columns.get(fieldname)
    if values is None:
        cell = lambda position: None  # noqa: E731 - local accessor
    else:

        def cell(position, _values=values):
            value = _values[position]
            return None if value is _ABSENT else value

    if op == "$eq":
        keep = [cell(p) == operand for p in positions.tolist()]
    elif op == "$ne":
        keep = [cell(p) != operand for p in positions.tolist()]
    elif op == "$in":
        keep = [cell(p) in operand for p in positions.tolist()]
    elif op in _ORDERING:
        compare = _ORDERING[op]
        keep = [
            (value := cell(p)) is not None and compare(value, operand)
            for p in positions.tolist()
        ]
    else:
        raise ValueError(f"unknown query operator {op!r}")
    return positions[np.asarray(keep, dtype=bool)]


class QueryPlan:
    """A reusable evaluation order for one query shape.

    ``entries`` is the predicate list in evaluation order; each entry is
    ``(fieldname, op, plain)`` and fetches its operand from the concrete
    query dict at execution time, so one compiled plan serves every
    query with the same shape.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: list[tuple[str, str, bool]]) -> None:
        self.entries = entries

    @staticmethod
    def _operand(query: dict, fieldname: str, op: str, plain: bool):
        condition = query[fieldname]
        return condition if plain else condition[op]

    def positions(
        self,
        frame: ColumnFrame,
        query: dict,
        seed: np.ndarray | list[int] | None = None,
    ) -> np.ndarray:
        """Matching row positions, ascending (= insertion order).

        ``seed`` narrows evaluation to candidate positions from an
        index probe; every predicate (including the probed one) is
        still verified, so probe semantics can be looser than operator
        semantics (a hash bucket holds NaN keys equality rejects).
        """
        if seed is not None:
            positions = np.asarray(seed, dtype=np.int64)
            remaining = self.entries
        elif not self.entries:
            return np.arange(len(frame), dtype=np.int64)
        else:
            fieldname, op, plain = self.entries[0]
            mask = _op_mask(
                frame, fieldname, op, self._operand(query, fieldname, op, plain)
            )
            positions = np.nonzero(mask)[0].astype(np.int64, copy=False)
            remaining = self.entries[1:]
        for fieldname, op, plain in remaining:
            if len(positions) == 0:
                break
            positions = _narrow_positions(
                frame,
                positions,
                fieldname,
                op,
                self._operand(query, fieldname, op, plain),
            )
        return positions

    def count(
        self,
        frame: ColumnFrame,
        query: dict,
        seed: np.ndarray | list[int] | None = None,
    ) -> int:
        """Number of matching rows.  Single-predicate unseeded queries
        count the mask directly and skip position materialization."""
        if seed is None and len(self.entries) == 1:
            fieldname, op, plain = self.entries[0]
            mask = _op_mask(
                frame, fieldname, op, self._operand(query, fieldname, op, plain)
            )
            return int(np.count_nonzero(mask))
        return int(len(self.positions(frame, query, seed=seed)))


def compile_plan(query: dict) -> QueryPlan:
    """Build a :class:`QueryPlan`: predicates sorted by estimated
    selectivity (stable, so equal ranks keep query order)."""
    predicates = [
        (fieldname, op, plain) for fieldname, op, operand, plain in _iter_predicates(query)
    ]
    # Unknown operators rank last so every legitimate predicate gets a
    # chance to empty the candidate set before they raise.
    predicates.sort(key=lambda entry: _SELECTIVITY_RANK.get(entry[1], 99))
    return QueryPlan(predicates)
