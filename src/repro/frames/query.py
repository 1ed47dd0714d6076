"""Evaluate Mongo-style queries over a :class:`ColumnFrame`.

The operator language is exactly the document store's (``$eq``, ``$ne``,
``$gt``, ``$gte``, ``$lt``, ``$lte``, ``$in``, ``$exists``) with the
semantics of a scan that tests every document in insertion order (the
reference matcher in ``tests/oracles.py``), including the corner cases:

* a missing key reads as ``None`` for every operator except ``$exists``,
  which tests key *presence* (so ``field: None`` satisfies
  ``{"$exists": True}`` while an absent key does not);
* ordering operators never match ``None``;
* an unknown operator raises ``ValueError`` and comparing incomparable
  types raises ``TypeError``, exactly when the scan would: as soon as
  one row reaches the predicate.

:func:`matching_positions` is the one evaluator.  It applies the
predicates in query-dict order, each to the rows every earlier
predicate kept, so a row reaches a predicate here exactly when it does
in the scan.  A predicate compares as one numpy expression where that
cannot diverge from the scalar semantics and falls back to a python
pass over the raw cells otherwise.  Matching positions come back
ascending, i.e. in insertion order.
"""

from __future__ import annotations

import operator

import numpy as np

from .frame import ColumnFrame

__all__ = ["matching_positions", "QUERY_OPERATORS"]

#: The operator names the evaluator understands (the store's language).
QUERY_OPERATORS = ("$eq", "$ne", "$gt", "$gte", "$lt", "$lte", "$in", "$exists")

_ORDERING = {
    "$gt": operator.gt,
    "$gte": operator.ge,
    "$lt": operator.lt,
    "$lte": operator.le,
}
_UFUNC = {
    "$eq": np.equal,
    "$ne": np.not_equal,
    "$gt": np.greater,
    "$gte": np.greater_equal,
    "$lt": np.less,
    "$lte": np.less_equal,
}

_NUMERIC_KINDS = ("float", "int", "bool")


def _vector_comparable(frame: ColumnFrame, fieldname: str, operand) -> bool:
    """Whether ``column <op> operand`` is safe as one numpy expression."""
    kind = frame.native_kind(fieldname)
    if kind in _NUMERIC_KINDS:
        return isinstance(operand, (int, float))
    if kind == "str":
        return isinstance(operand, str)
    return False


def _keep(
    frame: ColumnFrame, positions: np.ndarray, fieldname: str, op: str, operand
) -> np.ndarray:
    """Boolean mask over ``positions``: the rows one predicate keeps."""
    if op == "$exists":
        present = frame.present(fieldname)[positions]
        return present if operand else ~present
    if op in _UFUNC and _vector_comparable(frame, fieldname, operand):
        return _UFUNC[op](frame.column(fieldname)[positions], operand)
    cells = frame.run(positions).cells(fieldname)
    if op == "$eq":
        keep = [value == operand for value in cells]
    elif op == "$ne":
        keep = [value != operand for value in cells]
    elif op == "$in":
        keep = [value in operand for value in cells]
    elif op in _ORDERING:
        compare = _ORDERING[op]
        keep = [value is not None and compare(value, operand) for value in cells]
    else:
        raise ValueError(f"unknown query operator {op!r}")
    return np.array(keep, dtype=bool)


def matching_positions(
    frame: ColumnFrame, query: dict | None, candidates=None
) -> np.ndarray:
    """Ascending positions of the rows of ``frame`` that match ``query``.

    ``candidates`` (ascending positions, e.g. an index bucket) limits
    the rows considered.  Every candidate is still tested against every
    predicate, so a probe may hand over a superset of the matches.
    Evaluation stops once no row is left, so a later predicate that
    would raise never runs.
    """
    if candidates is None:
        positions = np.arange(len(frame), dtype=np.int64)
    else:
        positions = np.asarray(candidates, dtype=np.int64)
    for fieldname, condition in (query or {}).items():
        if isinstance(condition, dict) and any(
            key.startswith("$") for key in condition
        ):
            predicates = condition.items()
        else:
            predicates = (("$eq", condition),)
        for op, operand in predicates:
            if len(positions) == 0:
                return positions
            positions = positions[_keep(frame, positions, fieldname, op, operand)]
    return positions
