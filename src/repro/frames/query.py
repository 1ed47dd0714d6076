"""Evaluate equality queries over a :class:`ColumnFrame`.

A query is a dict ``{field: value, ...}``; a row matches when every
named cell ``==`` its value.  That is the whole of the document store's
query language, with the semantics of a scan that tests every document
in insertion order (the reference matcher in ``tests/oracles.py``).  A
value that is a dict with a ``$``-prefixed key (a Mongo-style operator)
raises ``ValueError``, and a field the schema does not declare raises
``KeyError``, exactly when the scan would: as soon as one row reaches
the predicate.

:func:`matching_positions` is the one evaluator.  It applies the
predicates in query-dict order, each to the rows every earlier
predicate kept, so a row reaches a predicate here exactly when it does
in the scan.  A predicate compares as one numpy expression where that
cannot diverge from python's ``==`` and falls back to a python pass
over the raw cells otherwise.  Matching positions come back ascending,
i.e. in insertion order.
"""

from __future__ import annotations

import numpy as np

from .frame import ColumnFrame

__all__ = ["matching_positions"]

_NUMERIC_KINDS = ("float", "int", "bool")


def _vector_comparable(frame: ColumnFrame, fieldname: str, value) -> bool:
    """Whether ``column == value`` is safe as one numpy expression."""
    kind = frame.native_kind(fieldname)
    if kind in _NUMERIC_KINDS:
        return isinstance(value, (int, float))
    if kind == "str":
        return isinstance(value, str)
    return False


def _keep(
    frame: ColumnFrame, positions: np.ndarray, fieldname: str, value
) -> np.ndarray:
    """Boolean mask over ``positions``: the rows whose cell equals ``value``."""
    if isinstance(value, dict):
        for key in value:
            if key.startswith("$"):
                raise ValueError(f"unknown query operator {key!r}")
    if _vector_comparable(frame, fieldname, value):
        return np.equal(frame.column(fieldname)[positions], value)
    cells = frame.run(positions).cells(fieldname)
    return np.array([cell == value for cell in cells], dtype=bool)


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
    for fieldname, value in (query or {}).items():
        if len(positions) == 0:
            return positions
        positions = positions[_keep(frame, positions, fieldname, value)]
    return positions
