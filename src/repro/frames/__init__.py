"""``repro.frames`` — the typed columnar data plane.

The server ingests snapshot records as dicts; at paper scale (58.3M
snapshots, §3) a dict-per-document store and per-row feature loops are
the dominant cost of everything §6–§8 computes.  This package declares
the record schemas for the snapshot families the platform handles and
provides :class:`ColumnFrame`, a struct-of-arrays container built on
numpy: every frame has one schema, documents carrying exactly its
fields append into per-field columns, one evaluator answers equality
queries over them (:func:`matching_positions`, in
:mod:`repro.frames.query`), and analyses read zero-copy
:class:`FrameRow` mapping views instead of materialized dicts.

The hard contract of the data plane (DESIGN.md §9): the store returns
what a brute-force scan over plain dicts returns, and the feature
matrices equal the per-row scalar extractors byte for byte; both
references live in ``tests/oracles.py``.
"""

from .frame import ColumnFrame, ColumnRun, FrameRow
from .query import matching_positions
from .schema import (
    APP_CHANGE_SCHEMA,
    FAST_RUN_SCHEMA,
    INITIAL_SCHEMA,
    INSTALL_SCHEMA,
    SCHEMA_BY_COLLECTION,
    SLOW_RUN_SCHEMA,
    Field,
    RecordSchema,
)

__all__ = [
    "ColumnFrame",
    "ColumnRun",
    "FrameRow",
    "matching_positions",
    "Field",
    "RecordSchema",
    "SLOW_RUN_SCHEMA",
    "FAST_RUN_SCHEMA",
    "APP_CHANGE_SCHEMA",
    "INITIAL_SCHEMA",
    "INSTALL_SCHEMA",
    "SCHEMA_BY_COLLECTION",
]
