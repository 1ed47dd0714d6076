"""Tests for the columnar record frames (schema, frame, query evaluation)."""

import math

import numpy as np
import pytest

from repro.frames import (
    QUERY_OPERATORS,
    ColumnFrame,
    Field,
    FrameRow,
    RecordSchema,
    matching_positions,
)
from repro.frames.frame import SchemaMismatchError

POINT_SCHEMA = RecordSchema(
    "point",
    (
        Field("name", "str"),
        Field("x", "float"),
        Field("n", "int"),
        Field("flag", "bool"),
        Field("tag", "str", nullable=True),
        Field("payload", "object"),
    ),
)


def make_typed() -> ColumnFrame:
    frame = ColumnFrame(POINT_SCHEMA)
    frame.extend(
        [
            {"name": "a", "x": 1.5, "n": 1, "flag": True, "tag": "t1", "payload": [1]},
            {"name": "b", "x": -2.0, "n": 2, "flag": False, "tag": None, "payload": {}},
            {"name": "c", "x": 0.0, "n": 3, "flag": True, "tag": "t2", "payload": ()},
        ]
    )
    return frame


def make_generic() -> ColumnFrame:
    frame = ColumnFrame()
    frame.extend(
        [
            {"a": 1, "b": "x"},
            {"a": 2},
            {"a": 3, "b": None, "c": [1, 2]},
        ]
    )
    return frame


class TestSchema:
    def test_field_kinds_validated(self):
        with pytest.raises(ValueError):
            Field("bad", "decimal")

    def test_duplicate_field_names_rejected(self):
        with pytest.raises(ValueError):
            RecordSchema("dup", (Field("a", "int"), Field("a", "str")))

    def test_contains_and_lookup(self):
        assert "x" in POINT_SCHEMA
        assert "missing" not in POINT_SCHEMA
        with pytest.raises(KeyError):
            POINT_SCHEMA.field("missing")


class TestTypedFrame:
    def test_roundtrip_preserves_rows_and_objects(self):
        frame = make_typed()
        payload = [1]
        frame.append(
            {"name": "d", "x": 9.0, "n": 4, "flag": False, "tag": None, "payload": payload}
        )
        row = frame.row(3)
        assert row["payload"] is payload  # nested values kept by reference
        assert list(row) == [f.name for f in POINT_SCHEMA.fields]

    def test_schema_mismatch_raises(self):
        frame = make_typed()
        with pytest.raises(SchemaMismatchError):
            frame.append({"name": "e", "x": 1.0})  # missing fields
        with pytest.raises(SchemaMismatchError):
            frame.append({**frame.row(0), "extra": 1})  # extra field

    def test_native_dtype_columns(self):
        frame = make_typed()
        assert frame.column("x").dtype == np.float64
        assert frame.column("n").dtype == np.int64
        assert frame.column("flag").dtype == np.bool_
        assert frame.column("tag").dtype == object  # nullable -> object

    def test_column_cache_invalidated_on_append(self):
        frame = make_typed()
        first = frame.column("x")
        assert frame.column("x") is first  # cached
        frame.append(
            {"name": "d", "x": 7.0, "n": 4, "flag": True, "tag": None, "payload": None}
        )
        assert len(frame.column("x")) == 4

    def test_present_is_all_true(self):
        frame = make_typed()
        assert frame.present("x").all()


class TestGenericFrame:
    def test_absent_vs_none(self):
        frame = make_generic()
        # Row 1 never carried "b": cell raises like a dict, get -> None.
        with pytest.raises(KeyError):
            frame.cell("b", 1)
        # Row 2 carries an explicit None.
        assert frame.cell("b", 2) is None
        assert list(frame.present("b")) == [True, False, True]

    def test_backfill_of_late_columns(self):
        frame = make_generic()
        assert frame.row(0) == {"a": 1, "b": "x"}
        assert frame.row(2) == {"a": 3, "b": None, "c": [1, 2]}

    def test_unknown_column_reads_as_none(self):
        frame = make_generic()
        assert list(frame.cells("zzz")) == [None, None, None]
        assert not frame.present("zzz").any()
        assert frame.column("zzz").dtype == object

    def test_column_order_follows_first_seen(self):
        frame = make_generic()
        frame.extend([{"c": [3], "b": "y", "a": 4}])
        assert list(frame.row(3)) == ["a", "b", "c"]


class TestFrameRow:
    def test_mapping_protocol(self):
        frame = make_generic()
        row = frame.view(2)
        assert isinstance(row, FrameRow)
        assert row["a"] == 3
        assert row.get("missing") is None
        assert {**row} == {"a": 3, "b": None, "c": [1, 2]}
        assert len(row) == 3

    def test_row_without_key_skips_it(self):
        frame = make_generic()
        row = frame.view(1)
        assert "b" not in row
        assert dict(row) == {"a": 2}


def mask_for(frame: ColumnFrame, query) -> np.ndarray:
    """Boolean row mask of the rows ``matching_positions`` returns."""
    mask = np.zeros(len(frame), dtype=bool)
    mask[matching_positions(frame, query)] = True
    return mask


class TestMaskFor:
    def test_every_operator_matches_scalar_semantics(self):
        frame = make_typed()
        cases = {
            "$eq": ({"x": {"$eq": 1.5}}, [True, False, False]),
            "$ne": ({"x": {"$ne": 1.5}}, [False, True, True]),
            "$gt": ({"x": {"$gt": 0.0}}, [True, False, False]),
            "$gte": ({"x": {"$gte": 0.0}}, [True, False, True]),
            "$lt": ({"n": {"$lt": 3}}, [True, True, False]),
            "$lte": ({"n": {"$lte": 2}}, [True, True, False]),
            "$in": ({"name": {"$in": ["a", "c"]}}, [True, False, True]),
            "$exists": ({"tag": {"$exists": True}}, [True, True, True]),
        }
        assert set(cases) == set(QUERY_OPERATORS)
        for op, (query, expected) in cases.items():
            assert list(mask_for(frame, query)) == expected, op

    def test_exists_distinguishes_none_from_absent(self):
        frame = make_generic()
        assert list(mask_for(frame, {"b": {"$exists": True}})) == [True, False, True]
        assert list(mask_for(frame, {"b": {"$exists": False}})) == [False, True, False]

    def test_ordering_never_matches_none_or_absent(self):
        frame = make_generic()
        assert list(mask_for(frame, {"b": {"$gt": ""}})) == [True, False, False]

    def test_plain_equality_and_combined(self):
        frame = make_typed()
        assert list(mask_for(frame, {"flag": True, "n": {"$gt": 1}})) == [
            False,
            False,
            True,
        ]

    def test_empty_query_matches_all(self):
        frame = make_typed()
        assert mask_for(frame, None).all()
        assert mask_for(frame, {}).all()

    def test_unknown_operator_raises(self):
        with pytest.raises(ValueError, match="unknown query operator"):
            mask_for(make_typed(), {"x": {"$regex": ".*"}})

    def test_incomparable_types_raise_like_scalar_path(self):
        frame = make_typed()
        with pytest.raises(TypeError):
            mask_for(frame, {"name": {"$gt": 1}})
