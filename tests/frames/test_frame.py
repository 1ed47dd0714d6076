"""Tests for the columnar record frames (schema, frame, query evaluation)."""

import numpy as np
import pytest

from repro.frames import (
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
    frame.extend_batch(
        [
            {"name": "a", "x": 1.5, "n": 1, "flag": True, "tag": "t1", "payload": [1]},
            {"name": "b", "x": -2.0, "n": 2, "flag": False, "tag": None, "payload": {}},
            {"name": "c", "x": 0.0, "n": 3, "flag": True, "tag": "t2", "payload": ()},
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
        frame.extend_batch(
            [{"name": "d", "x": 9.0, "n": 4, "flag": False, "tag": None, "payload": payload}]
        )
        row = frame.row(3)
        assert row["payload"] is payload  # nested values kept by reference
        assert list(row) == [f.name for f in POINT_SCHEMA.fields]

    def test_schema_mismatch_raises(self):
        frame = make_typed()
        before = [frame.row(i) for i in range(len(frame))]
        with pytest.raises(SchemaMismatchError):
            frame.extend_batch([{"name": "e", "x": 1.0}])  # missing fields
        with pytest.raises(SchemaMismatchError):
            frame.extend_batch([{**frame.row(0), "extra": 1}])  # extra field
        assert [frame.row(i) for i in range(len(frame))] == before

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
        frame.extend_batch(
            [{"name": "d", "x": 7.0, "n": 4, "flag": True, "tag": None, "payload": None}]
        )
        assert len(frame.column("x")) == 4

    def test_undeclared_field_raises_key_error(self):
        frame = make_typed()
        with pytest.raises(KeyError):
            frame.cell("zzz", 0)
        with pytest.raises(KeyError):
            frame.column("zzz")
        with pytest.raises(KeyError):
            frame.run([0, 1]).cells("zzz")


class TestFrameRow:
    def test_mapping_protocol(self):
        frame = make_typed()
        row = frame.view(2)
        assert isinstance(row, FrameRow)
        assert row["n"] == 3
        assert row.get("missing") is None
        assert {**row} == frame.row(2)
        assert list(row) == list(POINT_SCHEMA.field_names)
        assert len(row) == len(POINT_SCHEMA.fields)

    def test_undeclared_key_is_not_in_the_row(self):
        row = make_typed().view(1)
        assert "missing" not in row
        with pytest.raises(KeyError):
            row["missing"]
        assert dict(row) == make_typed().row(1)


def mask_for(frame: ColumnFrame, query) -> np.ndarray:
    """Boolean row mask of the rows ``matching_positions`` returns."""
    mask = np.zeros(len(frame), dtype=bool)
    mask[matching_positions(frame, query)] = True
    return mask


class TestMaskFor:
    def test_equality_on_native_and_object_columns(self):
        frame = make_typed()
        cases = [
            ({"x": -2.0}, [False, True, False]),  # float64 column
            ({"n": 2.0}, [False, True, False]),  # int64 column, float value
            ({"flag": True}, [True, False, True]),  # bool_ column
            ({"name": "c"}, [False, False, True]),  # str column
            ({"tag": None}, [False, True, False]),  # nullable column
            ({"payload": {}}, [False, True, False]),  # a dict with no $ key
            ({"name": 1}, [False, False, False]),  # value of another kind
        ]
        for query, expected in cases:
            assert list(mask_for(frame, query)) == expected, query

    def test_plain_equality_and_combined(self):
        frame = make_typed()
        assert list(mask_for(frame, {"flag": True, "n": 3})) == [
            False,
            False,
            True,
        ]

    def test_empty_query_matches_all(self):
        frame = make_typed()
        assert mask_for(frame, None).all()
        assert mask_for(frame, {}).all()

    def test_unknown_operator_raises(self):
        for operand in ({"$regex": ".*"}, {"$gte": 0.0}, {"$eq": 1.5}):
            with pytest.raises(ValueError, match="unknown query operator"):
                mask_for(make_typed(), {"x": operand})

    def test_undeclared_field_raises_once_a_row_reaches_it(self):
        frame = make_typed()
        with pytest.raises(KeyError):
            mask_for(frame, {"zzz": 1})
        assert matching_positions(frame, {"name": "none", "zzz": 1}).tolist() == []
