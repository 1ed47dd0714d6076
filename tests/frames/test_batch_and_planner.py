"""Tests for the batch append fast path, the query evaluator's
candidate seeding, and contiguous column runs."""

import pytest

from repro.frames import (
    ColumnFrame,
    ColumnRun,
    Field,
    RecordSchema,
    matching_positions,
)
from repro.frames.frame import SchemaMismatchError

RUN_SCHEMA = RecordSchema(
    "run",
    (
        Field("install_id", "str"),
        Field("start", "float"),
        Field("count", "int"),
        Field("active", "bool"),
        Field("label", "str", nullable=True),
    ),
)


def _docs(n=8):
    return [
        {
            "install_id": f"i{k % 3}",
            "start": float(k) * 10.0,
            "count": k,
            "active": k % 2 == 0,
            "label": None if k % 4 == 0 else f"l{k}",
        }
        for k in range(n)
    ]


def _typed(docs=None):
    frame = ColumnFrame(RUN_SCHEMA)
    frame.extend_batch(docs if docs is not None else _docs())
    return frame


class TestExtendBatch:
    def test_matches_per_document_appends(self):
        docs = _docs()
        batch = _typed(docs)
        serial = ColumnFrame(RUN_SCHEMA)
        for doc in docs:
            serial.extend_batch([doc])
        assert len(batch) == len(serial) == len(docs)
        assert [batch.row(i) for i in range(len(docs))] == docs
        assert [serial.row(i) for i in range(len(docs))] == docs

    def test_missing_field_raises_and_leaves_frame_untouched(self):
        frame = _typed()
        before = [frame.row(i) for i in range(len(frame))]
        bad = _docs(3)
        del bad[1]["start"]
        with pytest.raises(SchemaMismatchError):
            frame.extend_batch(bad)
        assert len(frame) == len(before)
        assert [frame.row(i) for i in range(len(frame))] == before

    def test_extra_field_raises_and_leaves_frame_untouched(self):
        frame = _typed()
        before = len(frame)
        bad = _docs(3)
        bad[2]["extra"] = 1
        with pytest.raises(SchemaMismatchError):
            frame.extend_batch(bad)
        assert len(frame) == before

    def test_swapped_field_same_width_raises(self):
        # Same key count as the schema but a wrong key: the per-column
        # extraction must catch what the width check cannot, and roll
        # the partially extended columns back.
        frame = _typed()
        before = [frame.row(i) for i in range(len(frame))]
        bad = _docs(2)
        bad[1]["wrong"] = bad[1].pop("label")
        with pytest.raises(SchemaMismatchError):
            frame.extend_batch(bad)
        assert [frame.row(i) for i in range(len(frame))] == before

    def test_non_mapping_documents_raise(self):
        frame = _typed()
        with pytest.raises(SchemaMismatchError):
            frame.extend_batch([_docs(1)[0], 42])

    def test_non_mapping_of_schema_width_rolls_back(self):
        # A five-character string passes the key-count check for the
        # five-field schema; the column extraction then fails on it
        # after earlier columns were extended, and must undo them.
        frame = _typed()
        before = [frame.row(i) for i in range(len(frame))]
        with pytest.raises(SchemaMismatchError):
            frame.extend_batch([_docs(1)[0], "abcde"])
        assert len(frame) == len(before)
        for name in RUN_SCHEMA.field_names:
            assert len(frame.values(name)) == len(before)
        assert [frame.row(i) for i in range(len(frame))] == before


class TestPlanner:
    """``matching_positions`` with and without index candidates."""

    def test_seed_is_reverified_not_trusted(self):
        # Candidates are a superset: positions that fail the
        # predicates must be filtered out, whatever the caller claims.
        frame = _typed()
        query = {"install_id": "i1"}
        seeded = matching_positions(frame, query, candidates=range(len(frame)))
        assert seeded.tolist() == matching_positions(frame, query).tolist() == [1, 4, 7]

    def test_candidates_limit_the_rows_considered(self):
        frame = _typed()
        query = {"install_id": "i1"}
        assert matching_positions(frame, query, candidates=[1, 4]).tolist() == [1, 4]
        assert matching_positions(frame, query, candidates=[0, 2, 3]).tolist() == []

    def test_empty_query_returns_every_row_or_the_candidates(self):
        frame = _typed()
        assert matching_positions(frame, None).tolist() == list(range(len(frame)))
        assert matching_positions(frame, {}, candidates=[2, 5]).tolist() == [2, 5]

    def test_unknown_operator_raises_at_evaluation_not_compile(self):
        # Like a per-document scan: the unknown operator raises once a
        # row reaches it, and never when no row does.
        frame = _typed()
        query = {"install_id": {"$regex": "i.*"}}
        assert matching_positions(frame, query, candidates=[]).tolist() == []
        assert matching_positions(frame, {"count": -1, **query}).tolist() == []
        with pytest.raises(ValueError, match="regex"):
            matching_positions(frame, query)


class TestColumnRun:
    def test_run_slices_are_contiguous_views_of_the_frame(self):
        frame = _typed()
        positions = [1, 3, 5]
        run = frame.run(positions)
        assert isinstance(run, ColumnRun)
        assert len(run) == 3
        assert run.column("start").tolist() == [10.0, 30.0, 50.0]
        assert run.cells("label") == [frame.values("label")[p] for p in positions]
        assert [dict(row) for row in run] == [frame.row(p) for p in positions]

    def test_indexing_slicing_and_reversal_follow_positions(self):
        frame = _typed()
        run = frame.run([1, 3, 5])
        assert dict(run[0]) == frame.row(1)
        assert dict(run[-1]) == frame.row(5)
        tail = run[1:]
        assert isinstance(tail, ColumnRun)
        assert tail.positions.tolist() == [3, 5]
        assert [dict(row) for row in reversed(run)] == [frame.row(p) for p in (5, 3, 1)]
