"""Tests for the staged write path of the columnar collections, and
for query results (and the per-position row cache) across inserts."""

import pytest

from repro.frames.frame import SchemaMismatchError
from repro.platform.store import DocumentStore
from tests.oracles import BruteForceCollection


def _fast_run(install_id, start, foreground=None):
    return {
        "install_id": install_id,
        "participant_id": "100000",
        "start": start,
        "end": start + 100.0,
        "period": 5.0,
        "foreground": foreground,
        "screen_on": True,
        "battery": 0.5,
        "usage_permission": True,
        "_type": "fast_run",
    }


def _collection():
    collection = DocumentStore().collection("fast_runs")
    collection.create_index("install_id")
    return collection


class TestStagedWrites:
    def test_writes_stage_until_first_read(self):
        collection = _collection()
        collection.insert_many([_fast_run("a", 0.0), _fast_run("b", 10.0)])
        collection.insert(_fast_run("c", 20.0))
        assert len(collection) == 3
        assert len(collection._frame) == 0  # nothing merged yet
        assert collection.find_one({"install_id": "c"})["start"] == 20.0
        assert len(collection._frame) == 3  # the read merged the backlog

    def test_compact_settles_the_backlog(self):
        store = DocumentStore()
        collection = store.collection("fast_runs")
        collection.insert_many([_fast_run("a", 0.0)])
        store.compact()
        assert len(collection._frame) == 1
        store.compact()  # a settled store compacts to a no-op
        assert len(collection._frame) == 1

    def test_insert_many_raises_at_offending_record_keeping_earlier(self):
        collection = _collection()
        with pytest.raises(TypeError):
            collection.insert_many([_fast_run("a", 0.0), "nope"])
        assert len(collection) == 1
        assert collection.find_one({"install_id": "a"}) is not None

    def test_off_schema_insert_raises_at_the_call_keeping_earlier(self):
        collection = _collection()
        collection.insert(_fast_run("a", 0.0))
        with pytest.raises(SchemaMismatchError, match="fast_runs"):
            collection.insert({"install_id": "b", "odd": True})
        with pytest.raises(SchemaMismatchError, match="fast_runs"):
            collection.insert_many([_fast_run("c", 10.0), {"install_id": "d"}])
        assert len(collection) == 2
        assert [d["install_id"] for d in collection.find()] == ["a", "c"]
        assert collection.find({"install_id": "b"}) == []


class TestResultCache:
    """Query results across inserts, and the per-position row cache."""

    def test_repeated_find_returns_fresh_list_of_same_rows(self):
        collection = _collection()
        collection.insert_many([_fast_run("a", 0.0), _fast_run("a", 10.0)])
        first = collection.find({"install_id": "a"})
        second = collection.find({"install_id": "a"})
        assert first == second
        assert first is not second  # callers may mutate the container
        assert first[0] is second[0]  # ...but rows are the stored dicts

    def test_insert_invalidates_cached_results(self):
        collection = _collection()
        collection.insert_many([_fast_run("a", 0.0)])
        assert collection.count({"install_id": "a"}) == 1
        assert collection.distinct("install_id") == ["a"]
        collection.insert(_fast_run("a", 10.0))
        collection.insert(_fast_run("b", 20.0))
        assert collection.count({"install_id": "a"}) == 2
        assert len(collection.find({"install_id": "a"})) == 2
        assert collection.distinct("install_id") == sorted(["a", "b"], key=repr)

    def test_interleaved_results_keep_insertion_order(self):
        dict_col = BruteForceCollection()
        columnar_col = _collection()
        for k in range(40):
            doc = _fast_run("a" if k % 2 else "b", float(40 - k))
            dict_col.insert(doc)
            columnar_col.insert(doc)
            query = {"install_id": doc["install_id"]}
            assert dict_col.find(query) == columnar_col.find(query)


class TestIndexAcrossMerges:
    """Index probes interleaved with inserts: each merge extends the
    buckets, and a probe returns its rows in insertion order."""

    def test_probe_after_a_small_merge(self):
        collection = _collection()
        collection.insert_many(
            [_fast_run(f"i{k % 10}", float(k)) for k in range(100)]
        )
        assert [d["start"] for d in collection.find({"install_id": "i9"})] == [
            float(k) for k in range(9, 100, 10)
        ]
        for k in range(5):
            collection.insert(_fast_run("i9", 1000.0 + k))
        found = collection.find({"install_id": "i9"})
        assert [d["start"] for d in found][-6:] == [
            99.0,
            1000.0,
            1001.0,
            1002.0,
            1003.0,
            1004.0,
        ]
        assert len(found) == 15

    def test_index_built_on_staged_rows_then_extended(self):
        first = [_fast_run("a", float(k)) for k in range(3)]
        later = [_fast_run("b", 10.0), _fast_run("a", 20.0)]
        collection = DocumentStore().collection("fast_runs")
        collection.insert_many(first)
        collection.create_index("install_id")  # merges the backlog first
        collection.insert_many(later)
        oracle = BruteForceCollection([*first, *later])
        for install_id in ("a", "b", "c"):
            query = {"install_id": install_id}
            assert collection.find(query) == oracle.find(query)
        assert [d["start"] for d in collection.find({"install_id": "a"})] == [
            0.0,
            1.0,
            2.0,
            20.0,
        ]
