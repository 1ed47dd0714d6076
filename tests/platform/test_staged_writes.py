"""Tests for the staged write path of the columnar collections, and
for query results (and the per-position row cache) across inserts."""

import pytest

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

    def test_schema_mismatch_degrades_at_read_with_all_documents_kept(self):
        dict_col = BruteForceCollection()
        columnar_col = _collection()
        docs = [_fast_run("a", 0.0), {"install_id": "b", "odd": True}]
        for collection in (dict_col, columnar_col):
            collection.insert_many(docs)
        assert dict_col.find() == columnar_col.find()
        assert dict_col.find({"install_id": "b"}) == columnar_col.find(
            {"install_id": "b"}
        )


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

    def test_unhashable_operand_bypasses_cache(self):
        collection = _collection()
        collection.insert_many([_fast_run("a", 0.0, foreground="app1")])
        query = {"foreground": {"$in": ["app1", "app2"]}}
        assert len(collection.find(query)) == 1
        collection.insert(_fast_run("b", 10.0, foreground="app2"))
        assert len(collection.find(query)) == 2


class TestSortedIndexDelta:
    """Range queries on an indexed field, interleaved with inserts."""

    def test_small_delta_probed_without_merge(self):
        collection = _collection()
        collection.create_index("start")
        collection.insert_many([_fast_run("a", float(k) * 10.0) for k in range(100)])
        assert [
            d["start"] for d in collection.find({"start": {"$gte": 900.0}})
        ] == [900.0, 910.0, 920.0, 930.0, 940.0, 950.0, 960.0, 970.0, 980.0, 990.0]
        for k in range(5):
            collection.insert(_fast_run("b", 1000.0 + k))
        found = collection.find({"start": {"$gt": 985.0}})
        assert [d["start"] for d in found] == [990.0, 1000.0, 1001.0, 1002.0, 1003.0, 1004.0]

    def test_large_delta_merges_and_stays_correct(self):
        collection = _collection()
        collection.create_index("start")
        collection.insert_many([_fast_run("a", float(k)) for k in range(64)])
        collection.find({"start": {"$lt": 10.0}})
        collection.insert_many([_fast_run("b", float(k) + 0.5) for k in range(64)])
        found = collection.find({"start": {"$gte": 60.0}})
        assert [d["start"] for d in found] == [60.0, 61.0, 62.0, 63.0, 60.5, 61.5, 62.5, 63.5]

    def test_interleaved_results_keep_insertion_order(self):
        dict_col = BruteForceCollection()
        columnar_col = _collection()
        for k in range(40):
            doc = _fast_run("a" if k % 2 else "b", float(40 - k))
            dict_col.insert(doc)
            columnar_col.insert(doc)
            query = {"start": {"$lte": float(40 - k) + 5.0}}
            assert dict_col.find(query) == columnar_col.find(query)
