"""Tests for the Mongo-like document store."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platform.store import ColumnarCollection, DocumentStore
from tests.oracles import BruteForceCollection


@pytest.fixture()
def people():
    collection = ColumnarCollection("people")
    collection.insert_many(
        [
            {"name": "ana", "age": 30, "city": "lima"},
            {"name": "bob", "age": 25, "city": "dhaka"},
            {"name": "eve", "age": 35, "city": "lima"},
            {"name": "sam", "age": 25},
        ]
    )
    return collection


class TestQueries:
    def test_equality(self, people):
        assert len(people.find({"city": "lima"})) == 2

    def test_operators(self, people):
        assert len(people.find({"age": {"$gt": 25}})) == 2
        assert len(people.find({"age": {"$gte": 25}})) == 4
        assert len(people.find({"age": {"$lt": 30}})) == 2
        assert len(people.find({"age": {"$ne": 25}})) == 2
        assert len(people.find({"age": {"$in": [25, 35]}})) == 3

    def test_exists(self, people):
        assert len(people.find({"city": {"$exists": True}})) == 3
        assert len(people.find({"city": {"$exists": False}})) == 1

    def test_combined_conditions(self, people):
        results = people.find({"city": "lima", "age": {"$gte": 33}})
        assert [doc["name"] for doc in results] == ["eve"]

    def test_find_one(self, people):
        assert people.find_one({"name": "bob"})["age"] == 25
        assert people.find_one({"name": "nobody"}) is None

    def test_count_and_distinct(self, people):
        assert people.count() == 4
        assert people.count({"age": 25}) == 2
        assert people.distinct("city") == ["dhaka", "lima"]

    def test_unknown_operator_raises(self, people):
        with pytest.raises(ValueError):
            people.find({"age": {"$regex": ".*"}})

    def test_missing_field_equality_no_match(self, people):
        assert people.find({"country": "pe"}) == []


class TestIndexes:
    def test_index_results_match_scan(self, people):
        scan = people.find({"city": "lima"})
        people.create_index("city")
        indexed = people.find({"city": "lima"})
        assert indexed == scan

    def test_index_updated_on_insert(self, people):
        people.create_index("city")
        people.insert({"name": "zoe", "city": "lima", "age": 28})
        assert len(people.find({"city": "lima"})) == 3

    def test_index_with_range_condition_falls_back(self, people):
        people.create_index("age")
        # Range queries cannot use the equality index; must still work.
        assert len(people.find({"age": {"$gt": 24}})) == 4

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.fixed_dictionaries({"k": st.integers(0, 5), "v": st.integers(0, 100)}),
            max_size=40,
        ),
        st.integers(0, 5),
    )
    def test_property_indexed_equals_scanned(self, docs, key):
        scanned = BruteForceCollection()
        indexed = ColumnarCollection("indexed")
        indexed.create_index("k")
        for doc in docs:
            scanned.insert(dict(doc))
            indexed.insert(dict(doc))
        assert scanned.find({"k": key}) == indexed.find({"k": key})


class TestDocumentStore:
    def test_collection_created_on_access(self):
        store = DocumentStore()
        store["events"].insert({"x": 1})
        assert store.collection_names() == ["events"]
        assert store.total_documents() == 1

    def test_same_collection_returned(self):
        store = DocumentStore()
        assert store["a"] is store["a"]

    def test_non_dict_rejected(self):
        with pytest.raises(TypeError):
            DocumentStore()["a"].insert([1, 2])
