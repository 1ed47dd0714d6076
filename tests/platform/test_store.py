"""Tests for the document store's typed collections."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frames import SCHEMA_BY_COLLECTION, Field, RecordSchema
from repro.frames.frame import SchemaMismatchError
from repro.platform.store import ColumnarCollection, DocumentStore
from tests.oracles import BruteForceCollection

PEOPLE_SCHEMA = RecordSchema(
    "person",
    (
        Field("name", "str"),
        Field("age", "int"),
        Field("city", "str", nullable=True),
    ),
)

KV_SCHEMA = RecordSchema("kv", (Field("k", "int"), Field("v", "int")))

INSTALL = {
    "install_id": "i0",
    "participant_id": "100",
    "android_id": None,
    "registered_at": 0.0,
}


@pytest.fixture()
def people():
    collection = ColumnarCollection("people", PEOPLE_SCHEMA)
    collection.insert_many(
        [
            {"name": "ana", "age": 30, "city": "lima"},
            {"name": "bob", "age": 25, "city": "dhaka"},
            {"name": "eve", "age": 35, "city": "lima"},
            {"name": "sam", "age": 25, "city": None},
        ]
    )
    return collection


class TestQueries:
    def test_equality(self, people):
        assert len(people.find({"city": "lima"})) == 2

    def test_combined_conditions(self, people):
        results = people.find({"city": "lima", "age": 35})
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

    def test_undeclared_field_equality_raises(self, people):
        with pytest.raises(KeyError):
            people.find({"country": "pe"})
        assert people.find({"name": "nobody", "country": "pe"}) == []


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

    def test_index_with_operator_raises(self, people):
        # An operator dict has no index bucket; the scan then reaches
        # it and raises instead of answering an empty list.
        people.create_index("age")
        with pytest.raises(ValueError, match="unknown query operator"):
            people.find({"age": {"$gt": 24}})

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
        indexed = ColumnarCollection("indexed", KV_SCHEMA)
        indexed.create_index("k")
        for doc in docs:
            scanned.insert(dict(doc))
            indexed.insert(dict(doc))
        assert scanned.find({"k": key}) == indexed.find({"k": key})


class TestDocumentStore:
    def test_collection_created_on_access(self):
        store = DocumentStore()
        store["installs"].insert(dict(INSTALL))
        assert store.collection_names() == ["installs"]
        assert store.total_documents() == 1

    def test_same_collection_returned(self):
        store = DocumentStore()
        assert store["installs"] is store["installs"]

    def test_undeclared_collection_raises(self):
        with pytest.raises(KeyError):
            DocumentStore().collection("people")
        with pytest.raises(KeyError):
            DocumentStore()["events"]

    def test_non_dict_rejected(self):
        with pytest.raises(TypeError):
            DocumentStore()["installs"].insert([1, 2])

    def test_collection_requires_a_schema(self):
        with pytest.raises(TypeError):
            ColumnarCollection("people")

    @pytest.mark.parametrize("name", sorted(SCHEMA_BY_COLLECTION))
    def test_declared_collection_is_typed(self, name):
        collection = DocumentStore().collection(name)
        assert collection.name == name
        assert collection.frame.schema is SCHEMA_BY_COLLECTION[name]

    @pytest.mark.parametrize("name", sorted(SCHEMA_BY_COLLECTION))
    def test_off_schema_document_rejected(self, name):
        collection = DocumentStore().collection(name)
        fields = SCHEMA_BY_COLLECTION[name].field_names
        document = dict.fromkeys(fields)
        with pytest.raises(SchemaMismatchError, match=name):
            collection.insert({k: v for k, v in document.items() if k != fields[0]})
        with pytest.raises(SchemaMismatchError, match=name):
            collection.insert_many([{**document, "extra": 1}])
        assert len(collection) == 0
        collection.insert(document)  # exactly the schema's keys
        assert len(collection) == 1
