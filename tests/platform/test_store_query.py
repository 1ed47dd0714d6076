"""The columnar store against the brute-force oracle: same query
language, same results.

The contract (DESIGN.md §9): for any equality query a typed
``ColumnarCollection`` returns the documents a full scan over a plain
list of dicts returns (``tests.oracles.BruteForceCollection``), in the
same order, with and without indexes, and both raise where the scan
raises (a ``$`` operator, a field the documents lack).  Tests
parametrized over ``BACKENDS`` pin the reference semantics on the
oracle as well as on the store: the ``dict`` case is the oracle (a scan
over a plain list of dicts, with no indexes), the ``columnar`` case the
store.
"""

import re

import pytest

from repro.frames import Field, RecordSchema
from repro.platform.store import ColumnarCollection, DocumentStore
from tests.oracles import BruteForceCollection

BACKENDS = ("dict", "columnar")

PEOPLE_SCHEMA = RecordSchema(
    "person",
    (
        Field("name", "str"),
        Field("age", "int"),
        Field("city", "str", nullable=True),
        Field("tags", "object"),
    ),
)

DOCS = [
    {"name": "ana", "age": 30, "city": "lima", "tags": None},
    {"name": "bob", "age": 25, "city": "dhaka", "tags": None},
    {"name": "eve", "age": 35, "city": "lima", "tags": None},
    {"name": "sam", "age": 25, "city": None, "tags": None},
    {"name": "ada", "age": 41, "city": None, "tags": None},
    {"name": "joe", "age": 25, "city": "lima", "tags": ["x", "y"]},
]

QUERIES = [
    {},
    {"city": "lima"},
    {"city": None},
    {"age": 25},
    {"tags": ["x", "y"]},  # unhashable value on an object column
    {"city": "lima", "age": 30},
    {"age": 25, "name": "joe"},
    {"name": "nobody"},
]


def build(backend: str, docs=DOCS, index: str | None = None):
    """``dict``: the oracle, which has no indexes to build;
    ``columnar``: a typed collection, indexed on ``index`` before the
    inserts."""
    if backend == "dict":
        assert index is None, "the oracle has no indexes"
        return BruteForceCollection(dict(doc) for doc in docs)
    collection = ColumnarCollection("people", PEOPLE_SCHEMA)
    if index:
        collection.create_index(index)
    collection.insert_many([dict(doc) for doc in docs])
    return collection


def pairs(index: str | None = None):
    return build("dict"), build("columnar", index=index)


@pytest.mark.parametrize("query", QUERIES)
def test_plain_and_combined_queries_agree(query):
    dict_col, columnar_col = pairs()
    assert dict_col.find(query) == columnar_col.find(query)
    assert dict_col.find_one(query) == columnar_col.find_one(query)
    assert dict_col.count(query) == columnar_col.count(query)


@pytest.mark.parametrize("backend", BACKENDS)
def test_unknown_operator_raises(backend):
    with pytest.raises(ValueError, match="unknown query operator"):
        build(backend).find({"age": {"$regex": ".*"}})


def test_range_operator_raises_from_store_and_oracle():
    run = {
        "install_id": "i0",
        "participant_id": "100000",
        "start": 0.0,
        "end": 60.0,
        "period": 5.0,
        "foreground": None,
        "screen_on": True,
        "battery": 0.5,
        "usage_permission": True,
        "_type": "fast_run",
    }
    store = DocumentStore()
    store["fast_runs"].insert(dict(run))
    oracle = BruteForceCollection([dict(run)])
    query = {"start": {"$gte": 0.0}}
    for collection in (store["fast_runs"], oracle):
        with pytest.raises(ValueError, match=r"unknown query operator '\$gte'"):
            collection.find(query)


#: Mongo's comparison, membership and existence operators.  The store
#: answers none of them: each must raise, from the oracle and from the
#: store with or without an index, rather than match nothing.
MONGO_OPERATORS = ("$eq", "$ne", "$gt", "$gte", "$lt", "$lte", "$in", "$exists")


@pytest.mark.parametrize("op", MONGO_OPERATORS)
def test_every_mongo_operator_raises(op):
    query = {"age": {op: 25}}
    expected = re.escape(f"unknown query operator '{op}'")
    for collection in (
        build("dict"),
        build("columnar"),
        build("columnar", index="age"),
    ):
        with pytest.raises(ValueError, match=expected):
            collection.find(query)


@pytest.mark.parametrize("backend", BACKENDS)
def test_none_value_matches_the_none_cells(backend):
    collection = build(backend)
    assert [d["name"] for d in collection.find({"city": None})] == ["sam", "ada"]
    assert [d["name"] for d in collection.find({"tags": None})] == [
        "ana",
        "bob",
        "eve",
        "sam",
        "ada",
    ]


@pytest.mark.parametrize("backend", BACKENDS)
def test_field_the_documents_lack_raises(backend):
    collection = build(backend)
    with pytest.raises(KeyError):
        collection.find({"country": "pe"})
    with pytest.raises(KeyError):
        collection.find_one({"country": "pe"})
    with pytest.raises(KeyError):
        collection.distinct("country")


@pytest.mark.parametrize(
    "query, index, error",
    [
        ({"age": {"$bogus": 1}, "name": "zed"}, None, ValueError),
        ({"nope": 1, "age": 99}, None, KeyError),
        ({"age": {"$bogus": 1}, "name": "zed"}, "name", ValueError),
    ],
)
def test_raises_where_the_scan_raises(query, index, error):
    # The first predicate raises on every row; a later one matches no
    # row, so evaluating it first would return [] instead of raising.
    docs = [
        {"name": "ana", "age": 30, "city": None, "tags": None},
        {"name": "bob", "age": 25, "city": None, "tags": None},
    ]
    with pytest.raises(error):
        build("dict", docs).find(query)
    with pytest.raises(error):
        build("columnar", docs, index=index).find(query)


@pytest.mark.parametrize("index", [None, "city", "age"])
def test_indexed_and_unindexed_paths_agree(index):
    oracle, indexed = pairs(index=index)
    unindexed = build("columnar")
    for query in QUERIES:
        expected = oracle.find(query)
        assert unindexed.find(query) == expected
        assert indexed.find(query) == expected


@pytest.mark.parametrize("backend", BACKENDS)
def test_index_updated_after_inserts(backend):
    # The store probes its "city" index after the insert; the oracle
    # pins the order that probe must return.
    collection = build(backend, index="city" if backend == "columnar" else None)
    collection.insert({"name": "zoe", "age": 28, "city": "lima", "tags": None})
    assert [d["name"] for d in collection.find({"city": "lima"})] == [
        "ana",
        "eve",
        "joe",
        "zoe",
    ]


def test_distinct_agrees():
    dict_col, columnar_col = pairs()
    for fieldname in ("city", "age", "name"):
        assert dict_col.distinct(fieldname) == columnar_col.distinct(fieldname)


#: Rows for the schema-typed ``installs`` collection.
INSTALL_DOCS = [
    {
        "install_id": f"i{i % 3}",
        "participant_id": str(100 + i),
        "android_id": None if i % 4 == 0 else f"a{i}",
        "registered_at": float(i),
    }
    for i in range(12)
]


def test_typed_collection_index_agrees():
    docs = INSTALL_DOCS
    oracle = BruteForceCollection(dict(d) for d in docs)
    queries = [
        {"install_id": "i1"},  # index probe, duplicates in insert order
        {"install_id": "zzz"},
        {"install_id": 42},  # type-mismatched value: no matches, no error
        {"registered_at": 3.0},
        {"registered_at": 3},  # int value on the float64 column
        {"android_id": None},
        {"android_id": "a5"},  # equality on a nullable column
        {"install_id": "i1", "android_id": None},
        {"install_id": ["i1"]},  # unhashable value: no index bucket
    ]
    for index in (None, "install_id", "registered_at"):
        columnar_col = DocumentStore().collection("installs")
        if index:
            columnar_col.create_index(index)
        columnar_col.insert_many([dict(d) for d in docs])
        for query in queries:
            assert oracle.find(query) == columnar_col.find(query), (index, query)
            assert oracle.count(query) == columnar_col.count(query), (index, query)


def test_nan_matches_nothing_even_when_the_index_finds_it():
    # The index bucket finds a NaN key by identity; equality, as in the
    # scan, must still reject it.
    nan = float("nan")
    docs = [dict(d) for d in INSTALL_DOCS]
    docs[3]["registered_at"] = nan
    oracle = BruteForceCollection(docs)
    for index in (None, "registered_at"):
        columnar_col = DocumentStore().collection("installs")
        if index:
            columnar_col.create_index(index)
        columnar_col.insert_many(docs)
        query = {"registered_at": nan}
        assert oracle.find(query) == columnar_col.find(query) == [], index


def test_distinct_on_typed_columns_agrees():
    # Repeated and signed-zero floats on the native float64 column.
    docs = [
        *INSTALL_DOCS,
        {**INSTALL_DOCS[3], "install_id": "i9"},
        {**INSTALL_DOCS[0], "registered_at": -0.0},
    ]
    oracle = BruteForceCollection(dict(d) for d in docs)
    columnar_col = DocumentStore().collection("installs")
    columnar_col.insert_many([dict(d) for d in docs])
    for fieldname in ("registered_at", "install_id", "android_id"):
        assert oracle.distinct(fieldname) == columnar_col.distinct(fieldname)


def test_find_views_are_live_mappings():
    collection = build("columnar")
    views = collection.find_views({"city": "lima"})
    assert [dict(v) for v in views] == collection.find({"city": "lima"})
