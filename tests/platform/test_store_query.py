"""The columnar store against the brute-force oracle: same query
language, same results.

The contract (DESIGN.md §9): for any query ``ColumnarCollection``
returns the documents a full scan over a plain list of dicts returns
(``tests.oracles.BruteForceCollection``), in the same order.  Every
operator in ``QUERY_OPERATORS`` is exercised, with and without indexes,
on generic and schema-typed collections.  Tests parametrized over
``BACKENDS`` pin the reference semantics on the oracle as well as on
the store: the ``dict`` case is the oracle (a scan over a plain list
of dicts, with no indexes), the ``columnar`` case the store.
"""

import pytest

from repro.frames import QUERY_OPERATORS
from repro.platform.store import DocumentStore
from tests.oracles import OPERATORS, BruteForceCollection

BACKENDS = ("dict", "columnar")

DOCS = [
    {"name": "ana", "age": 30, "city": "lima"},
    {"name": "bob", "age": 25, "city": "dhaka"},
    {"name": "eve", "age": 35, "city": "lima"},
    {"name": "sam", "age": 25},
    {"name": "ada", "age": 41, "city": None},
    {"name": "joe", "age": 25, "city": "lima", "tags": ["x", "y"]},
]

#: One query per operator, plus the plain-equality and combined forms.
#: Keys are the operator names so the completeness check below can
#: assert the suite covers the store's whole language.
OPERATOR_QUERIES = {
    "$eq": {"age": {"$eq": 25}},
    "$ne": {"city": {"$ne": "lima"}},
    "$gt": {"age": {"$gt": 25}},
    "$gte": {"age": {"$gte": 30}},
    "$lt": {"age": {"$lt": 30}},
    "$lte": {"age": {"$lte": 25}},
    "$in": {"city": {"$in": ["lima", "quito"]}},
    "$exists": {"city": {"$exists": True}},
}

EXTRA_QUERIES = [
    {},
    {"city": "lima"},
    {"city": None},
    {"nope": "x"},
    {"city": {"$exists": False}},
    {"city": "lima", "age": {"$gte": 26, "$lt": 40}},
    {"age": {"$gt": 24, "$lte": 35}, "name": {"$ne": "bob"}},
]


def build(backend: str, docs=DOCS, index: str | None = None):
    """``dict``: the oracle, which has no indexes to build;
    ``columnar``: a store collection, indexed on ``index`` before the
    inserts."""
    if backend == "dict":
        assert index is None, "the oracle has no indexes"
        return BruteForceCollection(dict(doc) for doc in docs)
    collection = DocumentStore().collection("people")
    if index:
        collection.create_index(index)
    collection.insert_many([dict(doc) for doc in docs])
    return collection


def pairs(index: str | None = None):
    return build("dict"), build("columnar", index=index)


def test_operator_queries_cover_the_language():
    assert set(OPERATOR_QUERIES) == set(QUERY_OPERATORS) == set(OPERATORS)


@pytest.mark.parametrize("op", sorted(OPERATOR_QUERIES))
def test_every_operator_same_documents_same_order(op):
    query = OPERATOR_QUERIES[op]
    dict_col, columnar_col = pairs()
    assert dict_col.find(query) == columnar_col.find(query)
    assert dict_col.count(query) == columnar_col.count(query)


@pytest.mark.parametrize("query", EXTRA_QUERIES)
def test_plain_and_combined_queries_agree(query):
    dict_col, columnar_col = pairs()
    assert dict_col.find(query) == columnar_col.find(query)
    assert dict_col.find_one(query) == columnar_col.find_one(query)
    assert dict_col.count(query) == columnar_col.count(query)


@pytest.mark.parametrize("backend", BACKENDS)
def test_unknown_operator_raises(backend):
    with pytest.raises(ValueError, match="unknown query operator"):
        build(backend).find({"age": {"$regex": ".*"}})


@pytest.mark.parametrize(
    "query, index, error",
    [
        ({"age": {"$bogus": 1}, "name": "zed"}, None, ValueError),
        ({"name": {"$gt": 1}, "age": 99}, None, TypeError),
        ({"age": {"$bogus": 1}, "name": "zed"}, "name", ValueError),
    ],
)
def test_raises_where_the_scan_raises(query, index, error):
    # The first predicate raises on every row; a later one matches no
    # row, so evaluating it first would return [] instead of raising.
    docs = [{"name": "ana", "age": 30}, {"name": "bob", "age": 25}]
    with pytest.raises(error):
        build("dict", docs).find(query)
    with pytest.raises(error):
        build("columnar", docs, index=index).find(query)


@pytest.mark.parametrize("backend", BACKENDS)
def test_exists_distinguishes_none_from_missing(backend):
    collection = build(backend)
    present = collection.find({"city": {"$exists": True}})
    # "ada" carries an explicit None -> exists; "sam" has no key at all.
    assert [d["name"] for d in present] == ["ana", "bob", "eve", "ada", "joe"]
    absent = collection.find({"city": {"$exists": False}})
    assert [d["name"] for d in absent] == ["sam"]


@pytest.mark.parametrize("backend", BACKENDS)
def test_missing_key_reads_as_none_for_other_operators(backend):
    collection = build(backend)
    # Equality against None matches both the explicit None and the
    # missing key (historical dict.get semantics).
    assert [d["name"] for d in collection.find({"city": None})] == ["sam", "ada"]
    # Ordering operators never match None/missing.
    assert all(
        "city" in d and d["city"] is not None
        for d in collection.find({"city": {"$gte": ""}})
    )


@pytest.mark.parametrize("index", [None, "city", "age"])
def test_indexed_and_unindexed_paths_agree(index):
    oracle, indexed = pairs(index=index)
    unindexed = build("columnar")
    for query in [*OPERATOR_QUERIES.values(), *EXTRA_QUERIES]:
        expected = oracle.find(query)
        assert unindexed.find(query) == expected
        assert indexed.find(query) == expected


@pytest.mark.parametrize("backend", BACKENDS)
def test_index_updated_after_inserts(backend):
    # The store probes its "city" index after the insert; the oracle
    # pins the order that probe must return.
    collection = build(backend, index="city" if backend == "columnar" else None)
    collection.insert({"name": "zoe", "age": 28, "city": "lima"})
    assert [d["name"] for d in collection.find({"city": "lima"})] == [
        "ana",
        "eve",
        "joe",
        "zoe",
    ]


def test_distinct_agrees_including_list_flattening():
    dict_col, columnar_col = pairs()
    for fieldname in ("city", "age", "tags", "nope"):
        assert dict_col.distinct(fieldname) == columnar_col.distinct(fieldname)
    query = {"age": {"$lte": 30}}
    assert dict_col.distinct("city", query) == columnar_col.distinct("city", query)


#: OPERATOR_QUERIES over the columns of the schema-typed ``installs``
#: collection.
TYPED_OPERATOR_QUERIES = {
    "$eq": {"install_id": {"$eq": "i1"}},
    "$ne": {"android_id": {"$ne": "a5"}},
    "$gt": {"registered_at": {"$gt": 7.0}},
    "$gte": {"registered_at": {"$gte": 3.0}},
    "$lt": {"install_id": {"$lt": "i2"}},
    "$lte": {"registered_at": {"$lte": 4.0}},
    "$in": {"install_id": {"$in": ["i0", "i2", "zzz"]}},
    "$exists": {"android_id": {"$exists": True}},
}


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


def test_typed_collection_sorted_index_agrees():
    assert set(TYPED_OPERATOR_QUERIES) == set(QUERY_OPERATORS)
    docs = INSTALL_DOCS
    oracle = BruteForceCollection(dict(d) for d in docs)
    queries = [
        *TYPED_OPERATOR_QUERIES.values(),
        {"install_id": "i1"},  # sorted-index probe, duplicates in insert order
        {"install_id": "zzz"},
        {"install_id": 42},  # type-mismatched operand: no matches, no error
        {"registered_at": {"$gte": 3.0, "$lt": 9.0}},
        {"android_id": {"$exists": False}},
        {"android_id": None},
        {"android_id": {"$gte": "a3"}},  # ordering on a nullable column
        {"install_id": ["i1"]},  # unhashable operand: no index bucket
    ]
    for index in (None, "install_id", "registered_at"):
        columnar_col = DocumentStore().collection("installs")
        if index:
            columnar_col.create_index(index)
        columnar_col.insert_many([dict(d) for d in docs])
        assert columnar_col.frame.schema is not None  # typed via SCHEMA_BY_COLLECTION
        for query in queries:
            assert oracle.find(query) == columnar_col.find(query), (index, query)
            assert oracle.count(query) == columnar_col.count(query), (index, query)


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
    query = {"install_id": {"$in": ["i0", "i9"]}}
    assert oracle.distinct("registered_at", query) == columnar_col.distinct(
        "registered_at", query
    )


def test_columnar_degrades_to_generic_on_schema_mismatch():
    columnar_col = DocumentStore().collection("installs")
    columnar_col.create_index("install_id")
    conforming = {
        "install_id": "i0",
        "participant_id": "100",
        "android_id": "a0",
        "registered_at": 0.0,
    }
    columnar_col.insert(dict(conforming))
    columnar_col.insert({"install_id": "i1", "weird": True})  # degrade
    assert columnar_col.frame.schema is None
    assert columnar_col.find({"install_id": "i0"}) == [conforming]
    assert columnar_col.find({"weird": {"$exists": True}}) == [
        {"install_id": "i1", "weird": True}
    ]
    assert columnar_col.count() == 2


def test_find_views_are_live_mappings():
    collection = DocumentStore().collection("people")
    collection.insert_many([dict(d) for d in DOCS])
    views = collection.find_views({"city": "lima"})
    assert [dict(v) for v in views] == collection.find({"city": "lima"})
