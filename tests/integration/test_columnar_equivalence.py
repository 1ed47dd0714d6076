"""The data-plane hard contract (DESIGN.md §9): the columnar store
returns what the brute-force oracle returns, and the feature matrices
equal the scalar oracle byte for byte (both oracles: ``tests/oracles.py``).

Exact equality throughout: feature matrices compare by ``tobytes()``,
stored documents by ``repr``, labels and instances by ``==``.  Any
deviation, however small, is a contract violation.

The store side is checked against oracles fed independently of the
store: during a fresh study every document the server inserts is also
copied into a per-collection oracle (``recorded_study``).

Observation accessors are checked against the per-row reference
``RowObservation``: ``build_observations``' column runs over the ingest
frames must give what the reference gives over the server's per-install
query results (plain dict lists), and ``truncated()`` copies what the
reference truncation gives.
"""

import copy

import numpy as np
import pytest

from repro.core.app_features import app_feature_matrix
from repro.core.datasets import build_app_dataset, build_device_dataset
from repro.core.device_features import device_feature_matrix
from repro.ml.preprocessing import SimpleImputer
from repro.platform.server import _COLLECTIONS
from repro.platform.store import ColumnarCollection, DocumentStore
from repro.simulation import run_study
from tests.helpers import spawn_seeds
from tests.oracles import (
    BruteForceCollection,
    RowObservation,
    app_feature_vector,
    device_feature_vector,
)

#: Every ``DeviceObservation`` value computed from the snapshot runs.
ACCESSORS = (
    "reported_accounts",
    "reported_account_data",
    "gmail_addresses",
    "initial_packages",
    "n_preinstalled",
    "stopped_apps_first",
    "install_times",
    "apk_hashes",
    "observed_packages",
    "install_event_counts",
    "uninstall_event_counts",
    "daily_installs",
    "daily_uninstalls",
    "foreground_days",
    "foreground_snapshots",
    "apps_used_per_day",
    "total_snapshots",
    "snapshots_per_day",
    "active_days",
)

#: Observation windows in days, from under one day to past the study.
WINDOWS = (0.5, 1.0, 2.0, 3.0, 5.0, 100.0)


@pytest.fixture(scope="module")
def recorded_study(small_config):
    """A fresh small study whose every store write is also appended,
    as a deep copy taken at insert time, to a per-collection oracle.

    Returns ``(study, {collection name: BruteForceCollection})``.  The
    copies are exact only if no chunk was rolled back, which a clean
    study never does; the fixture asserts it."""
    oracles: dict[ColumnarCollection, BruteForceCollection] = {}
    insert, insert_many = ColumnarCollection.insert, ColumnarCollection.insert_many

    def recording_insert(self, document):
        insert(self, document)
        oracles.setdefault(self, BruteForceCollection()).insert(
            copy.deepcopy(document)
        )

    def recording_insert_many(self, documents):
        documents = list(documents)
        count = insert_many(self, documents)
        oracles.setdefault(self, BruteForceCollection()).insert_many(
            copy.deepcopy(documents)
        )
        return count

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ColumnarCollection, "insert", recording_insert)
        patch.setattr(ColumnarCollection, "insert_many", recording_insert_many)
        study = run_study(small_config)
    assert study.server.stats.chunk_rollbacks == 0
    store = study.server.store
    return study, {name: oracles[store[name]] for name in store.collection_names()}


@pytest.fixture(scope="module")
def dict_observations(study, observations):
    """``observations`` rebuilt from the server's per-install queries,
    with the per-row reference accessors."""
    return [RowObservation.from_server(obs, study.server) for obs in observations]


def assert_same_accessors(reference, observation):
    for name in ACCESSORS:
        expected = getattr(reference, name)
        actual = getattr(observation, name)
        assert type(actual) is type(expected), (observation.install_id, name)
        assert actual == expected, (observation.install_id, name)


def test_store_contents_identical(recorded_study):
    study, oracles = recorded_study
    store = study.server.store
    install_ids = study.server.install_ids()
    assert sorted(oracles) == sorted(("installs", *_COLLECTIONS.values()))
    for name, oracle in sorted(oracles.items()):
        collection = store[name]
        # repr, not ==: an int read back as a float, or a bool as an
        # int, would still compare equal.
        assert repr(collection.find()) == repr(oracle.find()), name
        for install_id in install_ids[::3]:
            query = {"install_id": install_id}
            assert collection.find(query) == oracle.find(query), (name, install_id)
            assert collection.find_one(query) == oracle.find_one(query), name
        assert collection.distinct("install_id") == oracle.distinct("install_id")


def test_observations_identical(observations, dict_observations):
    assert len(dict_observations) == len(observations)
    for d, c in zip(dict_observations, observations):
        assert d.install_id == c.install_id
        assert (d.initial or {}) == dict(c.initial or {})
        assert [dict(r) for r in c.slow_runs] == d.slow_runs
        assert [dict(r) for r in c.fast_runs] == d.fast_runs
        assert [dict(r) for r in c.app_changes] == d.app_changes
        assert d.google_ids == c.google_ids
        assert d.device_reviews == c.device_reviews


def test_accessors_equal_the_per_row_reference(observations, dict_observations):
    for d, c in zip(dict_observations, observations):
        assert_same_accessors(d, c)


@pytest.mark.parametrize("days", WINDOWS)
def test_truncated_observations_equal_the_reference_truncation(
    study, observations, dict_observations, days
):
    catalog, vt_client = study.catalog, study.vt_client
    clipped = [obs.truncated(days) for obs in observations]
    reference = [obs.truncated(days) for obs in dict_observations]
    for d, c in zip(reference, clipped):
        assert [dict(r) for r in c.slow_runs] == d.slow_runs
        assert [dict(r) for r in c.fast_runs] == d.fast_runs
        assert [dict(r) for r in c.app_changes] == d.app_changes
        assert_same_accessors(d, c)
        packages = sorted(c.observed_packages)
        assert (
            app_feature_matrix(c, packages, catalog, vt_client).tobytes()
            == app_feature_matrix(d, packages, catalog, vt_client).tobytes()
        ), c.install_id
    scores = [0.25] * len(clipped)
    assert (
        device_feature_matrix(clipped, scores).tobytes()
        == device_feature_matrix(reference, scores).tobytes()
    )


def test_app_feature_matrix_byte_identical(study, observations, dict_observations):
    catalog, vt_client = study.catalog, study.vt_client
    for f_obs, d_obs in zip(observations, dict_observations):
        packages = sorted(f_obs.observed_packages)
        if not packages:
            continue
        batch = app_feature_matrix(f_obs, packages, catalog, vt_client)
        for obs in (f_obs, d_obs):
            scalar = np.vstack(
                [app_feature_vector(obs, p, catalog, vt_client) for p in packages]
            )
            assert scalar.tobytes() == batch.tobytes(), obs.install_id
            assert (
                app_feature_matrix(obs, packages, catalog, vt_client).tobytes()
                == batch.tobytes()
            ), obs.install_id


def test_device_feature_matrix_byte_identical(observations, dict_observations):
    scores = [None if i % 3 == 0 else i / 7 for i in range(len(observations))]
    batch = device_feature_matrix(observations, scores)
    for obs_list in (observations, dict_observations):
        scalar = np.vstack(
            [device_feature_vector(o, s) for o, s in zip(obs_list, scores)]
        )
        assert scalar.tobytes() == batch.tobytes()
        assert device_feature_matrix(obs_list, scores).tobytes() == batch.tobytes()


def test_truncated_observations_match_the_scalar_oracle(study, observations):
    # truncated() copies its clipped runs into small frames of their
    # own, so the matrices read those instead of the ingest frames.
    catalog, vt_client = study.catalog, study.vt_client
    clipped = [obs.truncated(2.0) for obs in observations]
    for obs in clipped[::3]:
        packages = sorted(obs.observed_packages)
        if not packages:
            continue
        scalar = np.vstack(
            [app_feature_vector(obs, p, catalog, vt_client) for p in packages]
        )
        batch = app_feature_matrix(obs, packages, catalog, vt_client)
        assert scalar.tobytes() == batch.tobytes(), obs.install_id
    scalar = np.vstack([device_feature_vector(o, 0.25) for o in clipped])
    batch = device_feature_matrix(clipped, [0.25] * len(clipped))
    assert scalar.tobytes() == batch.tobytes()


def test_datasets_byte_identical(study, observations, dict_observations):
    # Every dataset row is the scalar oracle's vector for its instance,
    # with each missing value imputed by its column median.
    frame_apps = build_app_dataset(study, observations)
    by_id = {o.install_id: o for o in dict_observations}
    scalar = np.vstack(
        [
            app_feature_vector(
                by_id[i.install_id], i.package, study.catalog, study.vt_client
            )
            for i in frame_apps.instances
        ]
    )
    imputed = SimpleImputer().fit_transform(scalar)
    assert imputed.tobytes() == frame_apps.X.tobytes()

    # Frame- and dict-backed observations assemble the same datasets.
    dict_apps = build_app_dataset(study, dict_observations)
    assert dict_apps.X.tobytes() == frame_apps.X.tobytes()
    assert dict_apps.y.tobytes() == frame_apps.y.tobytes()
    assert dict_apps.instances == frame_apps.instances

    suspiciousness = {
        o.install_id: i / 11 for i, o in enumerate(observations) if i % 2
    }
    scalar = np.vstack(
        [
            device_feature_vector(o, suspiciousness.get(o.install_id))
            for o in dict_observations
        ]
    )
    imputed = SimpleImputer().fit_transform(scalar)
    frame_devices = build_device_dataset(observations, suspiciousness)
    dict_devices = build_device_dataset(dict_observations, suspiciousness)
    assert imputed.tobytes() == dict_devices.X.tobytes()
    assert dict_devices.X.tobytes() == frame_devices.X.tobytes()
    assert dict_devices.y.tobytes() == frame_devices.y.tobytes()


# -- interleaved insert/query/ingest workloads -------------------------------
#
# The staged-write data plane defers columnarization and index
# maintenance until a read needs them, so the contract must hold not
# just for settled stores but at every point of an interleaved
# write/read sequence: each query below runs against the store and the
# oracle mid-ingest and must return identical documents.


def _make_fast_run_docs(
    n_installs: int, runs_per_install: int, root_seed: int
) -> list[dict]:
    """Deterministic fast-run payloads shaped like the wire records."""
    (seed,) = spawn_seeds(root_seed, 1)
    rng = np.random.default_rng(seed)
    docs: list[dict] = []
    for i in range(n_installs):
        install_id = f"inst{i:05d}"
        for r in range(runs_per_install):
            start = float(r) * 120.0 + float(rng.random())
            docs.append(
                {
                    "install_id": install_id,
                    "participant_id": str(100_000 + i),
                    "start": start,
                    "end": start + 100.0,
                    "period": 5.0,
                    "foreground": (
                        None
                        if rng.random() < 0.3
                        else f"app{int(rng.integers(50))}"
                    ),
                    "screen_on": bool(rng.random() < 0.5),
                    "battery": float(rng.random()),
                    "usage_permission": True,
                    "_type": "fast_run",
                }
            )
    return docs


def _paired_fast_run_collections():
    """(oracle, indexed columnar ``fast_runs`` collection)."""
    collection = DocumentStore().collection("fast_runs")
    collection.create_index("install_id")
    return BruteForceCollection(), collection


def test_interleaved_batch_ingest_and_queries_identical():
    docs = _make_fast_run_docs(12, 6, 3)
    dict_col, columnar_col = _paired_fast_run_collections()
    queries = [
        {"install_id": "inst00003"},
        {"start": docs[20]["start"]},
        {"screen_on": True, "usage_permission": True},
        {"foreground": "app7"},
        {"foreground": None},
        {"install_id": "inst00007", "screen_on": False},
    ]
    chunk = 9
    for lo in range(0, len(docs), chunk):
        batch = docs[lo : lo + chunk]
        assert dict_col.insert_many(batch) == columnar_col.insert_many(batch)
        assert len(dict_col) == len(columnar_col)
        for query in queries:
            assert dict_col.find(query) == columnar_col.find(query), query
            assert dict_col.count(query) == columnar_col.count(query), query
        assert dict_col.distinct("foreground") == columnar_col.distinct(
            "foreground"
        )
    assert dict_col.find() == columnar_col.find()


def test_single_inserts_interleaved_with_indexed_finds_identical():
    # Regression: single inserts must be visible to the very next
    # indexed find (the incremental index used to invalidate; the
    # staged path must merge before probing), byte-for-byte.
    docs = _make_fast_run_docs(6, 5, 5)
    dict_col, columnar_col = _paired_fast_run_collections()
    for i, doc in enumerate(docs):
        dict_col.insert(doc)
        columnar_col.insert(doc)
        query = {"install_id": doc["install_id"]}
        assert dict_col.find(query) == columnar_col.find(query)
        assert dict_col.find_one(query) == columnar_col.find_one(query)
        if i % 3 == 0:
            pinned = {"install_id": doc["install_id"], "start": doc["start"]}
            assert dict_col.find(pinned) == columnar_col.find(pinned)
    assert dict_col.find() == columnar_col.find()


@pytest.mark.parametrize("root_seed", [0, 1, 2])
def test_randomized_interleaved_workload_equivalence(root_seed):
    # Property-style replay: a seeded random interleaving of
    # insert/insert_many/find/count/distinct against store and oracle.
    (seed,) = spawn_seeds(root_seed, 1)
    rng = np.random.default_rng(seed)
    docs = _make_fast_run_docs(10, 8, root_seed)
    dict_col, columnar_col = _paired_fast_run_collections()
    install_ids = sorted({doc["install_id"] for doc in docs})
    i = 0
    while i < len(docs):
        choice = int(rng.integers(6))
        if choice == 0:
            n = int(rng.integers(1, 8))
            batch = docs[i : i + n]
            i += n
            assert dict_col.insert_many(batch) == columnar_col.insert_many(batch)
        elif choice == 1:
            dict_col.insert(docs[i])
            columnar_col.insert(docs[i])
            i += 1
        elif choice == 2:
            query = {"install_id": install_ids[int(rng.integers(len(install_ids)))]}
            assert dict_col.find(query) == columnar_col.find(query), query
        elif choice == 3:
            query = {"start": docs[int(rng.integers(len(docs)))]["start"]}
            assert dict_col.find(query) == columnar_col.find(query), query
        elif choice == 4:
            query = {"screen_on": bool(rng.random() < 0.5)}
            assert dict_col.count(query) == columnar_col.count(query), query
        else:
            assert dict_col.distinct("foreground") == columnar_col.distinct(
                "foreground"
            )
            assert dict_col.distinct("screen_on") == columnar_col.distinct(
                "screen_on"
            )
    assert dict_col.find() == columnar_col.find()
    assert len(dict_col) == len(columnar_col)
