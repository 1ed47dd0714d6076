"""Reference implementations the fast paths in ``src/`` must agree with.

Neither runs in the product.  They are the semantics, written the
obvious way, that the equivalence tests compare against:

* :class:`BruteForceCollection` — the document store's equality
  queries as a scan over a plain list of dicts: no schema, no indexes,
  no staging, no caches, no ``mark``/``rollback_to``.
  ``repro.platform.store.ColumnarCollection`` must return the same
  documents in the same order for every query.
* :class:`RowObservation` — ``DeviceObservation``'s snapshot accessors
  and its :meth:`~RowObservation.truncated` copy over plain dict lists,
  one row at a time.  The column accessors of
  ``repro.core.observations.DeviceObservation`` must return the same
  values, for ingest-built and truncated observations alike.
* :func:`extract_app_features` / :func:`app_feature_vector` and
  :func:`extract_device_features` / :func:`device_feature_vector` — the
  §7.1/§8.1 features computed one (app, device) instance or one device
  at a time.  ``app_feature_matrix`` and ``device_feature_matrix`` must
  equal the stacked vectors byte for byte.
* :class:`GiniTree`, :class:`BoostTree`, :class:`Forest` and
  :class:`Booster` — the tree learners as they were before one split
  kernel and one array descent replaced them: node objects grown by
  recursion, each with its own split loop, predicted one row at a time
  by :func:`walk`.  ``repro.ml``'s trees must have the same pre-order
  splits and give byte-identical probabilities, margins and Gini
  importances.
* :func:`descend_tree_by_tree` — ``repro.ml.tree.descend`` as it was
  before it walked blocks of stacked trees: one tree at a time, every
  row one level per step.  ``descend`` must yield the same leaf values
  in the same tree order, byte for byte.
* :class:`LVQ1` — ``LVQClassifier`` as it was before its lockstep
  kernel: one fit at a time, one sample per step.  Every codebook the
  kernel fits, alone or in a block of cross-validation folds, and its
  probabilities must be the same bytes.
* :func:`record_to_dict` — a snapshot record's wire dict built with
  ``dataclasses.asdict``, which deep-copies every field.
  ``repro.platform.models.record_to_dict`` reads the fields directly;
  the JSON line of every record must be the same bytes.
* :func:`ingest_check` — the server's line check before
  ``repro.platform.models.check_record``: :func:`record_from_dict` (the
  inverse of :func:`record_to_dict`) builds the record and an
  ``InstalledAppInfo`` per initial-snapshot app, so the dataclasses'
  constructors check the line, then the line's keys and value kinds are
  checked against its schema.  ``check_record`` builds nothing and must
  reach the same verdict on every line, except where it is stricter by
  design (``tests/platform/test_check_record.py``).
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import asdict, dataclass, fields
from functools import cached_property
from typing import Any, Iterator, Optional

import numpy as np

from repro.core.app_features import APP_FEATURE_NAMES, NEVER_REVIEWED_SENTINEL_DAYS
from repro.core.device_features import DEVICE_FEATURE_NAMES
from repro.core.observations import DeviceObservation
from repro.ml import lvq
from repro.frames import APP_CHANGE_SCHEMA, FAST_RUN_SCHEMA, INITIAL_SCHEMA, SLOW_RUN_SCHEMA
from repro.ml.preprocessing import StandardScaler
from repro.parallel import draw_seeds
from repro.platform.models import (
    AppChangeEvent,
    FastSnapshotRun,
    InitialSnapshot,
    InstalledAppInfo,
    SlowSnapshotRun,
)
from repro.simulation.clock import SECONDS_PER_DAY

# -- the store's query language ------------------------------------------------


def matches(document: dict, query: dict) -> bool:
    """Whether every queried field of ``document`` equals its value.

    A value that is a dict with a ``$`` key is an operator the store
    does not answer (``ValueError``); a field the document lacks raises
    ``KeyError``, as the store does for a field its schema lacks."""
    for fieldname, value in query.items():
        if isinstance(value, dict):
            for key in value:
                if key.startswith("$"):
                    raise ValueError(f"unknown query operator {key!r}")
        if not document[fieldname] == value:
            return False
    return True


class BruteForceCollection:
    """A list of dicts, every query a full scan in insertion order."""

    def __init__(self, documents=()) -> None:
        self._documents: list[dict] = list(documents)

    def __len__(self) -> int:
        return len(self._documents)

    def insert(self, document: dict) -> None:
        self._documents.append(document)

    def insert_many(self, documents) -> int:
        documents = list(documents)
        self._documents.extend(documents)
        return len(documents)

    def find(self, query: dict | None = None) -> list[dict]:
        query = query or {}
        return [doc for doc in self._documents if matches(doc, query)]

    def find_one(self, query: dict | None = None) -> dict | None:
        query = query or {}
        for doc in self._documents:
            if matches(doc, query):
                return doc
        return None

    def count(self, query: dict | None = None) -> int:
        return len(self.find(query))

    def distinct(self, fieldname: str) -> list:
        seen = {doc[fieldname] for doc in self._documents}
        seen.discard(None)
        return sorted(seen, key=repr)


# -- snapshot wire records -------------------------------------------------------


_TYPE_NAMES = {
    SlowSnapshotRun: "slow_run",
    FastSnapshotRun: "fast_run",
    AppChangeEvent: "app_change",
    InitialSnapshot: "initial",
}


def record_to_dict(record: Any) -> dict:
    """Serialise a snapshot record to a JSON-compatible dict with a type tag."""
    cls = type(record)
    if cls not in _TYPE_NAMES:
        raise TypeError(f"not a snapshot record: {cls.__name__}")
    payload = asdict(record)
    if cls is InitialSnapshot:
        payload["installed_apps"] = [asdict(a) for a in record.installed_apps]
    payload["_type"] = _TYPE_NAMES[cls]
    return payload


_RECORD_TYPES = {name: cls for cls, name in _TYPE_NAMES.items()}


def record_from_dict(payload: dict) -> Any:
    """Inverse of :func:`record_to_dict`."""
    payload = dict(payload)
    type_name = payload.pop("_type", None)
    if type_name not in _RECORD_TYPES:
        raise ValueError(f"unknown record type {type_name!r}")
    cls = _RECORD_TYPES[type_name]
    if cls is InitialSnapshot:
        payload["installed_apps"] = tuple(
            InstalledAppInfo(**a) for a in payload["installed_apps"]
        )
    if cls is SlowSnapshotRun:
        payload["accounts"] = tuple(tuple(pair) for pair in payload["accounts"])
        payload["stopped_apps"] = tuple(payload["stopped_apps"])
    return cls(**payload)


_SCHEMAS = {
    schema.name: schema
    for schema in (SLOW_RUN_SCHEMA, FAST_RUN_SCHEMA, APP_CHANGE_SCHEMA, INITIAL_SCHEMA)
}
_KIND_TYPES = {"float": (float, int), "int": (int,), "bool": (bool,), "str": (str,)}


def ingest_check(payload: Any) -> None:
    """Raise ``ValueError`` or ``TypeError`` for a line the server used to
    count as malformed; a ``KeyError`` escaped its ``receive_chunk``."""
    record_from_dict(payload)
    schema = _SCHEMAS[payload["_type"]]
    if payload.keys() != set(schema.field_names):
        raise TypeError(f"keys do not match schema {schema.name!r} fields")
    for field in schema.fields:
        if field.kind == "object":
            continue
        types = _KIND_TYPES[field.kind] + ((type(None),) if field.nullable else ())
        if type(payload[field.name]) not in types:
            raise TypeError(f"{schema.name}.{field.name}: value of the wrong kind")


# -- observation accessors, one row at a time ------------------------------------


class RowObservation(DeviceObservation):
    """:class:`DeviceObservation` whose snapshot runs are plain dict lists
    (the server's per-install query results) and whose accessors read
    them one row at a time.  :meth:`truncated` copies the clipped rows
    into new dict lists."""

    @classmethod
    def from_server(cls, obs: DeviceObservation, server) -> "RowObservation":
        """``obs`` with its runs re-read through the server's queries."""
        values = {f.name: getattr(obs, f.name) for f in fields(obs)}
        values.update(
            initial=server.initial_snapshot(obs.install_id),
            slow_runs=server.slow_runs(obs.install_id),
            fast_runs=server.fast_runs(obs.install_id),
            app_changes=server.app_changes(obs.install_id),
        )
        return cls(**values)

    @cached_property
    def reported_accounts(self) -> tuple[tuple[str, str], ...]:
        for run in reversed(self.slow_runs):
            if run.get("accounts_permission", True) and run["accounts"]:
                return tuple(tuple(pair) for pair in run["accounts"])
        return ()

    @property
    def reported_account_data(self) -> bool:
        return any(run.get("accounts_permission", True) for run in self.slow_runs)

    @cached_property
    def install_times(self) -> dict[str, float]:
        times = {a["package"]: a["install_time"] for a in self.initial_apps}
        for event in self.app_changes:
            if event["action"] == "install" and event.get("install_time") is not None:
                times[event["package"]] = event["install_time"]
        return times

    @cached_property
    def apk_hashes(self) -> dict[str, str]:
        hashes = {
            a["package"]: a["apk_hash"] for a in self.initial_apps if a["apk_hash"]
        }
        for event in self.app_changes:
            if event["action"] == "install" and event.get("apk_hash"):
                hashes[event["package"]] = event["apk_hash"]
        return hashes

    @cached_property
    def observed_packages(self) -> frozenset[str]:
        packages = set(self.initial_packages)
        packages.update(
            e["package"] for e in self.app_changes if e["action"] == "install"
        )
        return frozenset(packages)

    def _event_counts(self, wanted: str) -> dict[str, int]:
        counts: dict[str, int] = defaultdict(int)
        for event in self.app_changes:
            if event["action"] == wanted:
                counts[event["package"]] += 1
        return dict(counts)

    @cached_property
    def foreground_days(self) -> dict[str, set[int]]:
        out: dict[str, set[int]] = defaultdict(set)
        for run in self.fast_runs:
            package = run["foreground"]
            if package is None:
                continue
            first = int(run["start"] // SECONDS_PER_DAY)
            last = int(run["end"] // SECONDS_PER_DAY)
            for day in range(first, last + 1):
                out[package].add(day)
        return dict(out)

    @cached_property
    def foreground_snapshots(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for run in self.fast_runs:
            package = run["foreground"]
            if package is None:
                continue
            out[package] += 1 + int((run["end"] - run["start"]) // run["period"])
        return dict(out)

    @cached_property
    def total_snapshots(self) -> int:
        return sum(
            1 + int((r["end"] - r["start"]) // r["period"])
            for r in (*self.fast_runs, *self.slow_runs)
        )

    def truncated(self, days: float) -> "RowObservation":
        cutoff = self.installed_at + days * SECONDS_PER_DAY
        clipped = RowObservation(
            participant=self.participant,
            install_id=self.install_id,
            initial=self.initial,
            slow_runs=[
                {**run, "end": min(run["end"], cutoff)}
                for run in self.slow_runs
                if run["start"] < cutoff
            ],
            fast_runs=[
                {**run, "end": min(run["end"], cutoff)}
                for run in self.fast_runs
                if run["start"] < cutoff
            ],
            app_changes=[
                event for event in self.app_changes if event["timestamp"] < cutoff
            ],
            google_ids=self.google_ids,
            device_reviews=self.device_reviews,
            all_account_reviews=self.all_account_reviews,
        )
        clipped._active_days_override = max(1, int(min(days, self.active_days)))
        return clipped


# -- §7.1 app features, one instance at a time -----------------------------------


def _mean_or_sentinel(values: list[float]) -> float:
    return float(np.mean(values)) if values else NEVER_REVIEWED_SENTINEL_DAYS


def _min_or_sentinel(values: list[float]) -> float:
    return float(min(values)) if values else NEVER_REVIEWED_SENTINEL_DAYS


def extract_app_features(obs, package, catalog, vt_client=None) -> dict[str, float]:
    """Feature dict for one (app, device) instance."""
    reviews = obs.reviews_for_app(package)
    start, end = obs.installed_at, obs.uninstalled_at

    before = {r.google_id for r in reviews if r.timestamp < start}
    during = {r.google_id for r in reviews if start <= r.timestamp <= end}
    after = {r.google_id for r in reviews if r.timestamp > end}

    # (2) install-to-review.
    i2r = obs.install_to_review_days(package)

    # (3) inter-review gaps.
    timestamps = sorted(r.timestamp for r in reviews)
    gaps = [
        (b - a) / SECONDS_PER_DAY for a, b in zip(timestamps, timestamps[1:])
    ]

    # (4)/(5) usage.
    days_used = obs.foreground_days.get(package, set())
    onscreen = obs.foreground_snapshots.get(package, 0)

    # (7) inner retention: overlap of the app's installed interval with
    # the RacketStore observation window.
    install_time = obs.install_times.get(package)
    uninstall_events = [
        e["timestamp"]
        for e in obs.app_changes
        if e["action"] == "uninstall" and e["package"] == package
    ]
    if install_time is None:
        retention_days = math.nan
        spans_window = 0.0
    else:
        seen_from = max(install_time, start)
        seen_to = min(uninstall_events[-1], end) if uninstall_events else end
        retention_days = max(0.0, (seen_to - seen_from) / SECONDS_PER_DAY)
        spans_window = float(install_time <= start and not uninstall_events)

    # (8)/(9) permissions: requested from the Play listing, granted and
    # denied from the device-side records.
    if package in catalog:
        profile = catalog.get(package).permissions
        n_normal, n_dangerous = len(profile.normal), len(profile.dangerous)
    else:
        n_normal = n_dangerous = 0
    granted = denied = 0
    for app_info in obs.initial_apps:
        if app_info["package"] == package:
            granted, denied = app_info["n_granted"], app_info["n_denied"]
            break
    else:
        for event in obs.app_changes:
            if event["action"] == "install" and event["package"] == package:
                granted, denied = event.get("n_granted", 0), event.get("n_denied", 0)

    # (10) VirusTotal flags.
    apk_hash = obs.apk_hashes.get(package)
    vt_flags = (
        float(vt_client.positives(apk_hash))
        if vt_client is not None and apk_hash
        else 0.0
    )

    return {
        "accounts_reviewed_before": float(len(before)),
        "accounts_reviewed_during": float(len(during)),
        "accounts_reviewed_after": float(len(after)),
        "accounts_reviewed_total": float(len(before | during | after)),
        "install_to_review_mean_days": _mean_or_sentinel(i2r),
        "install_to_review_min_days": _min_or_sentinel(i2r),
        "inter_review_mean_days": _mean_or_sentinel(gaps),
        "inter_review_min_days": _min_or_sentinel(gaps),
        "opened_multiple_days": float(len(days_used) > 1),
        "onscreen_snapshots_per_day": onscreen / max(obs.active_days, 1),
        "device_snapshots_per_day": obs.snapshots_per_day,
        "inner_retention_days": retention_days,
        "spans_study_window": spans_window,
        "n_normal_permissions": float(n_normal),
        "n_dangerous_permissions": float(n_dangerous),
        "n_permissions_granted": float(granted),
        "n_permissions_denied": float(denied),
        "vt_flags": vt_flags,
        "n_install_events": float(obs.install_event_counts.get(package, 0)),
        "n_uninstall_events": float(obs.uninstall_event_counts.get(package, 0)),
    }


def app_feature_vector(obs, package, catalog, vt_client=None) -> np.ndarray:
    """Feature dict flattened into the canonical APP_FEATURE_NAMES order."""
    features = extract_app_features(obs, package, catalog, vt_client)
    return np.array([features[name] for name in APP_FEATURE_NAMES], dtype=np.float64)


# -- §8.1 device features, one device at a time ----------------------------------


def extract_device_features(obs, app_suspiciousness=None) -> dict[str, float]:
    """Feature dict for one device; ``None`` suspiciousness reads as NaN."""
    n_accounts = max(obs.n_gmail_accounts, 1)
    return {
        "n_preinstalled_apps": float(obs.n_preinstalled),
        "n_user_installed_apps": float(obs.n_user_installed),
        "app_suspiciousness": (
            float(app_suspiciousness) if app_suspiciousness is not None else math.nan
        ),
        "n_stopped_apps": float(len(obs.stopped_apps_first)),
        "daily_installs": obs.daily_installs,
        "daily_uninstalls": obs.daily_uninstalls,
        "n_gmail_accounts": float(obs.n_gmail_accounts),
        "n_non_gmail_accounts": float(obs.n_non_gmail_accounts),
        "n_account_types": float(obs.n_account_types),
        "n_installed_and_reviewed": float(obs.n_installed_and_reviewed),
        "total_apps_reviewed": float(obs.apps_reviewed_total),
        "total_reviews": float(obs.total_account_reviews),
        "reviews_per_account_mean": obs.total_account_reviews / n_accounts,
        "apps_used_per_day": obs.apps_used_per_day,
        "snapshots_per_day": obs.snapshots_per_day,
    }


def device_feature_vector(obs, app_suspiciousness=None) -> np.ndarray:
    features = extract_device_features(obs, app_suspiciousness)
    return np.array(
        [features[name] for name in DEVICE_FEATURE_NAMES], dtype=np.float64
    )


# -- tree learners, node by node -------------------------------------------------


@dataclass
class Node:
    """A node of an oracle tree: a class-probability vector or a leaf
    weight in ``value``, and a split unless it is a leaf."""

    value: Any
    feature: int = -1
    threshold: float = 0.0
    left: Optional["Node"] = None
    right: Optional["Node"] = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def preorder(self) -> Iterator["Node"]:
        yield self
        if not self.is_leaf:
            yield from self.left.preorder()
            yield from self.right.preorder()


def walk(root: Node, X: np.ndarray) -> np.ndarray:
    """Each row's leaf value, found by walking the nodes one row at a time."""
    out = []
    for row in X:
        node = root
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        out.append(node.value)
    return np.array(out, dtype=np.float64)


def leaf_index(tree, X: np.ndarray) -> np.ndarray:
    """Each row's leaf in a flat ``repro.ml.tree.Tree``, one row at a time."""
    out = []
    for row in X:
        node = 0
        while tree.feature[node] >= 0:
            go_left = row[tree.feature[node]] <= tree.threshold[node]
            node = tree.left[node] if go_left else tree.right[node]
        out.append(node)
    return np.array(out, dtype=np.intp)


def descend_tree_by_tree(trees, X: np.ndarray, n_features: int) -> Iterator[np.ndarray]:
    """Yield, tree by tree, each row's leaf value in a flat
    ``repro.ml.tree.Tree``, walking one tree at a time."""
    if X.shape[1] != n_features:
        raise ValueError(f"expected {n_features} features, got {X.shape[1]}")
    cells = X.ravel()
    row_start = np.arange(X.shape[0]) * n_features
    for tree in trees:
        node = np.zeros(X.shape[0], dtype=np.intp)
        for _ in range(tree.depth):
            # A row already at a leaf reads column -1, a cell of another
            # row, and stays put: both of a leaf's children are itself.
            x = cells.take(row_start + tree.feature.take(node))
            node = tree.children.take(2 * node + (x > tree.threshold.take(node)))
        yield tree.value.take(node, axis=0)


def gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return float(1.0 - np.dot(p, p))


def best_split_classification(
    X: np.ndarray, onehot: np.ndarray, feature_ids: np.ndarray, min_samples_leaf: int
) -> tuple[int, float, float]:
    """The Gini-gain-maximising split among ``feature_ids``, as
    ``(feature, threshold, gain)``; ``feature == -1`` when none exists."""
    n = onehot.shape[0]
    parent_counts = onehot.sum(axis=0)
    parent_impurity = gini(parent_counts)

    best_feature, best_threshold, best_gain = -1, 0.0, 0.0
    for feature in feature_ids:
        order = np.argsort(X[:, feature], kind="mergesort")
        values = X[order, feature]
        counts_left = np.cumsum(onehot[order], axis=0)

        distinct = values[1:] != values[:-1]
        positions = np.nonzero(distinct)[0]  # split after index i -> left size i+1
        if positions.size == 0:
            continue
        left_sizes = positions + 1
        valid = (left_sizes >= min_samples_leaf) & (n - left_sizes >= min_samples_leaf)
        positions = positions[valid]
        if positions.size == 0:
            continue

        left = counts_left[positions]
        right = parent_counts - left
        n_left = left.sum(axis=1)
        n_right = right.sum(axis=1)
        gini_left = 1.0 - np.sum((left / n_left[:, None]) ** 2, axis=1)
        gini_right = 1.0 - np.sum((right / n_right[:, None]) ** 2, axis=1)
        weighted = (n_left * gini_left + n_right * gini_right) / n
        gains = n * (parent_impurity - weighted)

        i = int(np.argmax(gains))
        if gains[i] > best_gain + 1e-12:
            best_gain = float(gains[i])
            best_feature = int(feature)
            pos = positions[i]
            best_threshold = float((values[pos] + values[pos + 1]) / 2.0)
    return best_feature, best_threshold, best_gain


def _n_candidates(max_features: int | float | str | None, n_features: int) -> int:
    if max_features is None:
        return n_features
    if max_features == "sqrt":
        return max(1, int(np.sqrt(n_features)))
    if max_features == "log2":
        return max(1, int(np.log2(n_features)))
    if isinstance(max_features, float):
        return max(1, int(max_features * n_features))
    return max(1, min(int(max_features), n_features))


class GiniTree:
    """CART by recursion: the class codes ``y`` (``0..n_classes-1``) index
    the one-hot columns, and ``importances`` accumulates each split's
    Gini gain over the training-set size."""

    def __init__(
        self, max_depth=None, min_samples_split=2, min_samples_leaf=1,
        max_features=None, random_state=None,
    ) -> None:
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.rng = np.random.default_rng(random_state)

    def fit(self, X: np.ndarray, y: np.ndarray, n_classes: int) -> "GiniTree":
        self.n_classes = n_classes
        self.n_features = X.shape[1]
        self.importances = np.zeros(self.n_features, dtype=np.float64)
        self.n_fit = X.shape[0]
        onehot = np.zeros((X.shape[0], n_classes), dtype=np.float64)
        onehot[np.arange(X.shape[0]), y] = 1.0
        self.root = self._grow(X, y, onehot, depth=0)
        return self

    def _grow(self, X, y, onehot, depth) -> Node:
        counts = np.bincount(y, minlength=self.n_classes).astype(np.float64)
        node = Node(value=counts / counts.sum())
        if (
            (self.max_depth is not None and depth >= self.max_depth)
            or y.shape[0] < self.min_samples_split
            or gini(counts) == 0.0
        ):
            return node

        k = _n_candidates(self.max_features, self.n_features)
        if k < self.n_features:
            feature_ids = self.rng.choice(self.n_features, size=k, replace=False)
        else:
            feature_ids = np.arange(self.n_features)

        feature, threshold, gain = best_split_classification(
            X, onehot, feature_ids, self.min_samples_leaf
        )
        if feature < 0:
            return node
        mask = X[:, feature] <= threshold
        node.feature, node.threshold = feature, threshold
        self.importances[feature] += gain / self.n_fit
        node.left = self._grow(X[mask], y[mask], onehot[mask], depth + 1)
        node.right = self._grow(X[~mask], y[~mask], onehot[~mask], depth + 1)
        return node

    @property
    def feature_importances(self) -> np.ndarray:
        total = self.importances.sum()
        return self.importances.copy() if total == 0.0 else self.importances / total


class Forest:
    """Bagged :class:`GiniTree` s, drawing samples and seeds in the
    forest's order: per tree, the bootstrap sample, then the seed."""

    def __init__(self, n_estimators, random_state, bootstrap=True, **tree_params) -> None:
        self.n_estimators = n_estimators
        self.random_state = random_state
        self.bootstrap = bootstrap
        self.tree_params = tree_params

    def fit(self, X: np.ndarray, y: np.ndarray) -> "Forest":
        self.classes, encoded = np.unique(y, return_inverse=True)
        n, n_classes = X.shape[0], len(self.classes)
        rng = np.random.default_rng(self.random_state)
        self.trees: list[GiniTree] = []
        for _ in range(self.n_estimators):
            sample = rng.integers(0, n, size=n) if self.bootstrap else np.arange(n)
            (seed,) = draw_seeds(rng, 1)
            tree = GiniTree(random_state=seed, **self.tree_params)
            self.trees.append(tree.fit(X[sample], encoded[sample], n_classes))
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        proba = np.zeros((X.shape[0], len(self.classes)), dtype=np.float64)
        for tree in self.trees:
            proba += walk(tree.root, X)
        return proba / len(self.trees)

    @property
    def feature_importances(self) -> np.ndarray:
        total = np.zeros(self.trees[0].n_features, dtype=np.float64)
        for tree in self.trees:
            total += tree.feature_importances
        total /= len(self.trees)
        s = total.sum()
        return total / s if s else total


class BoostTree:
    """One boosting round's regression tree over (gradient, hessian)
    targets, with its own second-order split loop."""

    def __init__(self, max_depth, min_child_weight, reg_lambda, gamma, colsample, rng) -> None:
        self.max_depth = max_depth
        self.min_child_weight = min_child_weight
        self.reg_lambda = reg_lambda
        self.gamma = gamma
        self.colsample = colsample
        self.rng = rng

    def fit(self, X: np.ndarray, grad: np.ndarray, hess: np.ndarray) -> "BoostTree":
        self.n_features = X.shape[1]
        self.root = self._grow(X, grad, hess, depth=0)
        return self

    def _grow(self, X, grad, hess, depth) -> Node:
        g_sum = float(grad.sum())
        h_sum = float(hess.sum())
        node = Node(value=-g_sum / (h_sum + self.reg_lambda))
        if depth >= self.max_depth or X.shape[0] < 2:
            return node

        k = max(1, int(self.colsample * self.n_features))
        if k < self.n_features:
            feature_ids = self.rng.choice(self.n_features, size=k, replace=False)
        else:
            feature_ids = np.arange(self.n_features)

        parent_score = g_sum**2 / (h_sum + self.reg_lambda)
        best_gain, best_feature, best_threshold = 0.0, -1, 0.0
        for feature in feature_ids:
            order = np.argsort(X[:, feature], kind="mergesort")
            values = X[order, feature]
            g_csum = np.cumsum(grad[order])
            h_csum = np.cumsum(hess[order])

            positions = np.nonzero(values[1:] != values[:-1])[0]
            if positions.size == 0:
                continue
            g_left = g_csum[positions]
            h_left = h_csum[positions]
            g_right = g_sum - g_left
            h_right = h_sum - h_left
            valid = (h_left >= self.min_child_weight) & (h_right >= self.min_child_weight)
            if not valid.any():
                continue
            gains = 0.5 * (
                g_left**2 / (h_left + self.reg_lambda)
                + g_right**2 / (h_right + self.reg_lambda)
                - parent_score
            ) - self.gamma
            gains[~valid] = -np.inf
            i = int(np.argmax(gains))
            if gains[i] > best_gain + 1e-12:
                best_gain = float(gains[i])
                best_feature = int(feature)
                pos = positions[i]
                best_threshold = float((values[pos] + values[pos + 1]) / 2.0)

        if best_feature < 0:
            return node
        mask = X[:, best_feature] <= best_threshold
        node.feature, node.threshold = best_feature, best_threshold
        node.left = self._grow(X[mask], grad[mask], hess[mask], depth + 1)
        node.right = self._grow(X[~mask], grad[~mask], hess[~mask], depth + 1)
        return node


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    expz = np.exp(z[~positive])
    out[~positive] = expz / (1.0 + expz)
    return out


class Booster:
    """The binary logistic booster fit with :class:`BoostTree` rounds,
    drawing from one ``rng`` in the booster's order: per round the row
    subsample, then each node's feature subsample in pre-order."""

    def __init__(
        self, n_estimators=200, learning_rate=0.1, max_depth=4, reg_lambda=1.0,
        gamma=0.0, min_child_weight=1.0, subsample=1.0, colsample_bytree=1.0,
        base_score=0.5, random_state=None,
    ) -> None:
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.reg_lambda = reg_lambda
        self.gamma = gamma
        self.min_child_weight = min_child_weight
        self.subsample = subsample
        self.colsample_bytree = colsample_bytree
        self.base_score = base_score
        self.random_state = random_state

    def fit(self, X: np.ndarray, y: np.ndarray) -> "Booster":
        _, encoded = np.unique(y, return_inverse=True)
        rng = np.random.default_rng(self.random_state)
        n = X.shape[0]
        target = encoded.astype(np.float64)
        p0 = np.clip(self.base_score, 1e-6, 1.0 - 1e-6)
        self.base_margin = float(np.log(p0 / (1.0 - p0)))
        margin = np.full(n, self.base_margin, dtype=np.float64)
        self.trees: list[BoostTree] = []
        for _ in range(self.n_estimators):
            p = _sigmoid(margin)
            grad = p - target
            hess = p * (1.0 - p)
            if self.subsample < 1.0:
                rows = rng.random(n) < self.subsample
                if not rows.any():
                    rows[rng.integers(0, n)] = True
            else:
                rows = np.ones(n, dtype=bool)
            tree = BoostTree(
                self.max_depth, self.min_child_weight, self.reg_lambda, self.gamma,
                self.colsample_bytree, rng,
            )
            self.trees.append(tree.fit(X[rows], grad[rows], hess[rows]))
            margin += self.learning_rate * walk(tree.root, X)
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        margin = np.full(X.shape[0], self.base_margin, dtype=np.float64)
        for tree in self.trees:
            margin += self.learning_rate * walk(tree.root, X)
        return margin


# -- LVQ1, one sample at a time -----------------------------------------------


class LVQ1:
    """Kohonen's LVQ1 fitted one sample per step for ``lvq.EPOCHS``
    epochs, with a fresh generator seeded ``lvq.RANDOM_STATE``: its
    prototype draws class by class, then one permutation of the rows per
    epoch."""

    def __init__(self, prototypes_per_class) -> None:
        self.prototypes_per_class = prototypes_per_class

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LVQ1":
        self.classes_, encoded = np.unique(y, return_inverse=True)
        rng = np.random.default_rng(lvq.RANDOM_STATE)
        self.scaler = StandardScaler().fit(X)
        Z = self.scaler.transform(X)
        prototypes, labels = [], []
        for class_index in range(len(self.classes_)):
            members = np.nonzero(encoded == class_index)[0]
            k = min(self.prototypes_per_class, members.size)
            chosen = rng.choice(members, size=k, replace=False)
            prototypes.append(Z[chosen])
            labels.extend([class_index] * k)
        self.prototypes = np.vstack(prototypes).astype(np.float64)
        self.prototype_labels = np.asarray(labels)

        n = Z.shape[0]
        total_steps = lvq.EPOCHS * n
        step = 0
        for _ in range(lvq.EPOCHS):
            for i in rng.permutation(n):
                rate = lvq.LEARNING_RATE * (1.0 - step / total_steps)
                step += 1
                x = Z[i]
                d2 = np.sum((self.prototypes - x) ** 2, axis=1)
                nearest = int(np.argmin(d2))
                if self.prototype_labels[nearest] == encoded[i]:
                    self.prototypes[nearest] += rate * (x - self.prototypes[nearest])
                else:
                    self.prototypes[nearest] -= rate * (x - self.prototypes[nearest])
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        Z = self.scaler.transform(X)
        d2 = (
            np.sum(Z**2, axis=1)[:, None]
            - 2.0 * Z @ self.prototypes.T
            + np.sum(self.prototypes**2, axis=1)[None, :]
        )
        np.maximum(d2, 0.0, out=d2)
        scores = np.zeros((Z.shape[0], len(self.classes_)), dtype=np.float64)
        for class_index in range(len(self.classes_)):
            nearest = np.min(d2[:, self.prototype_labels == class_index], axis=1)
            scores[:, class_index] = 1.0 / (np.sqrt(nearest) + 1e-9)
        return scores / scores.sum(axis=1, keepdims=True)
