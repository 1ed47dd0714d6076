"""RacketStore web app: sign-in service, snapshot ingest engine, queries.

Mirrors the server side of Figure 3: the sign-in component validates
participant codes and records installs; the snapshot collector engine
receives compressed chunks, acknowledges them with the SHA-256 of the
received bytes, decompresses, and inserts the records into the document
store; the backend tracks every app seen on a participant device so the
review crawler can follow it ("live" crawling, §5).
"""

from __future__ import annotations

import gzip
import itertools
import json

from .. import obs
from ..obs.metrics import MetricsRegistry
from ..simulation.calibration import RECRUITMENT
from ..simulation.clock import SECONDS_PER_DAY
from .buffer import chunk_hash
from .fingerprint import DeviceCluster, InstallFingerprint, coalesce_installs
from .models import check_record
from .store import DocumentStore

__all__ = ["RacketStoreServer", "IngestStats"]

#: Dedup-window capacity: the SHA-256 of this many recently ingested
#: chunks is remembered.  Retransmits arrive within a few alarm cycles of
#: the original, so a bounded recent-chunk memory is enough for
#: exactly-once ingest without unbounded growth.
DEDUP_WINDOW = 4_096

_COLLECTIONS = {
    "initial": "initial_snapshots",
    "fast_run": "fast_runs",
    "slow_run": "slow_runs",
    "app_change": "app_changes",
}


class IngestStats:
    """Read-only view of the server's ingest counters.

    Every count lives in a :class:`~repro.obs.MetricsRegistry` (the
    process-wide one when ``obs.configure()`` has run, a private real
    registry otherwise) and this view reads it back, so the dashboard
    and a ``--metrics-out`` export see the same numbers.

    ``malformed_chunks`` counts transport-level corruption (bad gzip /
    undecodable bytes); ``malformed_records`` counts schema drift (a
    line that is not JSON or fails
    :func:`~repro.platform.models.check_record`).
    """

    __slots__ = ("_registry",)

    def __init__(self, registry: MetricsRegistry) -> None:
        self._registry = registry

    @property
    def chunks_received(self) -> int:
        return int(self._registry.value("ingest_chunks_received_total"))

    @property
    def bytes_received(self) -> int:
        return int(self._registry.value("ingest_bytes_received_total"))

    @property
    def records_inserted(self) -> int:
        return int(self._registry.value("ingest_records_inserted_total"))

    @property
    def malformed_chunks(self) -> int:
        return int(self._registry.value("ingest_malformed_chunks_total"))

    @property
    def malformed_records(self) -> int:
        return int(self._registry.value("ingest_malformed_records_total"))

    @property
    def duplicate_chunks(self) -> int:
        """Retransmitted chunks absorbed by the dedup window (the chunk
        was already durably stored; only the ack had been lost)."""
        return int(self._registry.value("ingest_duplicate_chunks_total"))

    @property
    def chunk_rollbacks(self) -> int:
        """Chunk ingests rolled back after a mid-insert failure."""
        return int(self._registry.value("ingest_chunk_rollbacks_total"))


def payment_for(first_seen: float, last_seen: float) -> float:
    """§4 participant payment for an install observed over
    ``[first_seen, last_seen]``: $1 per install + $0.20 per retained day."""
    days_retained = max(0, int((last_seen - first_seen) // SECONDS_PER_DAY))
    return RECRUITMENT.PAY_INSTALL_USD + days_retained * RECRUITMENT.PAY_PER_DAY_USD


class RacketStoreServer:
    """The backend the mobile apps report to."""

    def __init__(
        self,
        store: DocumentStore | None = None,
        review_crawler=None,
    ) -> None:
        self.store = store or DocumentStore()
        self.review_crawler = review_crawler
        # Attach to the process-wide registry when observability is on so
        # exports see ingest counters; otherwise keep a private real
        # registry so ``stats`` always counts (the dashboard reads it).
        registry = obs.registry() if obs.metrics_enabled() else MetricsRegistry()
        self.metrics = registry
        self.stats = IngestStats(registry)
        self._c_chunks = registry.counter(
            "ingest_chunks_received_total", help="compressed chunks received"
        )
        self._c_bytes = registry.counter(
            "ingest_bytes_received_total", help="compressed bytes received"
        )
        self._c_records = registry.counter(
            "ingest_records_inserted_total", help="snapshot records stored"
        )
        self._c_malformed_chunks = registry.counter(
            "ingest_malformed_chunks_total",
            help="chunks dropped for transport corruption (bad gzip/encoding)",
        )
        self._c_malformed_records = registry.counter(
            "ingest_malformed_records_total",
            help="record lines dropped for schema drift (bad JSON/shape)",
        )
        self._c_duplicates = registry.counter(
            "ingest_duplicate_chunks_total",
            help="retransmitted chunks already durably stored (dedup hits)",
        )
        self._c_evictions = registry.counter(
            "ingest_dedup_evictions_total",
            help="chunk hashes the dedup window forgot to make room",
        )
        self._c_rollbacks = registry.counter(
            "ingest_chunk_rollbacks_total",
            help="chunk ingests rolled back after a mid-insert failure",
        )
        self._h_latency = registry.histogram(
            "ingest_chunk_seconds", help="receive_chunk wall time"
        )
        # Idempotent-receive memory: SHA-256 of every recently ingested
        # chunk, evicted FIFO past DEDUP_WINDOW (dict preserves insertion
        # order).
        self._seen_chunks: dict[str, None] = {}
        self._participants: set[str] = set()
        self._participant_counter = itertools.count(100_000)
        for name in _COLLECTIONS.values():
            self.store.collection(name).create_index("install_id")
        self.store.collection("installs").create_index("install_id")

    # -- sign-in service ------------------------------------------------------
    def issue_participant_id(self) -> str:
        """Mint a unique 6-digit participant code (sent out-of-band)."""
        code = str(next(self._participant_counter))
        self._participants.add(code)
        return code

    def is_valid_participant(self, participant_id: str) -> bool:
        return participant_id in self._participants

    def register_install(
        self,
        participant_id: str,
        install_id: str,
        android_id: str | None,
        timestamp: float,
    ) -> None:
        if not self.is_valid_participant(participant_id):
            raise PermissionError(f"unknown participant {participant_id!r}")
        self.store["installs"].insert(
            {
                "install_id": install_id,
                "participant_id": participant_id,
                "android_id": android_id,
                "registered_at": timestamp,
            }
        )

    # -- snapshot collector engine -----------------------------------------------
    def receive_chunk(self, kind: str, data: bytes) -> str:
        """Ingest one compressed chunk; the returned SHA-256 is the
        delivery acknowledgement the mobile app validates against.

        Each line is decoded and checked by one
        :func:`~repro.platform.models.check_record` call; a line that
        fails counts as a malformed record and is skipped.  Records are
        inserted as one typed batch per snapshot family, so a columnar
        collection appends whole column runs instead of re-dispatching
        per document.

        Exactly-once contract: a chunk whose hash sits in the dedup
        window is re-acknowledged without inserting (its records are
        already durably stored; only the previous ack was lost in
        transit), and a receive that fails mid-insert rolls every
        snapshot collection back to its pre-chunk mark before the
        failure propagates — the store never exposes a partial chunk."""
        ack = chunk_hash(data)
        self._c_chunks.inc()
        self._c_bytes.inc(len(data))
        # obs.timer observes on every exit path, so the malformed-chunk
        # early return is recorded too.
        with obs.timer(self._h_latency), obs.trace("ingest.chunk"):
            if ack in self._seen_chunks:
                self._c_duplicates.inc()
                return ack
            try:
                lines = gzip.decompress(data).decode().splitlines()
            except (OSError, UnicodeDecodeError):
                self._c_malformed_chunks.inc()
                return ack
            records: list[tuple[str, dict]] = []
            for line in lines:
                if not line.strip():
                    continue
                try:
                    payload = json.loads(line)
                    type_name = check_record(payload)
                except (ValueError, TypeError):
                    self._c_malformed_records.inc()
                    continue
                records.append((type_name, payload))
            marks = [
                (collection, collection.mark())
                for collection in (
                    self.store[name] for name in _COLLECTIONS.values()
                )
            ]
            try:
                inserted = self._insert_batches(records)
            except BaseException:
                for collection, mark in marks:
                    collection.rollback_to(mark)
                self._c_rollbacks.inc()
                raise
            self._c_records.inc(inserted)
            self._remember_chunk(ack)
        return ack

    def _remember_chunk(self, sha256: str) -> None:
        self._seen_chunks[sha256] = None
        while len(self._seen_chunks) > DEDUP_WINDOW:
            self._seen_chunks.pop(next(iter(self._seen_chunks)))
            self._c_evictions.inc()

    def _insert_batches(self, records: list[tuple[str, dict]]) -> int:
        batches: dict[str, list[dict]] = {name: [] for name in _COLLECTIONS}
        for type_name, payload in records:
            batches[type_name].append(payload)
        inserted = 0
        for type_name, batch in batches.items():
            if batch:
                inserted += self.store[_COLLECTIONS[type_name]].insert_many(batch)
        if self.review_crawler is None:
            return inserted
        # Backend: follow every app seen on a participant device (§5),
        # in wire order.
        for type_name, payload in records:
            if type_name == "initial":
                for app in payload["installed_apps"]:
                    self.review_crawler.track_app(app["package"])
            elif type_name == "app_change" and payload["action"] == "install":
                self.review_crawler.track_app(payload["package"])
        return inserted

    # -- queries used by the analyses ------------------------------------------------
    def install_ids(self) -> list[str]:
        # distinct() already deduplicates in one column pass; it orders
        # by repr, so re-sort lexicographically.
        return sorted(self.store["installs"].distinct("install_id"))

    def initial_snapshot(self, install_id: str) -> dict | None:
        return self.store["initial_snapshots"].find_one({"install_id": install_id})

    def fast_runs(self, install_id: str) -> list[dict]:
        return sorted(
            self.store["fast_runs"].find({"install_id": install_id, "_type": "fast_run"}),
            key=lambda d: d["start"],
        )

    def slow_runs(self, install_id: str) -> list[dict]:
        return sorted(
            self.store["slow_runs"].find({"install_id": install_id, "_type": "slow_run"}),
            key=lambda d: d["start"],
        )

    def app_changes(self, install_id: str) -> list[dict]:
        return sorted(
            self.store["app_changes"].find({"install_id": install_id}),
            key=lambda d: d["timestamp"],
        )

    def observation_interval(self, install_id: str) -> tuple[float, float] | None:
        """[first, last] timestamp observed for an install (Appendix A)."""
        timestamps: list[float] = []
        initial = self.initial_snapshot(install_id)
        if initial:
            timestamps.append(initial["timestamp"])
        for run in self.fast_runs(install_id):
            timestamps.extend((run["start"], run["end"]))
        for run in self.slow_runs(install_id):
            timestamps.extend((run["start"], run["end"]))
        if not timestamps:
            return None
        return min(timestamps), max(timestamps)

    def snapshot_count(self, install_id: str) -> int:
        """Exact snapshot count (expanding the RLE runs)."""
        total = 0
        for run in self.fast_runs(install_id):
            total += 1 + int((run["end"] - run["start"]) // run["period"])
        for run in self.slow_runs(install_id):
            total += 1 + int((run["end"] - run["start"]) // run["period"])
        return total

    # -- fingerprinting (Appendix A) ------------------------------------------------
    def install_fingerprint(self, install_id: str) -> InstallFingerprint | None:
        interval = self.observation_interval(install_id)
        install_doc = self.store["installs"].find_one({"install_id": install_id})
        if interval is None or install_doc is None:
            return None
        initial = self.initial_snapshot(install_id)
        apps = frozenset(
            (a["package"], a["install_time"]) for a in (initial or {}).get("installed_apps", ())
        )
        accounts: set[str] = set()
        for run in self.slow_runs(install_id):
            accounts.update(identifier for _service, identifier in run["accounts"])
        return InstallFingerprint(
            install_id=install_id,
            participant_id=install_doc["participant_id"],
            android_id=install_doc["android_id"],
            first_seen=interval[0],
            last_seen=interval[1],
            app_installs=apps,
            accounts=frozenset(accounts),
        )

    def unique_devices(self) -> list[DeviceCluster]:
        """Coalesce all installs into unique devices (Appendix A)."""
        fingerprints = [
            fp
            for install_id in self.install_ids()
            if (fp := self.install_fingerprint(install_id)) is not None
        ]
        return coalesce_installs(fingerprints)

    def total_payout_usd(self) -> float:
        total = 0.0
        for install_id in self.install_ids():
            interval = self.observation_interval(install_id)
            if interval:
                total += payment_for(*interval)
        return total
