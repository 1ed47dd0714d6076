"""End-to-end exactly-once ingest under injected faults.

The harness wires the real client pieces to the real server pieces:
``DataBuffer`` (backoff + retry budget) → ``FaultyTransport`` (loss,
corruption, ack loss) → ``FaultableServer`` (overload, store rejection,
receive crashes) → ``DocumentStore``.  Whatever the fault schedule, the
store must end up holding every record exactly once — and a crashed
receive must never leave a partial chunk behind.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.faults import (
    FaultPlan,
    FaultSpec,
    FaultableServer,
    FaultyTransport,
    ServerCrash,
    StoreRejected,
)
from repro.platform.buffer import DataBuffer, chunk_hash
from repro.platform.models import FastSnapshotRun
from repro.platform.server import _COLLECTIONS
from repro.frames import Field, RecordSchema
from repro.obs import MetricsRegistry
from repro.platform import server as server_module
from repro.platform.store import ColumnarCollection, DocumentStore
from repro.platform.transport import Transport

DAY_S = 86_400.0


def fast_run(i: int) -> FastSnapshotRun:
    return FastSnapshotRun(
        install_id="inst",
        participant_id="100001",
        start=float(i),
        end=float(i) + 60.0,
        period=5.0,
        foreground=f"com.app{i}",
        screen_on=True,
        battery=0.9,
    )


def sealed_buffer(
    n_records: int, per_chunk: int | None = 3, retry_budget: int = 0
) -> DataBuffer:
    """``n_records`` fast runs sealed ``per_chunk`` to a chunk (all in one
    chunk for ``None``), far below the paper's 100 KB threshold."""
    buffer = DataBuffer()
    buffer.retry_budget = retry_budget
    for i in range(n_records):
        buffer.append("fast", fast_run(i))
        if per_chunk is not None and (i + 1) % per_chunk == 0:
            buffer.seal_all()
    buffer.seal_all()
    return buffer


def chunk_bytes(n_records: int = 8) -> bytes:
    """One sealed compressed chunk holding ``n_records`` fast runs."""
    buffer = sealed_buffer(n_records, per_chunk=None)
    return buffer._pending[0].data


def make_server(plan: FaultPlan, seed: int = 0) -> FaultableServer:
    return FaultableServer(
        DocumentStore(), plan=plan, rng=np.random.default_rng([seed, 0x5E4])
    )


def collection_contents(server) -> dict[str, list[tuple]]:
    """Every snapshot collection's documents as hashable rows."""
    return {
        name: sorted(
            tuple(sorted(doc.items())) for doc in server.store[name].find()
        )
        for name in _COLLECTIONS.values()
    }


def assert_no_duplicates(server) -> None:
    for name, rows in collection_contents(server).items():
        assert len(rows) == len(set(rows)), f"duplicate records in {name}"


class TestAckLossRetransmission:
    @settings(max_examples=12, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 30))
    def test_property_retransmits_never_duplicate(self, seed, n_records):
        """Satellite: ack loss after durable store plus retransmission
        yields zero duplicate records in every collection — whatever the
        seeded loss/ack-loss schedule does."""
        plan = FaultPlan(
            transport_loss=FaultSpec(0.3),
            ack_loss=FaultSpec(0.4),
        )
        server = make_server(plan, seed)
        transport = FaultyTransport(
            server, plan=plan, rng=np.random.default_rng([seed, 0x7A0])
        )
        buffer = sealed_buffer(n_records)
        with obs.collecting(MetricsRegistry()) as registry:
            buffer.drain(
                transport,
                now=0.0,
                deadline=10**8,
                rng=np.random.default_rng([seed, 0xB0]),
            )
        assert buffer.pending_chunks == 0
        fast_docs = server.store["fast_runs"].find()
        assert sorted(d["start"] for d in fast_docs) == [
            float(i) for i in range(n_records)
        ]
        assert_no_duplicates(server)
        # Every lost ack makes the client resend a chunk the server
        # already holds, and every chunk is acked in the end.
        assert server.stats.duplicate_chunks == registry.value("transport_acks_lost_total")

    def test_certain_ack_loss_single_server_copy(self):
        """With every ack lost the client retries into its budget and
        dead-letters, yet the server holds exactly one copy; healing the
        channel and requeueing reconciles the client's view."""
        plan = FaultPlan(ack_loss=FaultSpec(1.0))
        server = make_server(plan)
        transport = FaultyTransport(
            server, plan=plan, rng=np.random.default_rng([0, 0x7A0])
        )
        buffer = sealed_buffer(3, per_chunk=None, retry_budget=4)
        buffer.drain(transport, now=0.0, deadline=10**8)
        assert buffer.dead_letter_chunks == 1  # client never saw an ack
        assert server.stats.chunks_received == 4  # original + 3 retransmits
        assert server.stats.duplicate_chunks == 3
        assert len(server.store["fast_runs"]) == 3  # exactly one copy
        assert_no_duplicates(server)

        buffer.requeue_dead_letters()
        transport.heal()
        delivered = buffer.drain(transport, now=0.0, deadline=10**8)
        assert delivered == 3
        assert buffer.pending_chunks == buffer.dead_letter_chunks == 0
        assert len(server.store["fast_runs"]) == 3  # dedup absorbed the replay
        assert_no_duplicates(server)


class TestCrashMidChunk:
    def test_store_never_exposes_a_partial_chunk(self):
        """Satellite: a receive crash mid-chunk (a prefix of the records
        already inserted) leaves every collection exactly as it was."""
        plan = FaultPlan(receive_crash=FaultSpec(1.0))
        server = make_server(plan, seed=3)
        data = chunk_bytes()
        before = collection_contents(server)
        crashes = 0
        for _ in range(5):  # several crash points (seeded prefix draw)
            with pytest.raises(ServerCrash):
                server.receive_chunk("fast", data)
            crashes += 1
            assert collection_contents(server) == before
        assert server.stats.chunk_rollbacks == crashes
        assert server.stats.records_inserted == 0

        server.heal()
        ack = server.receive_chunk("fast", data)
        assert ack == chunk_hash(data)
        assert len(server.store["fast_runs"]) == 8
        # The post-crash redelivery is remembered: replaying it dedups.
        server.receive_chunk("fast", data)
        assert server.stats.duplicate_chunks == 1
        assert len(server.store["fast_runs"]) == 8
        assert_no_duplicates(server)


class TestStoreRejectAndRedelivery:
    def test_day_windowed_rejection_then_clean_retry(self):
        plan = FaultPlan(store_reject=FaultSpec(1.0, days=(0,)))
        server = make_server(plan)
        data = chunk_bytes(4)
        with pytest.raises(StoreRejected):
            server.receive_chunk("fast", data)
        server.queue_redelivery("fast", data)
        assert server.redelivery_backlog == 1
        assert len(server.store["fast_runs"]) == 0

        server.set_day(1)  # rejection window over
        assert server.redeliver_pending() == 1
        assert server.redelivery_backlog == 0
        assert server.redelivered_chunks == 1
        assert len(server.store["fast_runs"]) == 4
        # The redelivered chunk is remembered: a late client retry dedups.
        server.receive_chunk("fast", data)
        assert server.stats.duplicate_chunks == 1
        assert len(server.store["fast_runs"]) == 4

    def test_redelivery_reparks_while_fault_persists(self):
        plan = FaultPlan(store_reject=FaultSpec(1.0))
        server = make_server(plan)
        server.queue_redelivery("fast", chunk_bytes(2))
        assert server.redeliver_pending() == 0
        assert server.redelivery_backlog == 1
        assert server.drain_redelivery() == 1  # heal + deliver
        assert server.redelivery_backlog == 0
        assert len(server.store["fast_runs"]) == 2


class TestOverloadCircuitBreaker:
    def test_throttle_backs_off_then_delivers_once(self):
        plan = FaultPlan(
            overload=FaultSpec(1.0, days=(0,)), overload_retry_after_s=1800.0
        )
        server = make_server(plan)
        transport = Transport(server)
        buffer = sealed_buffer(5, per_chunk=None, retry_budget=8)
        assert buffer.flush(transport, 0.0) == 0
        assert buffer.throttle_trips == 1
        assert buffer._circuit_open_until == 1800.0
        assert buffer._pending[0].attempts == 0  # throttle burns no budget
        assert len(server.store["fast_runs"]) == 0

        server.set_day(1)  # overload window over
        delivered = buffer.drain(transport, now=0.0, deadline=DAY_S)
        assert delivered == 5
        assert len(server.store["fast_runs"]) == 5
        assert_no_duplicates(server)

    def test_fault_counts_track_overload(self):
        plan = FaultPlan(overload=FaultSpec(1.0))
        server = make_server(plan)
        transport = Transport(server)
        buffer = sealed_buffer(2, per_chunk=None)
        buffer.flush(transport, 0.0)
        assert server.fault_counts["overload"] == 1


class TestDedupWindow:
    @pytest.mark.parametrize("window", [1, 2, 16])
    def test_fifo_eviction_bounds_the_memory(self, monkeypatch, window):
        monkeypatch.setattr(server_module, "DEDUP_WINDOW", window)
        chunk_a = chunk_bytes(2)
        chunk_b = chunk_bytes(3)
        server = make_server(FaultPlan())
        server.receive_chunk("fast", chunk_a)
        server.receive_chunk("fast", chunk_b)  # a window of 1 evicts chunk_a's hash
        server.receive_chunk("fast", chunk_a)
        if window == 1:
            # chunk_a was not recognised, so it was stored again and
            # evicted chunk_b in turn.
            assert server.stats.duplicate_chunks == 0
            assert len(server.store["fast_runs"]) == 7
        else:
            assert server.stats.duplicate_chunks == 1
            assert len(server.store["fast_runs"]) == 5
        evictions = server.metrics.value("ingest_dedup_evictions_total")
        assert evictions == {1: 2, 2: 0, 16: 0}[window]

    def test_evictions_count_every_hash_past_the_window(self, monkeypatch):
        monkeypatch.setattr(server_module, "DEDUP_WINDOW", 3)
        server = make_server(FaultPlan())
        chunks = [chunk_bytes(n) for n in range(1, 9)]
        for data in chunks:
            server.receive_chunk("fast", data)
        assert server.metrics.value("ingest_dedup_evictions_total") == 5
        # The three newest are remembered, the five oldest are not.
        for data in chunks[-3:] + chunks[:5]:
            server.receive_chunk("fast", data)
        assert server.stats.duplicate_chunks == 3

    def test_malformed_chunks_are_acked_but_not_remembered(self):
        server = make_server(FaultPlan())
        garbage = b"\x00not gzip at all"
        ack = server.receive_chunk("fast", garbage)
        assert ack == chunk_hash(garbage)
        assert server.stats.malformed_chunks == 1
        # A repaired retransmission of the same bytes must not be
        # swallowed by the dedup window: only *stored* chunks dedup.
        server.receive_chunk("fast", garbage)
        assert server.stats.duplicate_chunks == 0


class TestTransportCounters:
    def test_faulty_transport_counts_each_site(self):
        plan = FaultPlan(
            transport_loss=FaultSpec(0.2),
            transport_corruption=FaultSpec(0.2),
            ack_loss=FaultSpec(0.3),
        )
        server = make_server(plan)
        transport = FaultyTransport(
            server, plan=plan, rng=np.random.default_rng([11, 0x7A0])
        )
        payloads = [chunk_bytes(n) for n in range(1, 41)]
        with obs.collecting(MetricsRegistry()) as registry:
            acks = [transport.send("fast", data) for data in payloads]
        received = server.stats.chunks_received
        corrupted = server.stats.malformed_chunks
        delivered = sum(ack == chunk_hash(data) for ack, data in zip(acks, payloads))
        lost = len(payloads) - received
        acks_lost = received - corrupted - delivered
        assert min(lost, corrupted, acks_lost) > 0
        assert registry.counter("transport_chunks_sent_total", {"kind": "fast"}).value == 40
        assert registry.value("transport_bytes_sent_total") == sum(map(len, payloads))
        assert registry.value("transport_chunks_lost_total") == lost
        assert registry.value("transport_chunks_corrupted_total") == corrupted
        assert registry.value("transport_acks_lost_total") == acks_lost
        assert acks.count(None) == lost + acks_lost


class TestCorruptionEndToEnd:
    def test_corrupted_bytes_reach_server_and_are_counted(self):
        plan = FaultPlan(transport_corruption=FaultSpec(1.0, days=(0,)))
        server = make_server(plan)
        transport = FaultyTransport(
            server, plan=plan, rng=np.random.default_rng([5, 0x7A0])
        )
        buffer = sealed_buffer(4, per_chunk=None)
        assert buffer.flush(transport, 0.0) == 0
        # The damaged chunk really reached the server (gzip magic byte
        # flipped -> malformed), the ack mismatched, the chunk is kept.
        assert server.stats.chunks_received == 1
        assert server.stats.malformed_chunks == 1
        assert buffer.pending_chunks == 1
        transport.set_day(1)  # corruption window over
        buffer.drain(transport, now=0.0, deadline=DAY_S)
        assert len(server.store["fast_runs"]) == 4
        assert_no_duplicates(server)


class TestStoreRollbackUnits:
    def test_mark_rollback_restores_count_and_index(self):
        thing = RecordSchema("thing", (Field("install_id", "str"), Field("v", "int")))
        coll = ColumnarCollection("things", thing)
        coll.create_index("install_id")
        coll.insert_many([{"install_id": "a", "v": 1}, {"install_id": "b", "v": 2}])
        mark = coll.mark()
        coll.insert_many([{"install_id": "a", "v": 3}, {"install_id": "c", "v": 4}])
        coll.rollback_to(mark)
        assert len(coll) == 2
        assert sorted(d["v"] for d in coll.find()) == [1, 2]
        assert coll.find({"install_id": "a"}) == [{"install_id": "a", "v": 1}]
        assert coll.find({"install_id": "c"}) == []
        # The collection still works normally after a rollback.
        coll.insert({"install_id": "c", "v": 5})
        assert coll.find({"install_id": "c"}) == [{"install_id": "c", "v": 5}]
