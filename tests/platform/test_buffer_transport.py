"""Tests for the data buffer and the hash-acknowledged transfer protocol."""

import gzip
import json
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.obs import MetricsRegistry
from repro.platform.buffer import BACKOFF_BASE_S, THRESHOLD_BYTES, DataBuffer, chunk_hash
from repro.platform.models import FastSnapshotRun, record_to_dict
from repro.platform.transport import LossyTransport, Transport

from tests.oracles import record_from_dict


class Receiver:
    """Minimal server double: stores chunks, acks with their hash."""

    def __init__(self):
        self.chunks: list[tuple[str, bytes]] = []

    def receive_chunk(self, kind: str, data: bytes) -> str:
        self.chunks.append((kind, data))
        return chunk_hash(data)

    def records(self):
        out = []
        for _kind, data in self.chunks:
            for line in gzip.decompress(data).decode().splitlines():
                out.append(record_from_dict(json.loads(line)))
        return out


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


def sealed_in_chunks(records, per_chunk: int = 3) -> DataBuffer:
    """A buffer holding ``records`` as fast chunks of ``per_chunk`` each:
    the paper's 100 KB threshold would need hundreds per chunk."""
    buffer = DataBuffer()
    for i, record in enumerate(records, 1):
        buffer.append("fast", record)
        if i % per_chunk == 0:
            buffer.seal_all()
    buffer.seal_all()
    return buffer


class TestDataBuffer:
    def test_no_chunk_before_threshold(self):
        buffer = DataBuffer()
        buffer.append("fast", fast_run(0))
        assert buffer.pending_chunks == 0

    def test_seal_on_threshold(self):
        # Each kind seals the moment its file reaches the paper's size:
        # 100 KB for the fast file, 8 KB for the slow one.
        for kind, limit in THRESHOLD_BYTES.items():
            buffer = DataBuffer()
            size, i = 0, 0
            while size < limit:
                assert buffer.pending_chunks == 0
                record = fast_run(i)
                size += len(json.dumps(record_to_dict(record), separators=(",", ":"))) + 1
                buffer.append(kind, record)
                i += 1
            assert buffer.pending_chunks == 1
            assert buffer._pending[0].n_records == i

    def test_seal_all_flushes_partial(self):
        buffer = DataBuffer()
        buffer.append("fast", fast_run(0))
        buffer.append("slow", fast_run(1))  # kind routing only
        buffer.seal_all()
        assert buffer.pending_chunks == 2

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            DataBuffer().append("medium", fast_run(0))

    def test_roundtrip_through_reliable_transport(self):
        receiver = Receiver()
        transport = Transport(receiver)
        buffer = DataBuffer()
        originals = [fast_run(i) for i in range(5)]
        for record in originals:
            buffer.append("fast", record)
        buffer.seal_all()
        delivered = buffer.flush(transport, 0.0)
        assert delivered == 5
        assert buffer.pending_chunks == 0
        assert receiver.records() == originals

    @staticmethod
    def sealed_chunks(n_records: int) -> list[bytes]:
        receiver = Receiver()
        buffer = DataBuffer()
        for i in range(n_records):
            buffer.append("fast" if i % 3 else "slow", fast_run(i))
            if i % 4 == 3:
                buffer.seal_all()
        buffer.seal_all()
        buffer.flush(Transport(receiver), 0.0)
        return [data for _kind, data in receiver.chunks]

    def test_sealed_chunks_carry_no_timestamp(self):
        chunks = self.sealed_chunks(12)
        assert len(chunks) > 2
        # RFC 1952: header bytes 4-7 are MTIME; zero means "not stamped".
        assert [data[4:8] for data in chunks] == [b"\0\0\0\0"] * len(chunks)

    def test_same_records_seal_same_bytes_at_any_wall_time(self, monkeypatch):
        monkeypatch.setattr(time, "time", lambda: 1_600_000_000.0)
        first = self.sealed_chunks(12)
        monkeypatch.setattr(time, "time", lambda: 1_700_000_000.0)
        assert self.sealed_chunks(12) == first

    def test_chunks_deleted_only_after_hash_match(self):
        receiver = Receiver()
        buffer = DataBuffer()
        buffer.append("fast", fast_run(0))
        buffer.seal_all()

        class WrongAck:
            def send(self, kind, data):
                return "bogus-hash"

        buffer.flush(WrongAck(), 0.0)
        assert buffer.pending_chunks == 1  # kept for retransmission
        buffer.flush(Transport(receiver), BACKOFF_BASE_S)
        assert buffer.pending_chunks == 0

    def test_retransmission_over_lossy_channel(self):
        receiver = Receiver()
        transport = LossyTransport(
            receiver, loss_probability=0.9, rng=np.random.default_rng(1)
        )
        buffer = DataBuffer()
        for i in range(4):
            buffer.append("fast", fast_run(i))
        buffer.seal_all()
        buffer.drain(transport, now=0.0, deadline=10**7)  # retry until it lands
        assert buffer.pending_chunks == 0
        assert len(receiver.records()) == 4
        assert buffer.retransmissions > 0

    def test_lossy_channel_takes_two_draws_per_delivered_send(self):
        # A lost chunk takes one draw, a delivered one two: the seeded
        # world's behaviour stream depends on it.
        rng = np.random.default_rng(5)
        transport = LossyTransport(Receiver(), loss_probability=0.5, rng=rng)
        with obs.collecting(MetricsRegistry()) as registry:
            delivered = sum(transport.send("fast", b"x") is not None for _ in range(40))
        reference = np.random.default_rng(5)
        expected = 0
        for _ in range(40):
            if reference.random() >= 0.5:
                reference.random()
                expected += 1
        assert delivered == expected == 40 - registry.value("transport_chunks_lost_total")
        assert rng.random() == reference.random()


class TestCounters:
    """The ``obs`` counters are the one count of each send and seal."""

    def test_sends_and_bytes_count_every_send(self):
        sends = [("fast", b"abc"), ("slow", b"de"), ("fast", b"f" * 100)]
        for make in (
            Transport,
            lambda receiver: LossyTransport(
                receiver, loss_probability=0.5, rng=np.random.default_rng(2)
            ),
        ):
            with obs.collecting(MetricsRegistry()) as registry:
                transport = make(Receiver())
                for kind, data in sends:
                    transport.send(kind, data)
            assert registry.counter("transport_chunks_sent_total", {"kind": "fast"}).value == 2
            assert registry.counter("transport_chunks_sent_total", {"kind": "slow"}).value == 1
            assert registry.value("transport_bytes_sent_total") == 105

    def test_lost_chunks_are_the_missing_acks(self):
        receiver = Receiver()
        transport = LossyTransport(
            receiver, loss_probability=0.3, rng=np.random.default_rng(9)
        )
        with obs.collecting(MetricsRegistry()) as registry:
            acks = [transport.send("fast", bytes([i])) for i in range(200)]
        lost = acks.count(None)
        assert 0 < lost < 200
        assert registry.value("transport_chunks_lost_total") == lost
        assert len(receiver.chunks) == 200 - lost

    def test_sealed_and_dead_lettered_chunks_per_kind(self):
        buffer = DataBuffer()
        buffer.retry_budget = 1
        with obs.collecting(MetricsRegistry()) as registry:
            for i in range(5):
                buffer.append("fast" if i % 2 else "slow", fast_run(i))
                if i in (1, 3):
                    buffer.seal_all()
            buffer.seal_all()
            # Sealing an empty accumulation file makes no chunk.
            buffer.seal_all()
            buffer.flush(TestBackoffScheduling.Blackhole(), 0.0)
        assert registry.counter("buffer_chunks_sealed_total", {"kind": "fast"}).value == 2
        assert registry.counter("buffer_chunks_sealed_total", {"kind": "slow"}).value == 3
        assert registry.counter("buffer_dead_letters_total", {"kind": "fast"}).value == 2
        assert registry.counter("buffer_dead_letters_total", {"kind": "slow"}).value == 3
        assert buffer.dead_letter_chunks == 5


class TestBackoffScheduling:
    """The virtual-clock retry scheduler (no wall clock, no sleeping)."""

    @staticmethod
    def _sealed_buffer(retry_budget: int = 0) -> DataBuffer:
        buffer = DataBuffer()
        buffer.retry_budget = retry_budget
        buffer.append("fast", fast_run(0))
        buffer.seal_all()
        return buffer

    class Blackhole:
        """Transport that loses everything (no ack, ever)."""

        def __init__(self):
            self.sends = 0

        def send(self, kind, data):
            self.sends += 1
            return None

    def test_failed_chunk_is_backed_off_not_hammered(self):
        from repro.platform.buffer import BACKOFF_BASE_S

        buffer = self._sealed_buffer()
        hole = self.Blackhole()
        buffer.flush(hole, 0.0)
        chunk = buffer._pending[0]
        assert chunk.attempts == 1
        assert chunk.next_attempt_at == BACKOFF_BASE_S
        # A pass before the retry comes due must not touch the transport.
        buffer.flush(hole, BACKOFF_BASE_S / 2)
        assert hole.sends == 1
        buffer.flush(hole, BACKOFF_BASE_S)
        assert hole.sends == 2

    def test_backoff_doubles_and_caps(self):
        from repro.platform.buffer import BACKOFF_BASE_S, BACKOFF_CAP_S

        buffer = self._sealed_buffer()
        hole = self.Blackhole()
        clock, waits = 0.0, []
        for _ in range(8):
            buffer.flush(hole, clock)
            due = buffer._pending[0].next_attempt_at
            waits.append(due - clock)
            clock = due
        assert waits[:3] == [BACKOFF_BASE_S, BACKOFF_BASE_S * 2, BACKOFF_BASE_S * 4]
        assert waits[-1] == BACKOFF_CAP_S

    def test_jitter_is_seeded_and_bounded(self):
        from repro.platform.buffer import BACKOFF_BASE_S

        waits = []
        for _ in range(2):
            buffer = self._sealed_buffer()
            buffer.flush(self.Blackhole(), 0.0, rng=np.random.default_rng(7))
            waits.append(buffer._pending[0].next_attempt_at)
        assert waits[0] == waits[1]  # same seed, same schedule
        assert 0.5 * BACKOFF_BASE_S <= waits[0] < 1.5 * BACKOFF_BASE_S

    def test_retry_budget_dead_letters_then_requeues(self):
        buffer = self._sealed_buffer(retry_budget=3)
        hole = self.Blackhole()
        with obs.collecting(MetricsRegistry()) as registry:
            delivered = buffer.drain(hole, now=0.0, deadline=10**7)
        assert delivered == 0
        assert hole.sends == 3
        assert buffer.pending_chunks == 0
        assert buffer.dead_letter_chunks == 1
        assert registry.counter("buffer_dead_letters_total", {"kind": "fast"}).value == 1
        assert buffer.requeue_dead_letters() == 1
        assert buffer.dead_letter_chunks == 0
        receiver = Receiver()
        assert buffer.drain(Transport(receiver), now=0.0, deadline=10**7) == 1
        assert len(receiver.chunks) == 1

    def test_throttle_opens_circuit_and_burns_no_attempt(self):
        from repro.platform.errors import Throttled

        class Overloaded:
            def __init__(self):
                self.sends = 0

            def send(self, kind, data):
                self.sends += 1
                raise Throttled(retry_after=900.0)

        buffer = self._sealed_buffer(retry_budget=2)
        server = Overloaded()
        buffer.flush(server, 0.0)
        assert buffer.throttle_trips == 1
        assert buffer._pending[0].attempts == 0  # backpressure burns no budget
        # Circuit open: passes inside the Retry-After window are no-ops.
        buffer.flush(server, 500.0)
        assert server.sends == 1
        buffer.flush(server, 900.0)
        assert server.sends == 2

    def test_drain_delivers_within_deadline_over_flaky_channel(self):
        receiver = Receiver()
        transport = LossyTransport(
            receiver, loss_probability=0.8, rng=np.random.default_rng(3)
        )
        originals = [fast_run(i) for i in range(12)]
        buffer = sealed_in_chunks(originals)
        delivered = buffer.drain(
            transport, now=0.0, deadline=10**7, rng=np.random.default_rng(4)
        )
        assert delivered == 12
        assert buffer.pending_chunks == 0
        assert sorted(receiver.records(), key=lambda r: r.start) == originals


class TestExactlyOnceProperties:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(1, 40), st.integers(0, 10_000))
    def test_property_no_loss_no_duplication(self, n_records, seed):
        """Whatever the loss pattern, retry-until-acked delivers every
        record exactly once."""
        receiver = Receiver()
        transport = LossyTransport(
            receiver, loss_probability=0.3, rng=np.random.default_rng(seed)
        )
        originals = [fast_run(i) for i in range(n_records)]
        buffer = sealed_in_chunks(originals)
        buffer.drain(transport, now=0.0, deadline=10**7)
        assert buffer.pending_chunks == 0
        assert sorted(receiver.records(), key=lambda r: r.start) == originals
