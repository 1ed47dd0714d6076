"""On-device data buffer: accumulate, compress, hash-verified upload.

§3 "Data Buffer Module": snapshots are appended to per-type
accumulation files; when the slow file reaches 8 KB or the fast file
reaches 100 KB the file is gzip-compressed and queued.  The upload
alarm sends queued chunks to the server, which acknowledges with the
SHA-256 of the received bytes; the app deletes a chunk only when the
acknowledged hash matches its own, otherwise the chunk is retransmitted
("resilient communications").

Retransmission discipline: a failed chunk is rescheduled with
exponential backoff on the *virtual* clock (never the wall clock —
statan DET002), with seeded jitter when the caller injects a Generator.
A :class:`~repro.platform.errors.Throttled` response opens a circuit
breaker for the server's ``Retry-After`` window, and chunks that exhaust
a fault plan's retry budget park on a dead-letter queue instead of
blocking the rest of the flush.
"""

from __future__ import annotations

import gzip
import hashlib
import json
from dataclasses import dataclass, field

from .. import obs
from .errors import Throttled, UploadError
from .models import record_to_dict

__all__ = ["BufferedChunk", "DataBuffer", "chunk_hash"]

#: The paper's flush thresholds (§3): the accumulation file of each kind
#: is sealed once it holds this many bytes.
THRESHOLD_BYTES = {"fast": 100 * 1024, "slow": 8 * 1024}

#: Exponential-backoff schedule (virtual seconds): base * 2**(attempts-1),
#: capped, optionally jittered by a factor drawn from [0.5, 1.5).
BACKOFF_BASE_S = 120.0
BACKOFF_CAP_S = 3600.0

_BACKOFF_BUCKETS = (60.0, 120.0, 240.0, 480.0, 960.0, 1920.0, 3600.0, 5400.0)

#: One compact-separator encoder for every line: ``json.dumps`` builds a
#: new ``JSONEncoder`` per call when given ``separators``, for the same
#: bytes.
_encode_line = json.JSONEncoder(separators=(",", ":")).encode


def chunk_hash(data: bytes) -> str:
    """The transfer-validation hash (SHA-256 hex digest)."""
    return hashlib.sha256(data).hexdigest()


@dataclass(slots=True)
class BufferedChunk:
    """One compressed accumulation file awaiting upload."""

    kind: str  # "fast" | "slow"
    data: bytes
    n_records: int
    attempts: int = 0
    #: Virtual timestamp before which the retry scheduler skips this
    #: chunk; 0.0 means due immediately.
    next_attempt_at: float = 0.0
    _sha256: str | None = field(default=None, repr=False)

    @property
    def sha256(self) -> str:
        # Chunk bytes are immutable once sealed, so the transfer hash is
        # computed once instead of per attempt in the retry hot loop.
        if self._sha256 is None:
            self._sha256 = chunk_hash(self.data)
        return self._sha256


class DataBuffer:
    """Per-install snapshot buffer, sealing at :data:`THRESHOLD_BYTES`."""

    def __init__(self) -> None:
        self._accumulating: dict[str, list[str]] = {"fast": [], "slow": []}
        self._accumulated_bytes: dict[str, int] = {"fast": 0, "slow": 0}
        self._pending: list[BufferedChunk] = []
        self._dead_letters: list[BufferedChunk] = []
        self._circuit_open_until = 0.0
        #: Attempts allowed per chunk before it is dead-lettered; 0 means
        #: unlimited (the alarm retries forever).  Under a fault plan the day
        #: engine sets ``simulation.phases.RETRY_BUDGET``.
        self.retry_budget = 0
        self.retransmissions = 0
        self.throttle_trips = 0

    # -- accumulation -------------------------------------------------------
    def append(self, kind: str, record) -> None:
        """Serialise one snapshot record into the ``kind`` accumulation file."""
        if kind not in self._accumulating:
            raise ValueError(f"unknown buffer kind {kind!r}")
        line = _encode_line(record_to_dict(record))
        self._accumulating[kind].append(line)
        self._accumulated_bytes[kind] += len(line) + 1
        if self._accumulated_bytes[kind] >= THRESHOLD_BYTES[kind]:
            self._seal(kind)

    def _seal(self, kind: str) -> None:
        """Compress the current accumulation file and start a new one."""
        lines = self._accumulating[kind]
        if not lines:
            return
        raw = ("\n".join(lines) + "\n").encode()
        # mtime=0: by default gzip stamps the wall clock into the header,
        # and the chunk bytes (and so their SHA-256 acks) must depend on
        # the records alone.
        self._pending.append(
            BufferedChunk(
                kind=kind, data=gzip.compress(raw, mtime=0), n_records=len(lines)
            )
        )
        self._accumulating[kind] = []
        self._accumulated_bytes[kind] = 0
        obs.counter("buffer_chunks_sealed_total", {"kind": kind}).inc()
        obs.histogram(
            "buffer_chunk_records",
            {"kind": kind},
            buckets=(1, 5, 10, 50, 100, 500, 1000, 5000),
        ).observe(len(lines))

    def seal_all(self) -> None:
        """Force-seal both accumulation files (app shutdown / uninstall)."""
        for kind in ("fast", "slow"):
            self._seal(kind)

    # -- upload ---------------------------------------------------------------
    @property
    def pending_chunks(self) -> int:
        return len(self._pending)

    @property
    def dead_letter_chunks(self) -> int:
        return len(self._dead_letters)

    def requeue_dead_letters(self) -> int:
        """Put dead-lettered chunks back on the retry queue with a fresh
        attempt count (operator-driven replay, e.g. after the channel
        heals at study close).  Returns the number requeued."""
        requeued = len(self._dead_letters)
        for chunk in self._dead_letters:
            chunk.attempts = 0
            chunk.next_attempt_at = 0.0
        self._pending.extend(self._dead_letters)
        self._dead_letters.clear()
        return requeued

    def _schedule_retry(self, chunk: BufferedChunk, now: float, rng) -> None:
        backoff = min(
            BACKOFF_CAP_S, BACKOFF_BASE_S * 2.0 ** min(chunk.attempts - 1, 16)
        )
        if rng is not None:
            backoff *= 0.5 + float(rng.random())  # seeded jitter, [0.5x, 1.5x)
        obs.histogram(
            "buffer_backoff_seconds", {"kind": chunk.kind}, buckets=_BACKOFF_BUCKETS
        ).observe(backoff)
        chunk.next_attempt_at = now + backoff

    def flush(self, transport, now: float, *, rng=None) -> int:
        """One upload pass at virtual time ``now``: attempt each due
        chunk once, delete it only on a matching hash acknowledgement,
        otherwise reschedule it with exponential backoff (seeded jitter
        when ``rng`` is given).  A :class:`Throttled` response opens the
        circuit breaker for the server's ``retry_after`` and ends the
        pass early.  Returns the number of records delivered this call."""
        clock = float(now)
        if clock < self._circuit_open_until:
            return 0
        delivered_records = 0
        still_pending: list[BufferedChunk] = []
        throttled = False
        for chunk in self._pending:
            if throttled or chunk.next_attempt_at > clock:
                still_pending.append(chunk)
                continue
            try:
                ack = transport.send(chunk.kind, chunk.data)
            except Throttled as exc:
                # Server backpressure is not the chunk's fault: it burns
                # no attempt, and the breaker holds off the whole queue.
                self.throttle_trips += 1
                self._circuit_open_until = max(
                    self._circuit_open_until, clock + max(exc.retry_after, 1.0)
                )
                obs.counter("buffer_throttle_trips_total").inc()
                throttled = True
                still_pending.append(chunk)
                continue
            except UploadError:
                ack = None  # server-side failure: no acknowledgement came back
            chunk.attempts += 1
            if chunk.attempts > 1:
                self.retransmissions += 1
                obs.counter("buffer_retransmissions_total").inc()
            if ack == chunk.sha256:
                delivered_records += chunk.n_records
                continue
            if self.retry_budget and chunk.attempts >= self.retry_budget:
                self._dead_letters.append(chunk)
                obs.counter("buffer_dead_letters_total", {"kind": chunk.kind}).inc()
                continue
            self._schedule_retry(chunk, clock, rng)
            still_pending.append(chunk)
        self._pending = still_pending
        obs.counter("buffer_records_delivered_total").inc(delivered_records)
        if still_pending:
            obs.counter("buffer_flushes_incomplete_total").inc()
        return delivered_records

    def drain(self, transport, *, now: float, deadline: float, rng=None) -> int:
        """Flush repeatedly over a virtual-time window, advancing the
        clock to the next due retry (or circuit-breaker expiry) between
        passes, until the queue empties or the next attempt would land
        past ``deadline``.  This models the upload alarm re-firing with
        backoff across the day.  Returns the records delivered."""
        delivered = 0
        clock = float(now)
        while self._pending:
            due = min(chunk.next_attempt_at for chunk in self._pending)
            clock = max(clock, due, self._circuit_open_until)
            if clock > deadline:
                break
            delivered += self.flush(transport, clock, rng=rng)
        return delivered
