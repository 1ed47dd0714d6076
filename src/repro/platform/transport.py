"""Simulated TLS channel between the mobile app and the web app.

§3: data travels over TLS; the server acknowledges each chunk with the
crypto hash of what it received.  The simulated channel loses chunks (no
acknowledgement returned), which the
:class:`~repro.platform.buffer.DataBuffer` retry loop must survive —
property tests exercise exactly that.  Corruption is a fault-plan site
(:class:`~repro.faults.transport.FaultyTransport`).
"""

from __future__ import annotations

import numpy as np

from .. import obs

__all__ = ["Transport", "LossyTransport"]


class Transport:
    """Reliable in-memory channel delivering chunks to a receiver.

    ``receiver`` must expose ``receive_chunk(kind, data) -> str`` and
    return the SHA-256 of the bytes it durably stored.
    """

    def __init__(self, receiver) -> None:
        self._receiver = receiver

    @staticmethod
    def _count_send(kind: str, data: bytes) -> None:
        obs.counter("transport_chunks_sent_total", {"kind": kind}).inc()
        obs.counter("transport_bytes_sent_total").inc(len(data))

    def send(self, kind: str, data: bytes) -> str | None:
        self._count_send(kind, data)
        return self._receiver.receive_chunk(kind, data)


class LossyTransport(Transport):
    """Channel that loses each chunk with ``loss_probability``.

    The Generator is required (keyword-only): a hidden fallback RNG
    would correlate every channel constructed without one and break
    the seeded-run byte-identity guarantee (statan DET001).
    """

    def __init__(
        self,
        receiver,
        *,
        rng: np.random.Generator,
        loss_probability: float,
    ) -> None:
        super().__init__(receiver)
        if not 0.0 <= loss_probability <= 1.0:
            raise ValueError("loss_probability must be in [0, 1]")
        self.loss_probability = loss_probability
        self._rng = rng

    def send(self, kind: str, data: bytes) -> str | None:
        self._count_send(kind, data)
        if self._rng.random() < self.loss_probability:
            obs.counter("transport_chunks_lost_total").inc()
            return None  # chunk vanished in transit: no ack
        # A draw that decides nothing: the seeded world's behaviour stream
        # takes two draws per delivered send (the second once decided
        # corruption), and dropping it would shift every later draw.
        self._rng.random()
        return self._receiver.receive_chunk(kind, data)
