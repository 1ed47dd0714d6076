"""Fault-injecting channel between the mobile app and the server.

Extends the reliable :class:`~repro.platform.transport.Transport` with
the client-observed sites of a :class:`~repro.faults.plan.FaultPlan`:
loss, corruption, and — the interesting one — *ack loss after durable
store*, where the receiver keeps the chunk but the acknowledgement
vanishes, so the sender must retransmit bytes the server already has.
Exactly-once ingest is the server-side dedup window absorbing that
retransmission.

All firing decisions draw from an injected seeded Generator dedicated
to transport faults, never from the behaviour stream.
"""

from __future__ import annotations

import numpy as np

from .. import obs
from ..platform.transport import Transport
from .plan import FaultPlan

__all__ = ["FaultyTransport"]


class FaultyTransport(Transport):
    """Channel driven by a :class:`FaultPlan`'s transport sites.

    ``day`` scopes day-windowed specs; :meth:`heal` suspends injection
    (the end-of-study drain: the network recovers and every surviving
    chunk gets through).
    """

    def __init__(
        self,
        receiver,
        *,
        plan: FaultPlan,
        rng: np.random.Generator,
        day: int = 0,
    ) -> None:
        super().__init__(receiver)
        if rng is None:
            raise ValueError("FaultyTransport requires an explicit rng")
        self._plan = plan
        self._rng = rng
        self._day = int(day)
        self._injecting = True

    def set_day(self, day: int) -> None:
        self._day = int(day)

    def heal(self) -> None:
        """Stop injecting; subsequent sends behave like the reliable
        channel."""
        self._injecting = False

    def send(self, kind: str, data: bytes) -> str | None:
        self._count_send(kind, data)
        if self._injecting:
            if self._plan.transport_loss.fires(self._rng, self._day):
                obs.counter("transport_chunks_lost_total").inc()
                return None  # chunk vanished in transit: no ack
            if self._plan.transport_corruption.fires(self._rng, self._day):
                obs.counter("transport_chunks_corrupted_total").inc()
                corrupted = bytes([data[0] ^ 0xFF]) + data[1:]
                # The receiver sees (and counts) the damaged bytes; its
                # ack hashes what it received and will not match.
                return self._receiver.receive_chunk(kind, corrupted)
            if self._plan.ack_loss.fires(self._rng, self._day):
                # Ack loss AFTER durable store: the receiver keeps the
                # chunk, the acknowledgement never arrives, and the
                # sender retransmits bytes the server already has.
                ack = self._receiver.receive_chunk(kind, data)
                if ack is not None:
                    obs.counter("transport_acks_lost_total").inc()
                return None
        return self._receiver.receive_chunk(kind, data)
