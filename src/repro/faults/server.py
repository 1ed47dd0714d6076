"""Fault-injecting RacketStore server.

Wraps :class:`~repro.platform.server.RacketStoreServer` with the
server-side sites of a :class:`~repro.faults.plan.FaultPlan`:

* **overload** — the receive raises :class:`InjectedThrottle` (429 +
  Retry-After) before touching the chunk;
* **store_reject** — the store refuses the write; the base server's
  atomic commit rolls back and the error propagates un-acked;
* **receive_crash** — the server dies *mid-chunk*: a seeded prefix of
  the chunk's records is inserted before :class:`ServerCrash` fires,
  which is exactly the partial state the rollback must erase.

An injected fault means no acknowledgement was produced, so the sender
retransmits; the base server's dedup window plus atomic commit turn
at-least-once delivery into exactly-once ingest.  Chunks that fail
during phase-2 commit park on a redelivery queue retried at the start
of each following day and drained (injection off) at study close.
"""

from __future__ import annotations

import numpy as np

from .. import obs
from ..platform.server import _COLLECTIONS, RacketStoreServer
from ..platform.store import DocumentStore
from .errors import FaultInjected, InjectedThrottle, ServerCrash, StoreRejected
from .plan import FaultPlan

__all__ = ["FaultableServer"]


class FaultableServer(RacketStoreServer):
    """RacketStoreServer with seeded server-side fault injection."""

    def __init__(
        self,
        store: DocumentStore | None = None,
        review_crawler=None,
        *,
        plan: FaultPlan,
        rng: np.random.Generator,
    ) -> None:
        if rng is None:
            raise ValueError("FaultableServer requires an explicit rng")
        super().__init__(store, review_crawler)
        self._plan = plan
        self._frng = rng
        self._day = 0
        self._injecting = True
        self._crash_armed = False
        self._redelivery: list[tuple[str, bytes]] = []
        self.fault_counts = {"overload": 0, "store_reject": 0, "receive_crash": 0}
        self.redelivered_chunks = 0

    def set_day(self, day: int) -> None:
        self._day = int(day)

    def heal(self) -> None:
        """Stop injecting; subsequent receives behave like the base
        server (study-close drain)."""
        self._injecting = False

    # -- fault-injecting receive ---------------------------------------
    def receive_chunk(self, kind: str, data: bytes) -> str:
        if self._injecting:
            plan, rng, day = self._plan, self._frng, self._day
            if plan.overload.fires(rng, day):
                self.fault_counts["overload"] += 1
                obs.counter("faults_injected_total", {"site": "overload"}).inc()
                raise InjectedThrottle(plan.overload_retry_after_s)
            if plan.store_reject.fires(rng, day):
                self.fault_counts["store_reject"] += 1
                obs.counter("faults_injected_total", {"site": "store_reject"}).inc()
                raise StoreRejected("injected store write rejection")
            if plan.receive_crash.fires(rng, day):
                self.fault_counts["receive_crash"] += 1
                obs.counter(
                    "faults_injected_total", {"site": "receive_crash"}
                ).inc()
                # Arm the mid-insert crash; the actual crash point is
                # drawn in _insert_batches once the record count is
                # known.  The base receive rolls the partial insert
                # back and re-raises without acking.
                self._crash_armed = True
        try:
            return super().receive_chunk(kind, data)
        finally:
            self._crash_armed = False

    def _insert_batches(self, records: list[tuple[str, dict]]) -> int:
        if not self._crash_armed or not records:
            return super()._insert_batches(records)
        # Crash mid-chunk: insert a seeded prefix of the records the way
        # the real batching would, then die before completing.
        prefix = int(self._frng.integers(0, len(records)))
        for type_name, payload in records[:prefix]:
            self.store[_COLLECTIONS[type_name]].insert(payload)
        raise ServerCrash(
            f"injected crash after {prefix}/{len(records)} records"
        )

    # -- phase-2 redelivery queue --------------------------------------
    @property
    def redelivery_backlog(self) -> int:
        return len(self._redelivery)

    def queue_redelivery(self, kind: str, data: bytes) -> None:
        """Park a chunk whose commit-time receive failed; redelivered
        at the start of the next day."""
        self._redelivery.append((kind, data))
        obs.counter("server_redelivery_queued_total").inc()

    def redeliver_pending(self) -> int:
        """Retry every parked chunk once, in arrival order; failures
        re-park.  Returns the number delivered."""
        queued, self._redelivery = self._redelivery, []
        delivered = 0
        for kind, data in queued:
            try:
                self.receive_chunk(kind, data)
            except FaultInjected:
                self._redelivery.append((kind, data))
            else:
                delivered += 1
                self.redelivered_chunks += 1
        return delivered

    def drain_redelivery(self) -> int:
        """Deliver everything still parked with injection off (study
        close: faults move deliveries, they never erase them)."""
        self.heal()
        return self.redeliver_pending()
