"""repro.faults — deterministic fault injection for the upload path.

The fault plane stresses the §3 "resilient communications" pipeline end
to end: a seeded :class:`FaultPlan` threads from
:class:`~repro.simulation.config.SimulationConfig` through the
two-phase day engine into a :class:`FaultyTransport` /
:class:`FaultableServer` wrapper pair, while the client buffer answers
with virtual-clock exponential backoff, a retry budget, a dead-letter
queue and a Retry-After circuit breaker, and the server answers with an
idempotent receive (SHA-256 dedup window) and atomic chunk commit.

The contract under test — exactly-once ingest — is asserted by the
chaos harness (``python -m repro chaos``): the same seeded study run
under a clean plan and under escalating fault plans produces a
byte-identical ``study_digest`` at any worker count.  Faults may change
*when* data arrives; they may never change *what* the study contains.
"""

# Import order matters.  This package imports repro.platform, whose
# package import pulls in repro.simulation, whose day engine imports
# repro.faults.errors/.plan/.transport/.server.  Loading the platform
# package first lets that chain import each fault module from scratch;
# starting with .errors instead would leave it half-initialized when
# the day engine asks for it.
from .. import platform as _platform  # noqa: F401  (see above)
from .errors import FaultInjected, InjectedThrottle, ServerCrash, StoreRejected
from .plan import (
    FAULT_STREAM_BACKOFF,
    FAULT_STREAM_SERVER,
    FAULT_STREAM_TRANSPORT,
    FaultPlan,
    FaultSpec,
)
from .server import FaultableServer
from .transport import FaultyTransport

__all__ = [
    "FAULT_STREAM_BACKOFF",
    "FAULT_STREAM_SERVER",
    "FAULT_STREAM_TRANSPORT",
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
    "FaultableServer",
    "FaultyTransport",
    "InjectedThrottle",
    "ServerCrash",
    "StoreRejected",
]
