"""RacketStore platform substrate: the mobile app's collectors and data
buffer, the transport channel, the backend server with its document
store, and the Appendix-A snapshot fingerprinting."""

from .buffer import BufferedChunk, DataBuffer, chunk_hash
from .dashboard import Dashboard, InstallHealth, ValidationIssue
from .errors import Throttled, UploadError
from .fingerprint import (
    ACCOUNT_JACCARD_THRESHOLD,
    APP_JACCARD_THRESHOLD,
    DeviceCluster,
    InstallFingerprint,
    coalesce_installs,
    jaccard,
)
from .mobile_app import RacketStoreApp, SignInError
from .models import (
    PII_REGISTRY,
    AppChangeEvent,
    FastSnapshotRun,
    InitialSnapshot,
    InstalledAppInfo,
    PIIEntry,
    SlowSnapshotRun,
    record_to_dict,
)
from .server import IngestStats, RacketStoreServer
from .store import ColumnarCollection, DocumentStore
from .transport import LossyTransport, Transport

__all__ = [
    "BufferedChunk",
    "Dashboard",
    "InstallHealth",
    "ValidationIssue",
    "DataBuffer",
    "chunk_hash",
    "ACCOUNT_JACCARD_THRESHOLD",
    "APP_JACCARD_THRESHOLD",
    "DeviceCluster",
    "InstallFingerprint",
    "coalesce_installs",
    "jaccard",
    "RacketStoreApp",
    "SignInError",
    "PII_REGISTRY",
    "AppChangeEvent",
    "FastSnapshotRun",
    "InitialSnapshot",
    "InstalledAppInfo",
    "PIIEntry",
    "SlowSnapshotRun",
    "record_to_dict",
    "IngestStats",
    "RacketStoreServer",
    "ColumnarCollection",
    "DocumentStore",
    "LossyTransport",
    "Transport",
    "Throttled",
    "UploadError",
]
