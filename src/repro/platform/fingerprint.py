"""Snapshot fingerprinting: coalescing installs into unique devices.

Appendix A of the paper: the same physical device can produce multiple
RacketStore installs (shared devices between workers, repeat installs to
collect the install payment twice, reinstalls), and some installs lack
an Android ID.  The coalescing procedure:

1. group snapshots into candidate devices by install ID;
2. candidate pairs whose install intervals *overlap* are different
   devices (one device runs one install at a time);
3. non-overlapping pairs with Android IDs merge iff the IDs match;
4. pairs lacking an Android ID merge when the Jaccard similarity of
   their (app, install-time) sets exceeds 0.5625 or of their registered
   account sets exceeds 0.53 (the thresholds the authors validated).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "InstallFingerprint",
    "DeviceCluster",
    "jaccard",
    "coalesce_installs",
    "APP_JACCARD_THRESHOLD",
    "ACCOUNT_JACCARD_THRESHOLD",
]

APP_JACCARD_THRESHOLD = 0.5625
ACCOUNT_JACCARD_THRESHOLD = 0.53


@dataclass(frozen=True)
class InstallFingerprint:
    """Identity evidence for one RacketStore install."""

    install_id: str
    participant_id: str
    android_id: str | None
    first_seen: float
    last_seen: float
    app_installs: frozenset  # of (package, install_time) tuples
    accounts: frozenset      # of account identifiers

    def overlaps(self, other: "InstallFingerprint") -> bool:
        return self.first_seen <= other.last_seen and other.first_seen <= self.last_seen


@dataclass
class DeviceCluster:
    """One unique physical device: the set of installs attributed to it."""

    installs: list[InstallFingerprint] = field(default_factory=list)

    @property
    def install_ids(self) -> list[str]:
        return sorted(f.install_id for f in self.installs)


def jaccard(a: frozenset, b: frozenset) -> float:
    """Jaccard similarity |a ∩ b| / |a ∪ b| (0.0 for two empty sets)."""
    if not a and not b:
        return 0.0
    return len(a & b) / len(a | b)


class _UnionFind:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[rj] = ri


def _same_device(a: InstallFingerprint, b: InstallFingerprint) -> bool:
    """Appendix-A pairwise decision for non-overlapping installs."""
    if a.android_id and b.android_id:
        return a.android_id == b.android_id
    # Missing Android ID on at least one side: fall back to content
    # similarity of the installed-app and registered-account sets.
    if jaccard(a.app_installs, b.app_installs) > APP_JACCARD_THRESHOLD:
        return True
    return jaccard(a.accounts, b.accounts) > ACCOUNT_JACCARD_THRESHOLD


def coalesce_installs(installs) -> list[DeviceCluster]:
    """Cluster install fingerprints into unique devices.

    Implements the Appendix-A procedure over all install pairs with a
    union-find; overlap always wins (an overlapping pair is never merged
    even if a chain of merges would connect them — the interval check is
    applied per pair before the similarity evidence is consulted).
    """
    installs = list(installs)
    uf = _UnionFind(len(installs))
    for i in range(len(installs)):
        for j in range(i + 1, len(installs)):
            a, b = installs[i], installs[j]
            if a.overlaps(b):
                continue  # concurrent installs: physically distinct devices
            if _same_device(a, b):
                uf.union(i, j)

    clusters: dict[int, DeviceCluster] = {}
    for index, fingerprint in enumerate(installs):
        clusters.setdefault(uf.find(index), DeviceCluster()).installs.append(fingerprint)
    return sorted(clusters.values(), key=lambda c: c.install_ids)
