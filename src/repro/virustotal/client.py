"""VirusTotal report client (research-license style, hash lookups only).

The paper submitted 18,079 distinct apk hashes and found reports for
12,431 of them (~69%); the remainder were unknown to VT.  The client
models that availability gap, caches reports, and exposes the flag-count
queries §6.4 and feature (10) of §7.1 rely on.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .engines import EnginePanel, ScanResult

__all__ = ["VirusTotalClient", "ClientStats"]


@dataclass
class ClientStats:
    lookups: int = 0
    hits: int = 0
    unknown_hashes: int = 0
    cached: int = 0


class VirusTotalClient:
    """Hash-report lookups against the simulated engine panel.

    Parameters
    ----------
    panel:
        The engine panel producing verdicts.
    malware_oracle:
        Callable ``apk_hash -> bool`` giving ground truth for the panel;
        the simulation wires this to the catalog's malware labels.
    availability:
        Probability a hash has a VT report at all.  Availability is
        deterministic per hash.  ``build_world`` passes the paper's
        ``DATASET.HASHES_WITH_VT_REPORT / DATASET.DISTINCT_APK_HASHES``
        (12,431/18,079 ≈ 0.688): this module cannot import
        :mod:`repro.simulation` at load time, because that package's init
        imports it through ``world``.
    """

    def __init__(
        self,
        panel: EnginePanel,
        malware_oracle,
        availability: float,
    ) -> None:
        self._panel = panel
        self._oracle = malware_oracle
        self.availability = availability
        self._cache: dict[str, ScanResult | None] = {}
        self.stats = ClientStats()

    def _has_report(self, apk_hash: str) -> bool:
        digest = hashlib.sha256(f"vt-availability|{apk_hash}".encode()).digest()
        draw = int.from_bytes(digest[:8], "big") / 2**64
        return draw < self.availability

    def report(self, apk_hash: str) -> ScanResult | None:
        """Fetch the report for a hash, or None when VT has never seen it."""
        if apk_hash in self._cache:
            self.stats.cached += 1
            return self._cache[apk_hash]
        self.stats.lookups += 1
        if not self._has_report(apk_hash):
            self.stats.unknown_hashes += 1
            self._cache[apk_hash] = None
            return None
        result = self._panel.scan(apk_hash, bool(self._oracle(apk_hash)))
        self.stats.hits += 1
        self._cache[apk_hash] = result
        return result

    def positives(self, apk_hash: str) -> int:
        """Flag count for a hash; 0 when no report exists (the value the
        §7.1 feature extractor uses)."""
        result = self.report(apk_hash)
        return result.positives if result else 0
