"""Simulated VirusTotal detection-engine panel.

§6.4: "VirusTotal uses 62 detection engines to process apk files"; the
paper counts, per apk hash, how many engines flag it, and treats >1 flag
as suspicious and >7 flags (a threshold exceeding the value 4 from
TESSERACT [Pendlebury et al. 2019]) as confidently malicious.

Each simulated engine has a sensitivity (true-positive rate on actual
malware) and a small false-positive rate, so flag counts per hash form
the familiar bimodal pattern: benign apps draw 0-2 stray flags, malware
draws a binomial around ~60% of the panel.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

__all__ = ["Engine", "EnginePanel", "N_ENGINES", "ScanResult"]

#: Panel size matching the paper.
N_ENGINES = 62

_VENDOR_STEMS = (
    "Avast", "AVG", "Avira", "BitDefender", "ClamAV", "Comodo", "CrowdStrike",
    "Cylance", "DrWeb", "Emsisoft", "ESET", "Fortinet", "FSecure", "GData",
    "Ikarus", "Jiangmin", "K7", "Kaspersky", "Kingsoft", "Lionic", "Malwarebytes",
    "MAX", "McAfee", "Microsoft", "NANO", "Paloalto", "Panda", "Qihoo360",
    "Rising", "Sangfor", "SentinelOne", "Sophos", "Symantec", "Tencent",
    "TrendMicro", "VBA32", "VIPRE", "ViRobot", "Webroot", "Yandex", "Zillya",
    "ZoneAlarm",
)


@dataclass(frozen=True)
class Engine:
    """One AV engine with fixed detection characteristics."""

    name: str
    sensitivity: float        # P(flag | malware)
    false_positive_rate: float  # P(flag | benign)

    def scans(self, apk_hash: str, is_malware: bool) -> bool:
        """Deterministic per-(engine, hash) verdict.

        Derives a uniform draw from hash(engine || apk_hash) so repeated
        scans of the same sample agree — like real VT report caching.
        """
        digest = hashlib.sha256(f"{self.name}|{apk_hash}".encode()).digest()
        draw = int.from_bytes(digest[:8], "big") / 2**64
        threshold = self.sensitivity if is_malware else self.false_positive_rate
        return draw < threshold


@dataclass(frozen=True)
class ScanResult:
    """Aggregated report for one apk hash."""

    apk_hash: str
    positives: int
    total_engines: int
    flagged_by: tuple[str, ...]


class EnginePanel:
    """The 62-engine scanning panel."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.engines: list[Engine] = []
        for i in range(N_ENGINES):
            stem = _VENDOR_STEMS[i % len(_VENDOR_STEMS)]
            suffix = "" if i < len(_VENDOR_STEMS) else f"-{i // len(_VENDOR_STEMS) + 1}"
            self.engines.append(
                Engine(
                    name=f"{stem}{suffix}",
                    sensitivity=float(np.clip(rng.normal(0.62, 0.15), 0.15, 0.95)),
                    false_positive_rate=float(np.clip(rng.normal(0.004, 0.003), 0.0, 0.02)),
                )
            )

    def scan(self, apk_hash: str, is_malware: bool) -> ScanResult:
        flagged = tuple(
            engine.name
            for engine in self.engines
            if engine.scans(apk_hash, is_malware)
        )
        return ScanResult(
            apk_hash=apk_hash,
            positives=len(flagged),
            total_engines=len(self.engines),
            flagged_by=flagged,
        )
