"""The snapshot wire format: every JSON line ``record_to_dict`` yields
must be the bytes the deep-copying reference in ``tests/oracles.py``
yields.

``study_digest`` hashes stored records with ``sort_keys=True`` and the
reports read stored dicts, so neither would see a change in wire key
order or value encoding; these tests do.
"""

import json

import numpy as np
import pytest

from repro.platform.buffer import DataBuffer
from repro.platform.models import (
    AppChangeEvent,
    FastSnapshotRun,
    InitialSnapshot,
    InstalledAppInfo,
    SlowSnapshotRun,
    record_to_dict,
)
from repro.simulation import SimulationConfig, run_study

from tests import oracles


def wire_line(encode, record) -> str:
    """One buffer line, encoded exactly as ``DataBuffer.append`` does."""
    return json.dumps(encode(record), separators=(",", ":"))


def app(package: str, install_time: float, stopped: bool = False) -> InstalledAppInfo:
    return InstalledAppInfo(
        package, install_time, install_time + 3600.0, "ab" * 16, 5, 2, 4, 3, stopped, False
    )


HAND_BUILT = {
    "fast-no-foreground": FastSnapshotRun(
        "0123456789", "100001", 0.0, 60.0, 5.0, None, False, 0.25, usage_permission=False
    ),
    "fast-numpy-times": FastSnapshotRun(
        "0123456789",
        "100001",
        np.float64(86_400.123456789),
        np.float64(86_460.5),
        5.0,
        "com.whatsapp",
        True,
        np.float64(0.1) + np.float64(0.2),
    ),
    "fast-non-ascii": FastSnapshotRun(
        "0123456789", "100001", 1e-7, 2.5e9, 5.0, "com.café.日本", True, 1.0
    ),
    "slow-empty": SlowSnapshotRun(
        "0123456789", "100001", None, 0.0, 120.0, 120.0, (), False, (),
        accounts_permission=False,
    ),
    "slow-long-stopped": SlowSnapshotRun(
        "0123456789",
        "100001",
        "a1b2c3d4e5f60718",
        np.float64(3.0),
        np.float64(7203.0),
        120.0,
        (("com.google", "w1@gmail.com"), ("com.facebook.auth", "ünïcode")),
        True,
        tuple(f"com.stopped.app{i:03d}" for i in range(250)),
    ),
    "change-install": AppChangeEvent(
        "0123456789", "100001", np.float64(99.5), "install", "com.promo.app",
        np.float64(98.0), "ff" * 16, 7, 1, 5, 3,
    ),
    "change-uninstall-defaults": AppChangeEvent(
        "0123456789", "100001", 100.0, "uninstall", "com.ñandú"
    ),
    "initial-no-apps": InitialSnapshot(
        "0123456789", "100001", None, 21, "SM-A105F", "Samsung", 0.0, ()
    ),
    "initial-several-apps": InitialSnapshot(
        "0123456789",
        "100001",
        "a1b2c3d4e5f60718",
        30,
        "Redmi Note 8",
        "Xiaomi",
        np.float64(12.25),
        (
            app("com.android.chrome", -1e6),
            app("com.ソーシャル.app", np.float64(-3600.5), stopped=True),
            app("com.promo.app", 0.0),
        ),
    ),
}


@pytest.mark.parametrize("record", HAND_BUILT.values(), ids=HAND_BUILT.keys())
def test_hand_built_record_matches_oracle(record):
    assert wire_line(record_to_dict, record) == wire_line(oracles.record_to_dict, record)


@pytest.fixture(scope="module")
def appended_records():
    """Every record one small study hands to ``DataBuffer.append``."""
    records = []
    append = DataBuffer.append

    def recording_append(self, kind, record):
        records.append(record)
        append(self, kind, record)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DataBuffer, "append", recording_append)
        run_study(SimulationConfig.small(), n_jobs=1)
    return records


def test_every_study_record_matches_oracle(appended_records):
    assert {type(r) for r in appended_records} == {
        FastSnapshotRun, SlowSnapshotRun, AppChangeEvent, InitialSnapshot
    }
    mismatched = [
        record
        for record in appended_records
        if wire_line(record_to_dict, record) != wire_line(oracles.record_to_dict, record)
    ]
    assert mismatched == []


@pytest.mark.parametrize(
    "value",
    [{"_type": "fast_run"}, object(), app("com.app", 0.0)],
    ids=["dict", "object", "installed-app"],
)
def test_non_record_rejected(value):
    with pytest.raises(TypeError, match="not a snapshot record"):
        record_to_dict(value)
