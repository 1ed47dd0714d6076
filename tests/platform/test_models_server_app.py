"""Tests for snapshot models, the backend server, and the mobile app."""

import gzip
import json
import math

import numpy as np
import pytest

from repro.platform.models import (
    PII_REGISTRY,
    AppChangeEvent,
    FastSnapshotRun,
    InitialSnapshot,
    InstalledAppInfo,
    SlowSnapshotRun,
    check_record,
    record_to_dict,
)
from repro.platform.server import RacketStoreServer, payment_for
from repro.platform.transport import Transport
from repro.platform.mobile_app import RacketStoreApp, SignInError
from repro.simulation.device import SimDevice
from repro.simulation.clock import SECONDS_PER_DAY

from tests.oracles import record_from_dict


def _run_count(start: float, end: float, period: float) -> int:
    """Number of periodic samples in [start, end) at ``period`` spacing
    (at least one: the sample at ``start``)."""
    if end < start:
        raise ValueError(f"run ends before it starts ({end} < {start})")
    return 1 + int(math.floor(max(end - start, 0.0) / period))


def stored_snapshot_count(kind: str, run) -> int:
    """The server's count of ``run``'s snapshots after ingesting it."""
    server = RacketStoreServer()
    server.receive_chunk(kind, gzip.compress(json.dumps(record_to_dict(run)).encode()))
    return server.snapshot_count(run.install_id)


class TestModels:
    def test_fast_run_snapshot_count(self):
        run = FastSnapshotRun("i", "p", start=0.0, end=60.0, period=5.0,
                              foreground="a", screen_on=True, battery=0.5)
        assert _run_count(run.start, run.end, run.period) == 13  # samples at 0,5,...,60
        assert stored_snapshot_count("fast", run) == 13

    def test_slow_run_snapshot_count(self):
        run = SlowSnapshotRun("i", "p", None, start=0.0, end=600.0, period=120.0,
                              accounts=(), save_mode=False, stopped_apps=())
        assert _run_count(run.start, run.end, run.period) == 6
        assert stored_snapshot_count("slow", run) == 6

    def test_app_change_action_validated(self):
        with pytest.raises(ValueError):
            AppChangeEvent("i", "p", 0.0, "sideload", "pkg")

    def test_roundtrip_all_record_types(self):
        records = [
            FastSnapshotRun("i", "p", 0.0, 10.0, 5.0, "app", True, 0.7),
            SlowSnapshotRun("i", "p", "aid", 0.0, 240.0, 120.0,
                            (("com.google", "x@gmail.com"),), True, ("stopped.app",)),
            AppChangeEvent("i", "p", 5.0, "install", "pkg", 1.0, "hash", 3, 1),
            InitialSnapshot("i", "p", "aid", 28, "SM-A105F", "Samsung", 0.0,
                            (InstalledAppInfo("pkg", -10.0, -10.0, "h", 3, 1, 2, 2, True, False),)),
        ]
        for record in records:
            assert record_from_dict(record_to_dict(record)) == record

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            check_record({"_type": "mystery"})

    def test_pii_registry_matches_table3(self):
        assert len(PII_REGISTRY) == 6
        assert {e.pii for e in PII_REGISTRY} == {
            "Accounts", "Email", "IP address", "Device ID", "Payment Info",
        }
        not_stored = [e for e in PII_REGISTRY if e.deletion == "Not stored"]
        assert {e.pii for e in not_stored} == {"IP address", "Payment Info"}


@pytest.fixture()
def server():
    return RacketStoreServer()


@pytest.fixture()
def device(rng):
    return SimDevice("regular", is_worker=False, rng=rng)


@pytest.fixture()
def transport(server):
    return Transport(server)


def make_app(server, device, rng, **kwargs):
    pid = server.issue_participant_id()
    return RacketStoreApp(device=device, participant_id=pid, rng=rng, **kwargs)


class TestSignIn:
    def test_valid_code_registers_install(self, server, device, rng, transport):
        app = make_app(server, device, rng)
        install_id = app.sign_in(0.0, rng=rng, server=server, transport=transport)
        assert len(install_id) == 10
        assert install_id in server.install_ids()

    def test_invalid_code_rejected_and_nothing_collected(
        self, server, device, rng, transport
    ):
        app = RacketStoreApp(device, "999999", rng)
        with pytest.raises(SignInError):
            app.sign_in(0.0, rng=rng, server=server, transport=transport)
        assert server.install_ids() == []
        assert server.store.total_documents() == 0

    def test_initial_snapshot_uploaded_at_signin(self, server, device, rng, transport):
        app = make_app(server, device, rng)
        app.sign_in(0.0, rng=rng, server=server, transport=transport)
        initial = server.initial_snapshot(app.install_id)
        assert initial is not None
        assert initial["manufacturer"] == device.manufacturer


class TestCollection:
    def test_collect_day_uploads_runs(self, server, device, rng, transport, blobs):
        app = make_app(server, device, rng)
        app.sign_in(0.0, rng=rng, server=server, transport=transport)
        device.open_app  # device has no apps yet; still collects idle runs
        app.collect_day(0.0, rng=rng, transport=transport)
        assert len(server.fast_runs(app.install_id)) >= 1
        assert len(server.slow_runs(app.install_id)) >= 1
        assert server.snapshot_count(app.install_id) > 0

    def test_usage_permission_denied_blanks_foreground(self, server, rng, transport):
        device = SimDevice("regular", is_worker=False, rng=rng)
        app = make_app(server, device, rng, grant_usage_stats=False)
        app.sign_in(0.0, rng=rng, server=server, transport=transport)
        app.collect_day(0.0, rng=rng, transport=transport)
        for run in server.fast_runs(app.install_id):
            assert run["foreground"] is None
            assert run["usage_permission"] is False

    def test_accounts_permission_denied_blanks_accounts(self, server, rng, transport):
        from repro.simulation.accounts import DeviceAccount

        device = SimDevice("regular", is_worker=False, rng=rng)
        device.register_account(DeviceAccount("com.google", "a@gmail.com", "1" * 21))
        app = make_app(server, device, rng, grant_get_accounts=False)
        app.sign_in(0.0, rng=rng, server=server, transport=transport)
        app.collect_day(0.0, rng=rng, transport=transport)
        for run in server.slow_runs(app.install_id):
            assert run["accounts"] == []
            assert run["accounts_permission"] is False

    def test_collect_after_uninstall_fails(self, server, device, rng, transport):
        app = make_app(server, device, rng)
        app.sign_in(0.0, rng=rng, server=server, transport=transport)
        app.uninstall(SECONDS_PER_DAY, transport=transport)
        with pytest.raises(RuntimeError):
            app.collect_day(SECONDS_PER_DAY, rng=rng, transport=transport)

    def test_observation_interval_spans_collection(self, server, device, rng, transport):
        app = make_app(server, device, rng)
        app.sign_in(0.0, rng=rng, server=server, transport=transport)
        app.collect_day(0.0, rng=rng, transport=transport)
        first, last = server.observation_interval(app.install_id)
        assert first <= last <= SECONDS_PER_DAY


class TestServerQueries:
    def test_register_install_requires_known_participant(self, server):
        with pytest.raises(PermissionError):
            server.register_install("000000", "1234567890", None, 0.0)

    def test_participant_codes_are_unique_six_digit_strings(self, server):
        codes = [server.issue_participant_id() for _ in range(50)]
        assert len(set(codes)) == 50
        assert all(code.isdigit() and len(code) == 6 for code in codes)
        assert all(server.is_valid_participant(code) for code in codes)
        assert not server.is_valid_participant("999999")

    def test_unknown_install_has_no_data(self, server):
        assert server.install_ids() == []
        assert server.fast_runs("nobody") == []
        assert server.observation_interval("nobody") is None
        assert server.install_fingerprint("nobody") is None
        assert server.snapshot_count("nobody") == 0

    def test_malformed_chunk_counted_and_acked(self, server):
        ack = server.receive_chunk("fast", b"this is not gzip")
        assert isinstance(ack, str) and len(ack) == 64
        assert server.stats.malformed_chunks == 1

    def test_payments(self, server, device, rng, transport):
        app = make_app(server, device, rng)
        app.sign_in(0.0, rng=rng, server=server, transport=transport)
        for day in range(3):
            app.collect_day(day * SECONDS_PER_DAY, rng=rng, transport=transport)
        payout = server.total_payout_usd()
        # $1 install + $0.20/day for 2-3 observed days.
        assert 1.2 <= payout <= 1.8

    def test_payment_is_one_dollar_plus_twenty_cents_per_whole_day(self):
        assert payment_for(0.0, 0.5 * SECONDS_PER_DAY) == 1.0
        assert payment_for(0.0, 2.5 * SECONDS_PER_DAY) == 1.0 + 2 * 0.2
        assert payment_for(SECONDS_PER_DAY, 0.0) == 1.0


IID, PID = "0123456789", "100001"
FAST = FastSnapshotRun(IID, PID, 0.0, 60.0, 5.0, "com.app", True, 0.8)
SLOW = SlowSnapshotRun(IID, PID, None, 0.0, 240.0, 120.0, (), False, ())
CHANGE = AppChangeEvent(IID, PID, 10.0, "install", "com.app", 1.0, "h", 3, 1)
INITIAL = InitialSnapshot(IID, PID, None, 28, "SM-A105F", "Samsung", 0.0, ())
_DELETE = object()


def edited_line(record, **changes) -> str:
    payload = record_to_dict(record)
    for key, value in changes.items():
        if value is _DELETE:
            del payload[key]
        else:
            payload[key] = value
    return json.dumps(payload)


#: Lines ingest must skip and count: a value of the wrong kind for its
#: field in ``repro.frames.schema`` first, then the shape failures.
MALFORMED_LINES = {
    "str-for-float": edited_line(FAST, start="abc"),
    "null-for-float": edited_line(FAST, battery=None),
    "bool-for-float": edited_line(FAST, battery=True),
    "str-for-bool": edited_line(FAST, screen_on="yes"),
    "int-for-bool": edited_line(SLOW, save_mode=1),
    "bool-for-int": edited_line(CHANGE, n_granted=True),
    "float-for-int": edited_line(INITIAL, api_level=28.0),
    "int-for-nullable-str": edited_line(SLOW, android_id=7),
    "null-for-str": edited_line(CHANGE, package=None),
    "missing-defaulted-key": edited_line(FAST, usage_permission=_DELETE),
    "missing-key": edited_line(FAST, start=_DELETE),
    "extra-key": edited_line(SLOW, extra=1),
    "unknown-type": edited_line(FAST, _type="mystery"),
    "bad-action": edited_line(CHANGE, action="sideload"),
    "fast-run-ends-before-start": edited_line(FAST, start=100.0, end=40.0),
    "slow-run-ends-before-start": edited_line(SLOW, start=480.0, end=240.0),
    "zero-period": edited_line(FAST, period=0.0),
    "negative-period": edited_line(SLOW, period=-120.0),
    "json-array": "[1, 2]",
    "json-array-of-pairs": json.dumps(list(record_to_dict(FAST).items())),
    "slow-run-missing-accounts": edited_line(SLOW, accounts=_DELETE),
    "slow-run-missing-stopped-apps": edited_line(SLOW, stopped_apps=_DELETE),
    "initial-missing-apps": edited_line(INITIAL, installed_apps=_DELETE),
    "initial-app-missing-key": edited_line(
        INITIAL, installed_apps=[{"package": "com.app"}]
    ),
    "overflowing-battery": edited_line(FAST, battery=0.5).replace('"battery": 0.5', '"battery": 1e999'),
    "negative-infinite-timestamp": edited_line(CHANGE, timestamp=float("-inf")),
}


def ingest(server, *lines: str) -> None:
    server.receive_chunk("fast", gzip.compress("\n".join(lines).encode()))


class TestIngestValidation:
    @pytest.mark.parametrize(
        "line", MALFORMED_LINES.values(), ids=MALFORMED_LINES.keys()
    )
    def test_malformed_line_skipped_and_counted(self, server, line):
        ingest(server, edited_line(FAST), line, edited_line(SLOW))
        assert server.stats.malformed_records == 1
        assert server.stats.records_inserted == 2
        assert [run["start"] for run in server.fast_runs(IID)] == [0.0]
        assert server.observation_interval(IID) == (0.0, 240.0)
        fast_runs = server.store["fast_runs"]
        assert fast_runs.find({"start": 0.0}) == server.fast_runs(IID)
        # Every stored document matched its schema, so every frame is
        # typed.
        for name in ("fast_runs", "slow_runs", "app_changes", "initial_snapshots"):
            assert server.store[name].frame.schema is not None

    @pytest.mark.parametrize(
        "line",
        [
            edited_line(FAST, start=0, end=60, foreground=None),
            edited_line(CHANGE, timestamp=10, install_time=None, apk_hash=None),
            edited_line(INITIAL, android_id="a1b2c3d4e5f60718", timestamp=0),
        ],
        ids=["int-for-float-and-null-foreground", "null-install-time-and-hash", "initial"],
    )
    def test_int_for_float_and_null_for_nullable_accepted(self, server, line):
        ingest(server, line)
        assert server.stats.malformed_records == 0
        assert server.stats.records_inserted == 1

    def test_non_finite_times_are_malformed(self, server):
        # Python's json decodes NaN and Infinity; a run holding either has
        # no snapshot count, so ingest must not store it.
        ingest(
            server,
            edited_line(FAST),
            edited_line(FAST, start=float("nan")),
            edited_line(FAST, end=float("inf")),
        )
        assert server.stats.malformed_records == 2
        assert server.stats.records_inserted == 1
        assert server.snapshot_count(IID) == 13
        assert server.observation_interval(IID) == (0.0, 60.0)
