"""Tests for the HTTP-style web-app API."""

import base64
import gzip
import json

import pytest

from repro.platform.api import ApiRequest, RacketStoreApi
from repro.platform.buffer import chunk_hash
from repro.platform.models import FastSnapshotRun, record_to_dict
from repro.platform.server import RacketStoreServer


@pytest.fixture()
def server():
    return RacketStoreServer()


@pytest.fixture()
def api(server):
    return RacketStoreApi(server)


def chunk_for(install_id: str, participant_id: str) -> bytes:
    record = FastSnapshotRun(
        install_id=install_id,
        participant_id=participant_id,
        start=0.0,
        end=60.0,
        period=5.0,
        foreground="com.app",
        screen_on=True,
        battery=0.8,
    )
    line = json.dumps(record_to_dict(record))
    return gzip.compress((line + "\n").encode())


class TestRouting:
    def test_unknown_route_404(self, api):
        assert api.handle(ApiRequest("GET", "/nope")).status == 404

    def test_wrong_method_405(self, api):
        assert api.handle(ApiRequest("GET", "/signin")).status == 405

    def test_path_parameters_extracted(self, api):
        response = api.handle(ApiRequest("GET", "/dashboard/installs/12345"))
        assert response.status == 404  # unknown install, but routed

    def test_handler_crash_is_500(self, api, monkeypatch):
        monkeypatch.setattr(
            api._dashboard, "overview", lambda: (_ for _ in ()).throw(RuntimeError())
        )
        assert api.handle(ApiRequest("GET", "/dashboard/overview")).status == 500


class TestSignin:
    def test_valid_code_registers(self, server, api):
        code = server.issue_participant_id()
        response = api.handle(
            ApiRequest(
                "POST",
                "/signin",
                {"participant_id": code, "install_id": "1234567890"},
            )
        )
        assert response.ok
        assert "1234567890" in server.install_ids()

    def test_invalid_code_403_and_nothing_stored(self, server, api):
        response = api.handle(
            ApiRequest(
                "POST",
                "/signin",
                {"participant_id": "000000", "install_id": "1234567890"},
            )
        )
        assert response.status == 403
        assert server.install_ids() == []

    def test_missing_fields_400(self, api):
        response = api.handle(ApiRequest("POST", "/signin", {"participant_id": "x"}))
        assert response.status == 400
        assert "install_id" in response.body["error"]


class TestUpload:
    def test_chunk_acknowledged_with_hash(self, server, api):
        code = server.issue_participant_id()
        api.handle(ApiRequest("POST", "/signin", {"participant_id": code, "install_id": "1111111111"}))
        data = chunk_for("1111111111", code)
        response = api.handle(
            ApiRequest(
                "POST",
                "/snapshots/fast",
                {"chunk_b64": base64.b64encode(data).decode()},
            )
        )
        assert response.ok
        assert response.body["sha256"] == chunk_hash(data)
        assert len(server.fast_runs("1111111111")) == 1

    def test_unknown_kind_rejected(self, api):
        response = api.handle(
            ApiRequest("POST", "/snapshots/medium", {"chunk_b64": "aGk="})
        )
        assert response.status == 400

    def test_bad_base64_rejected(self, api):
        response = api.handle(
            ApiRequest("POST", "/snapshots/fast", {"chunk_b64": "!!!not-b64!!!"})
        )
        assert response.status == 400

    def test_corrupt_gzip_still_acked(self, server, api):
        """Garbage payloads get an honest hash ack (the buffer will see a
        mismatch against its own hash) and are counted as malformed."""
        response = api.handle(
            ApiRequest(
                "POST",
                "/snapshots/fast",
                {"chunk_b64": base64.b64encode(b"junk").decode()},
            )
        )
        assert response.ok
        assert server.stats.malformed_chunks == 1


class TestDashboardRoutes:
    def test_overview_route(self, api):
        response = api.handle(ApiRequest("GET", "/dashboard/overview"))
        assert response.ok
        assert "installs" in response.body

    def test_validation_route(self, api):
        response = api.handle(ApiRequest("GET", "/dashboard/validation"))
        assert response.ok
        assert response.body["issues"] == []

    def test_stats_route_counts_countries(self, api):
        api.handle(ApiRequest("GET", "/stats", ip_country="PK"))
        api.handle(ApiRequest("GET", "/stats", ip_country="PK"))
        response = api.handle(ApiRequest("GET", "/stats", ip_country="IN"))
        counts = response.body["requests_by_country"]
        assert counts["PK"] == 2 and counts["IN"] == 1

    def test_install_health_route(self, server, api, rng):
        from repro.platform.mobile_app import RacketStoreApp
        from repro.platform.transport import Transport
        from repro.simulation.device import SimDevice

        device = SimDevice("regular", is_worker=False, rng=rng)
        app = RacketStoreApp(device, server.issue_participant_id(), rng)
        transport = Transport(server)
        app.sign_in(0.0, rng=rng, server=server, transport=transport)
        app.collect_day(0.0, rng=rng, transport=transport)
        response = api.handle(
            ApiRequest("GET", f"/dashboard/installs/{app.install_id}")
        )
        assert response.ok
        assert response.body["snapshots_per_day"] > 0
