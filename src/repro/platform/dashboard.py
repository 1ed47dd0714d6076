"""Internal dashboard: the researchers' data-collection monitor (§3).

"The internal dashboard allows researchers to monitor the data
collection process, and test and validate the data sent from the app to
the server."  This module computes the monitoring summaries and runs
the validation checks the paper's dashboard surfaced: per-install
reporting health, snapshot rates, collection gaps, ingest statistics,
and schema/consistency validation of stored documents.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..simulation.clock import SECONDS_PER_DAY
from .server import RacketStoreServer

__all__ = ["InstallHealth", "ValidationIssue", "Dashboard"]


@dataclass(frozen=True)
class InstallHealth:
    """Per-install reporting summary shown on the dashboard."""

    install_id: str
    participant_id: str
    active_days: float
    snapshots: int
    snapshots_per_day: float
    fast_runs: int
    slow_runs: int
    app_changes: int
    reported_accounts: bool
    reported_usage: bool
    largest_gap_hours: float

    @property
    def healthy(self) -> bool:
        """The paper's Fig-4 health bar: at least 100 snapshots/day."""
        return self.snapshots_per_day >= 100


@dataclass(frozen=True)
class ValidationIssue:
    """One failed validation check."""

    install_id: str
    check: str
    detail: str


class Dashboard:
    """Monitoring and validation over the server's document store."""

    def __init__(self, server: RacketStoreServer) -> None:
        self._server = server
        self._healths: list[InstallHealth] | None = None

    # -- monitoring --------------------------------------------------------
    def install_health(self, install_id: str) -> InstallHealth | None:
        interval = self._server.observation_interval(install_id)
        install_doc = self._server.store["installs"].find_one({"install_id": install_id})
        if interval is None or install_doc is None:
            return None
        fast = self._server.fast_runs(install_id)
        slow = self._server.slow_runs(install_id)
        first, last = interval
        active_days = max((last - first) / SECONDS_PER_DAY, 1e-9)
        snapshots = self._server.snapshot_count(install_id)

        # Largest reporting gap between consecutive coverage windows.
        edges = sorted(
            [(run["start"], run["end"]) for run in fast]
            + [(run["start"], run["end"]) for run in slow]
        )
        largest_gap = 0.0
        for (_, prev_end), (next_start, _) in zip(edges, edges[1:]):
            largest_gap = max(largest_gap, next_start - prev_end)

        return InstallHealth(
            install_id=install_id,
            participant_id=install_doc["participant_id"],
            active_days=active_days,
            snapshots=snapshots,
            snapshots_per_day=snapshots / active_days,
            fast_runs=len(fast),
            slow_runs=len(slow),
            app_changes=len(self._server.app_changes(install_id)),
            reported_accounts=any(
                run["accounts_permission"] and run["accounts"]
                for run in slow
            ),
            reported_usage=any(
                run["usage_permission"] and run["foreground"]
                for run in fast
            ),
            largest_gap_hours=largest_gap / 3600.0,
        )

    def fleet_health(self) -> list[InstallHealth]:
        """Per-install health for the whole fleet, computed once.

        ``install_health`` re-sorts every install's fast/slow runs, so
        recomputing it per caller made ``overview`` + ``lagging_installs``
        O(N²) over installs; both share this cached list.  A dashboard
        reads the store as it was at its first call.
        """
        if self._healths is None:
            self._healths = [
                h
                for install_id in self._server.install_ids()
                if (h := self.install_health(install_id)) is not None
            ]
        return self._healths

    def overview(self) -> dict[str, int | float]:
        """Fleet-level numbers: the dashboard's landing page.

        Ingest counters come straight from the server's metrics registry
        (via its :class:`~repro.platform.server.IngestStats` view) rather
        than being recomputed from stored documents.  Counts are ints;
        ``healthy_fraction`` is the one float.
        """
        healths = self.fleet_health()
        stats = self._server.stats
        healthy = sum(1 for h in healths if h.healthy)
        return {
            "installs": len(healths),
            "healthy_installs": healthy,
            "healthy_fraction": healthy / len(healths) if healths else 0.0,
            "total_snapshots": sum(h.snapshots for h in healths),
            "chunks_received": stats.chunks_received,
            "bytes_received": stats.bytes_received,
            "malformed_chunks": stats.malformed_chunks,
            "malformed_records": stats.malformed_records,
            "records_inserted": stats.records_inserted,
        }

    def lagging_installs(self) -> list[InstallHealth]:
        """Installs below the reporting-health bar."""
        return [h for h in self.fleet_health() if not h.healthy]

    # -- validation --------------------------------------------------------
    def validate(self) -> list[ValidationIssue]:
        """Run consistency checks over every install's stored documents."""
        issues: list[ValidationIssue] = []
        for install_id in self._server.install_ids():
            issues.extend(self._validate_install(install_id))
        return issues

    def _validate_install(self, install_id: str) -> list[ValidationIssue]:
        issues: list[ValidationIssue] = []

        def issue(check: str, detail: str) -> None:
            issues.append(ValidationIssue(install_id, check, detail))

        initial = self._server.initial_snapshot(install_id)
        if initial is None:
            issue("initial_snapshot_present", "no initial snapshot stored")

        for run in self._server.fast_runs(install_id):
            if run["end"] < run["start"]:
                issue("run_interval", f"fast run ends before start at {run['start']}")
            if run["period"] != 5.0:
                issue("fast_period", f"unexpected fast period {run['period']}")
        for run in self._server.slow_runs(install_id):
            if run["end"] < run["start"]:
                issue("run_interval", f"slow run ends before start at {run['start']}")
            if run["period"] != 120.0:
                issue("slow_period", f"unexpected slow period {run['period']}")

        # App-change consistency: an uninstall must follow knowledge of
        # the package (initial snapshot or a prior install event).
        known = {
            a["package"] for a in (initial or {}).get("installed_apps", ())
        }
        for event in self._server.app_changes(install_id):
            if event["action"] == "install":
                known.add(event["package"])
            elif event["package"] not in known:
                issue(
                    "uninstall_without_install",
                    f"uninstall of never-seen package {event['package']}",
                )
        return issues
