"""Experiment runners for the §5-§6 measurement figures."""

from __future__ import annotations

import numpy as np

from ..analysis import (
    app_timeline,
    compute_accounts,
    compute_app_permissions,
    compute_churn,
    compute_daily_use,
    compute_engagement,
    compute_install_to_review,
    compute_installed_apps,
    compute_malware,
    compute_stopped_apps,
)
from ..reporting import paper_vs_measured_rows, render_table
from ..simulation.calibration import (
    ACCOUNTS,
    CHURN,
    DATASET,
    ENGAGEMENT,
    INSTALL_TO_REVIEW,
    INSTALLED_APPS,
    MALWARE,
    RECRUITMENT,
)
from ..simulation.events import EventType
from ..simulation.recruitment import simulate_funnel
from .common import ExperimentReport, Workbench

__all__ = [
    "run_fig00_dataset_overview",
    "run_fig01_timelines",
    "run_fig04_engagement",
    "run_fig05_accounts",
    "run_fig06_installed_reviewed",
    "run_fig07_install_to_review",
    "run_fig08_stopped_apps",
    "run_fig09_churn",
    "run_fig10_daily_use",
    "run_fig11_permissions",
    "run_fig12_malware",
]


def run_fig00_dataset_overview(wb: Workbench) -> ExperimentReport:
    """§4-§5: recruitment funnel, install/device coalescing, dataset sizes."""
    data = wb.data
    clusters = data.server.unique_devices()
    funnel = simulate_funnel(np.random.default_rng(wb.config.seed))
    total_snapshots = sum(o.total_snapshots for o in wb.all_observations)
    report = ExperimentReport(
        "fig00",
        "Dataset overview (§4 recruitment, §5 data, Appendix A coalescing)",
    )
    report.lines.append("Instagram funnel (probabilities = paper conversion rates):")
    report.lines.append(
        render_table(
            ["stage", "simulated", "paper"],
            [
                ("impressions", funnel.count("impressions"), RECRUITMENT.ADS_SHOWN),
                ("reached", funnel.count("reached"), RECRUITMENT.ADS_REACHED),
                ("clicked", funnel.count("clicked"), RECRUITMENT.ADS_CLICKED),
                ("consented", funnel.count("consented"), RECRUITMENT.REGULAR_EMAILED),
                ("installed", funnel.count("installed"), RECRUITMENT.REGULAR_INSTALLS),
            ],
        )
    )
    report.lines.append(
        f"installs={len(data.server.install_ids())} coalesced to "
        f"{len(clusters)} unique devices "
        f"(paper: {RECRUITMENT.TOTAL_INSTALLS} installs / {RECRUITMENT.UNIQUE_DEVICES} devices)"
    )
    # §4 cohort geography (IP-derived, approximate).
    country_rows = []
    for country, (paper_w, paper_r) in RECRUITMENT.COUNTRIES.items():
        sim_w = sum(
            1 for p in data.participants if p.is_worker and p.device.country == country
        )
        sim_r = sum(
            1 for p in data.participants if not p.is_worker and p.device.country == country
        )
        country_rows.append((country, sim_w, sim_r, paper_w, paper_r))
    report.lines.append(
        render_table(
            ["country", "sim W", "sim R", "paper W", "paper R"], country_rows
        )
    )
    report.lines.append(
        f"snapshots collected={total_snapshots:,} "
        f"(paper: {DATASET.TOTAL_SNAPSHOTS:,}; scaled cohort) | "
        f"reviews crawled={data.review_crawler.collected_total():,} "
        f"(paper: {DATASET.PLAY_REVIEWS:,})"
    )
    report.metrics = {
        "installs": len(data.server.install_ids()),
        "unique_devices": len(clusters),
        "snapshots": total_snapshots,
        "reviews_crawled": data.review_crawler.collected_total(),
    }
    return report


def run_fig01_timelines(wb: Workbench) -> ExperimentReport:
    """Figure 1: per-app interaction timelines, workers vs a regular user."""
    report = ExperimentReport(
        "fig01", "App interaction timelines (install->review, no use, for workers)"
    )
    shown = {"worker": 0, "regular": 0}
    rows: list[tuple] = []
    for obs in wb.observations:
        group = "worker" if obs.is_worker else "regular"
        if shown[group] >= (2 if group == "worker" else 1):
            continue
        # Pick the reviewed (workers) or most-used (regular) app.
        candidates = sorted(obs.device_reviews) if obs.is_worker else sorted(
            obs.foreground_snapshots, key=obs.foreground_snapshots.get, reverse=True
        )
        for package in candidates:
            timeline = app_timeline(obs, package)
            types = {t for _, t in timeline}
            wanted = (
                {int(EventType.REVIEW)} <= types
                if obs.is_worker
                else int(EventType.FOREGROUND) in types
                and int(EventType.REVIEW) not in types
            )
            if wanted and len(timeline) >= 2:
                shown[group] += 1
                rows.append(
                    (
                        group,
                        package,
                        len(timeline),
                        sum(1 for _, t in timeline if t == int(EventType.FOREGROUND)),
                        sum(1 for _, t in timeline if t == int(EventType.REVIEW)),
                    )
                )
                break
        if shown["worker"] >= 2 and shown["regular"] >= 1:
            break
    report.lines.append(
        render_table(["device", "app", "events", "foreground", "reviews"], rows)
    )
    report.lines.append(
        "Expected pattern: worker timelines show reviews without foreground "
        "use; the regular timeline shows use without reviews."
    )
    report.metrics = {
        "worker_timelines": shown["worker"],
        "regular_timelines": shown["regular"],
    }
    return report


def run_fig04_engagement(wb: Workbench) -> ExperimentReport:
    result = compute_engagement(wb.all_observations)
    report = ExperimentReport("fig04", "Snapshots/day vs active days (§6.1)")
    report.lines.append(
        paper_vs_measured_rows(
            [
                (
                    "regular snapshots/day (median)",
                    ENGAGEMENT.REGULAR_SNAPSHOTS_PER_DAY_MEDIAN,
                    result.comparison.regular.median,
                ),
                (
                    "worker snapshots/day (median)",
                    ENGAGEMENT.WORKER_SNAPSHOTS_PER_DAY_MEDIAN,
                    result.comparison.worker.median,
                ),
            ]
        )
    )
    frac_over_100 = result.devices_over_100_per_day / max(len(result.points), 1)
    report.lines.append(
        f"devices with >=100 snapshots/day: {result.devices_over_100_per_day}"
        f"/{len(result.points)} ({frac_over_100:.0%}; paper: "
        f"{ENGAGEMENT.DEVICES_OVER_100_PER_DAY}/{RECRUITMENT.UNIQUE_DEVICES})"
    )
    report.metrics = {
        "worker_median": result.comparison.worker.median,
        "regular_median": result.comparison.regular.median,
        "frac_over_100": frac_over_100,
    }
    return report


def run_fig05_accounts(wb: Workbench) -> ExperimentReport:
    result = compute_accounts(wb.observations)
    report = ExperimentReport("fig05", "Registered accounts (§6.2)")
    report.lines.append(
        paper_vs_measured_rows(
            [
                ("worker gmail mean", ACCOUNTS.WORKER_GMAIL_MEAN, result.gmail.worker.mean),
                ("worker gmail median", ACCOUNTS.WORKER_GMAIL_MEDIAN, result.gmail.worker.median),
                ("worker gmail max", ACCOUNTS.WORKER_GMAIL_MAX, result.gmail.worker.maximum),
                ("regular gmail median", ACCOUNTS.REGULAR_GMAIL_MEDIAN, result.gmail.regular.median),
                ("regular gmail max", ACCOUNTS.REGULAR_GMAIL_MAX, result.gmail.regular.maximum),
                ("regular account types mean", ACCOUNTS.REGULAR_ACCOUNT_TYPES_MEAN, result.account_types.regular.mean),
            ]
        )
    )
    for panel in result.panels():
        battery = panel.tests
        report.lines.append(
            f"{panel.feature}: KS p={battery.ks.pvalue:.2e}, "
            f"ANOVA p={battery.anova.pvalue:.2e}, "
            f"Kruskal p={battery.kruskal.pvalue:.2e} "
            f"({'significant' if panel.significant() else 'NOT significant'})"
        )
    report.metrics = {
        "worker_gmail_mean": result.gmail.worker.mean,
        "worker_gmail_median": result.gmail.worker.median,
        "regular_gmail_median": result.gmail.regular.median,
        "gmail_significant": float(result.gmail.significant()),
    }
    return report


def run_fig06_installed_reviewed(wb: Workbench) -> ExperimentReport:
    result = compute_installed_apps(wb.observations)
    report = ExperimentReport("fig06", "Installed vs reviewed apps (§6.3)")
    report.lines.append(
        paper_vs_measured_rows(
            [
                ("worker installed mean", INSTALLED_APPS.WORKER_INSTALLED_MEAN, result.installed.worker.mean),
                ("regular installed mean", INSTALLED_APPS.REGULAR_INSTALLED_MEAN, result.installed.regular.mean),
                ("worker installed+reviewed mean", INSTALLED_APPS.WORKER_REVIEWED_OF_INSTALLED_MEAN, result.installed_and_reviewed.worker.mean),
                ("regular installed+reviewed mean", INSTALLED_APPS.REGULAR_REVIEWED_OF_INSTALLED_MEAN, result.installed_and_reviewed.regular.mean),
                ("worker total reviews mean", INSTALLED_APPS.WORKER_TOTAL_REVIEWS_MEAN, result.total_reviews.worker.mean),
                ("regular total reviews mean", INSTALLED_APPS.REGULAR_TOTAL_REVIEWS_MEAN, result.total_reviews.regular.mean),
            ]
        )
    )
    report.lines.append(
        f"worker devices >1000 total reviews: {result.worker_devices_over_1000_reviews} "
        f"(paper: {INSTALLED_APPS.WORKER_DEVICES_OVER_1000_REVIEWS}); "
        f"regular max total reviews: {result.regular_max_total_reviews:.0f} "
        f"(paper: {INSTALLED_APPS.REGULAR_TOTAL_REVIEWS_MAX})"
    )
    report.lines.append(
        "installed-apps ANOVA not significant (paper p=0.301): "
        f"{result.installed_anova_not_significant()} "
        f"(p={result.installed.tests.anova.pvalue:.3f}); "
        f"reviews comparisons significant: {result.total_reviews.significant()}"
    )
    report.metrics = {
        "worker_installed_mean": result.installed.worker.mean,
        "regular_installed_mean": result.installed.regular.mean,
        "worker_reviewed_mean": result.installed_and_reviewed.worker.mean,
        "regular_reviewed_mean": result.installed_and_reviewed.regular.mean,
        "reviews_significant": float(result.total_reviews.significant()),
    }
    return report


def run_fig07_install_to_review(wb: Workbench) -> ExperimentReport:
    result = compute_install_to_review(wb.observations)
    report = ExperimentReport("fig07", "Install-to-review delays (§6.3)")
    report.lines.append(
        paper_vs_measured_rows(
            [
                ("worker wait mean (days)", INSTALL_TO_REVIEW.WORKER_WAIT_MEAN_DAYS, result.comparison.worker.mean),
                ("worker wait median (days)", INSTALL_TO_REVIEW.WORKER_WAIT_MEDIAN_DAYS, result.comparison.worker.median),
                ("worker fast (<=1d) fraction", INSTALL_TO_REVIEW.WORKER_REVIEWS_WITHIN_1_DAY / INSTALL_TO_REVIEW.WORKER_REVIEWS_WITH_INSTALL_TIME, result.worker_fast_fraction),
                ("regular wait mean (days)", INSTALL_TO_REVIEW.REGULAR_WAIT_MEAN_DAYS, result.comparison.regular.mean),
                ("regular wait median (days)", INSTALL_TO_REVIEW.REGULAR_WAIT_MEDIAN_DAYS, result.comparison.regular.median),
            ]
        )
    )
    report.lines.append(
        f"worker reviews with install time: {result.worker_review_count:,} "
        f"(paper: {INSTALL_TO_REVIEW.WORKER_REVIEWS_WITH_INSTALL_TIME:,}); "
        f"regular: {result.regular_review_count} (paper: "
        f"{INSTALL_TO_REVIEW.REGULAR_REVIEWS_WITH_INSTALL_TIME})"
    )
    report.metrics = {
        "worker_mean": result.comparison.worker.mean,
        "worker_median": result.comparison.worker.median,
        "regular_mean": result.comparison.regular.mean,
        "regular_median": result.comparison.regular.median,
        "worker_n": float(result.worker_review_count),
        "regular_n": float(result.regular_review_count),
        "worker_fast_fraction": result.worker_fast_fraction,
        "significant": float(result.comparison.significant()),
    }
    return report


def run_fig08_stopped_apps(wb: Workbench) -> ExperimentReport:
    result = compute_stopped_apps(wb.observations)
    report = ExperimentReport("fig08", "Stopped apps (§6.3)")
    stats = result.boxplot_stats()
    report.lines.append(
        render_table(
            ["group", "q1", "median", "q3", "max"],
            [
                ("worker", stats["worker"]["q1"], stats["worker"]["median"], stats["worker"]["q3"], stats["worker"]["max"]),
                ("regular", stats["regular"]["q1"], stats["regular"]["median"], stats["regular"]["q3"], stats["regular"]["max"]),
            ],
        )
    )
    report.lines.append(
        f"workers stop more apps: {result.comparison.worker.median:.0f} vs "
        f"{result.comparison.regular.median:.0f} median; significant: "
        f"{result.comparison.significant()}"
    )
    report.metrics = {
        "worker_median": result.comparison.worker.median,
        "regular_median": result.comparison.regular.median,
        "significant": float(result.comparison.significant()),
    }
    return report


def run_fig09_churn(wb: Workbench) -> ExperimentReport:
    result = compute_churn(wb.observations)
    report = ExperimentReport("fig09", "App churn: daily installs/uninstalls (§6.3)")
    report.lines.append(
        paper_vs_measured_rows(
            [
                ("worker daily installs mean", CHURN.WORKER_DAILY_INSTALLS_MEAN, result.installs.worker.mean),
                ("worker daily installs median", CHURN.WORKER_DAILY_INSTALLS_MEDIAN, result.installs.worker.median),
                ("regular daily installs mean", CHURN.REGULAR_DAILY_INSTALLS_MEAN, result.installs.regular.mean),
                ("worker daily uninstalls mean", CHURN.WORKER_DAILY_UNINSTALLS_MEAN, result.uninstalls.worker.mean),
                ("regular daily uninstalls mean", CHURN.REGULAR_DAILY_UNINSTALLS_MEAN, result.uninstalls.regular.mean),
            ]
        )
    )
    high = result.high_churn_devices()
    report.lines.append(
        f"devices with >10 installs/day: worker={high['worker']}, "
        f"regular={high['regular']} (paper: churn of most regular devices "
        "is <10/day, many worker devices above)"
    )
    report.metrics = {
        "worker_installs_mean": result.installs.worker.mean,
        "regular_installs_mean": result.installs.regular.mean,
        "installs_significant": float(result.installs.significant()),
        "uninstalls_significant": float(result.uninstalls.significant()),
    }
    return report


def run_fig10_daily_use(wb: Workbench) -> ExperimentReport:
    result = compute_daily_use(wb.observations)
    report = ExperimentReport("fig10", "Apps used per day vs installed (§6.3)")
    report.lines.append(
        render_table(
            ["group", "used/day mean", "used/day median"],
            [
                ("worker", result.comparison.worker.mean, result.comparison.worker.median),
                ("regular", result.comparison.regular.mean, result.comparison.regular.median),
            ],
        )
    )
    overlap = result.overlap_fraction()
    report.lines.append(
        f"worker devices inside regular IQR: {overlap:.0%} — the paper's "
        "'substantial overlap' (daily used apps alone cannot distinguish)"
    )
    report.metrics = {
        "worker_mean": result.comparison.worker.mean,
        "regular_mean": result.comparison.regular.mean,
        "overlap_fraction": overlap,
    }
    return report


def run_fig11_permissions(wb: Workbench) -> ExperimentReport:
    result = compute_app_permissions(wb.observations, wb.data.catalog)
    report = ExperimentReport("fig11", "Permissions of exclusive apps (§6.3)")
    max_dangerous = result.max_dangerous()
    report.lines.append(
        render_table(
            ["group", "dangerous mean", "total mean", "dangerous max"],
            [
                ("worker-exclusive", result.dangerous.worker.mean, result.total.worker.mean, max_dangerous["worker"]),
                ("regular-exclusive", result.dangerous.regular.mean, result.total.regular.mean, max_dangerous["regular"]),
            ],
        )
    )
    report.lines.append(
        "Expected pattern: similar profiles overall; worker-exclusive apps "
        "contribute the extreme dangerous-permission tail."
    )
    report.metrics = {
        "worker_dangerous_mean": result.dangerous.worker.mean,
        "regular_dangerous_mean": result.dangerous.regular.mean,
        "worker_dangerous_max": float(max_dangerous["worker"]),
        "regular_dangerous_max": float(max_dangerous["regular"]),
    }
    return report


def run_fig12_malware(wb: Workbench) -> ExperimentReport:
    result = compute_malware(wb.observations, wb.data.vt_client, wb.data.catalog)
    report = ExperimentReport("fig12", "Malware occurrence (§6.4)")
    spread = result.mean_spread()
    report.lines.append(
        paper_vs_measured_rows(
            [
                ("VT report availability", DATASET.HASHES_WITH_VT_REPORT / DATASET.DISTINCT_APK_HASHES, result.hashes_with_report / max(result.hashes_scanned, 1)),
                ("worker devices w/ flagged app", MALWARE.WORKER_DEVICES_WITH_FLAGGED, result.worker_devices_with_flagged),
                ("regular devices w/ flagged app", MALWARE.REGULAR_DEVICES_WITH_FLAGGED, result.regular_devices_with_flagged),
            ]
        )
    )
    report.lines.append(
        f"high-confidence (> {MALWARE.HIGH_CONFIDENCE_FLAGS} flags) samples: "
        f"{len(result.high_confidence_samples())}; mean device spread "
        f"worker={spread['worker']:.2f} vs regular={spread['regular']:.2f} "
        "(paper: malware appears on more worker devices)"
    )
    report.lines.append(
        f"AV apps: {result.devices_with_av_app} devices installed "
        f"{result.av_apps_installed} AV apps (paper: {MALWARE.DEVICES_WITH_AV} "
        f"devices, {MALWARE.AV_APPS_INSTALLED} apps)"
    )
    report.metrics = {
        "worker_devices_flagged": result.worker_devices_with_flagged,
        "regular_devices_flagged": result.regular_devices_with_flagged,
        "worker_spread": spread["worker"],
        "regular_spread": spread["regular"],
        "devices_with_av": result.devices_with_av_app,
    }
    return report
