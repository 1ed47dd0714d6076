"""Calibration targets: every quantitative finding the paper reports.

This module is the single source of truth for the numbers in §4-§8 of
the paper.  The persona generators are parameterised against these
targets, the analysis benchmarks print "paper vs measured" rows from
them, and the integration tests assert that the simulated cohort lands
within tolerance of the calibrated quantities.

All values are transcribed directly from the paper text; section/figure
references are given inline.
"""

from __future__ import annotations

__all__ = [
    "RECRUITMENT",
    "DATASET",
    "ACCOUNTS",
    "INSTALLED_APPS",
    "INSTALL_TO_REVIEW",
    "CHURN",
    "ENGAGEMENT",
    "MALWARE",
    "APP_CLASSIFIER",
    "DEVICE_CLASSIFIER",
    "SUSPICIOUSNESS",
]


class RECRUITMENT:
    """§4 recruitment funnel and cohort composition."""

    ADS_SHOWN = 136_022
    ADS_REACHED = 61_748
    ADS_CLICKED = 2_471
    REGULAR_EMAILED = 614
    REGULAR_INSTALLS = 233
    WORKER_INSTALLS = 672
    WORKER_UNIQUE_DEVICES_RAW = 549
    TOTAL_INSTALLS = 943
    UNIQUE_DEVICES = 803
    WORKER_DEVICES = 580
    REGULAR_DEVICES = 223
    WORKERS_RECRUITED = 587
    REGULARS_RECRUITED = 233
    FACEBOOK_GROUPS = 16
    FACEBOOK_GROUP_MEMBERS = 86_718
    AD_SPEND_USD = 79.23
    PAY_INSTALL_USD = 1.0
    PAY_PER_DAY_USD = 0.2
    COUNTRIES = {"PK": (364, 56), "IN": (57, 153), "BD": (143, 5), "US": (8, 2)}


class DATASET:
    """§5 dataset sizes."""

    SLOW_SNAPSHOTS = 592_045
    FAST_SNAPSHOTS = 57_770_204
    TOTAL_SNAPSHOTS = 58_362_249
    APPS_ON_DEVICES = 12_341
    PLAY_REVIEWS = 110_511_637
    WORKER_GMAIL_ACCOUNTS = 10_310
    WORKER_ACCOUNT_REVIEWS = 217_041
    FIRST_CRAWL_CAP = 100_000
    CRAWL_PERIOD_HOURS = 12
    DISTINCT_APK_HASHES = 18_079
    HASHES_WITH_VT_REPORT = 12_431
    UNIQUE_APP_IDS_HASHED = 9_911
    DEVICES_WITH_HASHES = 713


class ACCOUNTS:
    """§6.2 / Figure 5: registered accounts per device."""

    WORKER_GMAIL_MEAN = 28.87
    WORKER_GMAIL_MEDIAN = 21
    WORKER_GMAIL_SD = 29.37
    WORKER_GMAIL_MAX = 163
    WORKER_DEVICES_OVER_100_GMAIL = 13
    REGULAR_GMAIL_MEDIAN = 2
    REGULAR_GMAIL_SD = 1.66
    REGULAR_GMAIL_MAX = 10
    REGULAR_ACCOUNT_TYPES_MEAN = 6
    REGULAR_ACCOUNT_TYPES_MAX = 19
    REPORTING_REGULAR_DEVICES = 145
    REPORTING_WORKER_DEVICES = 390


class INSTALLED_APPS:
    """§6.3 / Figure 6: installed, reviewed, stopped apps."""

    REGULAR_INSTALLED_MEAN = 65.45
    WORKER_INSTALLED_MEAN = 77.56
    WORKER_REVIEWED_OF_INSTALLED_MEAN = 40.51
    REGULAR_REVIEWED_OF_INSTALLED_MEAN = 0.7
    WORKER_TOTAL_REVIEWS_MEAN = 208.91
    REGULAR_TOTAL_REVIEWS_MEAN = 1.91
    REGULAR_TOTAL_REVIEWS_MAX = 36
    WORKER_DEVICES_OVER_1000_REVIEWS = 11
    REPORTING_REGULAR_DEVICES = 143
    REPORTING_WORKER_DEVICES = 400
    # ANOVA on installed-app counts is the one *non*-significant test.
    INSTALLED_ANOVA_P = 0.301
    INSTALLED_KS_P = 0.008


class INSTALL_TO_REVIEW:
    """§6.3 / Figure 7: delay between app install and review."""

    WORKER_REVIEWS_WITH_INSTALL_TIME = 40_397
    WORKER_REVIEWS_WITHIN_1_DAY = 13_376
    WORKER_WAIT_MEAN_DAYS = 10.4
    WORKER_WAIT_MEDIAN_DAYS = 5.0
    WORKER_WAIT_SD_DAYS = 13.72
    WORKER_WAIT_MAX_DAYS = 574
    REGULAR_REVIEWS_WITH_INSTALL_TIME = 35
    REGULAR_REVIEWS_WITHIN_1_DAY = 4
    REGULAR_WAIT_MEAN_DAYS = 85.09
    REGULAR_WAIT_MEDIAN_DAYS = 21.92
    REGULAR_WAIT_SD_DAYS = 140.56
    REGULAR_WAIT_MAX_DAYS = 606.11


class CHURN:
    """§6.3 / Figure 9: daily install and uninstall events."""

    WORKER_DAILY_INSTALLS_MEAN = 15.94
    WORKER_DAILY_INSTALLS_MEDIAN = 6.41
    WORKER_DAILY_INSTALLS_SD = 27.37
    REGULAR_DAILY_INSTALLS_MEAN = 3.88
    REGULAR_DAILY_INSTALLS_MEDIAN = 2.0
    REGULAR_DAILY_INSTALLS_SD = 7.29
    WORKER_DAILY_UNINSTALLS_MEAN = 7.02
    WORKER_DAILY_UNINSTALLS_MEDIAN = 2.73
    WORKER_DAILY_UNINSTALLS_SD = 15.69
    REGULAR_DAILY_UNINSTALLS_MEAN = 3.29
    REGULAR_DAILY_UNINSTALLS_MEDIAN = 1.8
    REGULAR_DAILY_UNINSTALLS_SD = 6.87


class ENGAGEMENT:
    """§6.1 / Figure 4: snapshots per day."""

    REGULAR_SNAPSHOTS_PER_DAY_MEAN = 9_430.71
    REGULAR_SNAPSHOTS_PER_DAY_MEDIAN = 3_097.67
    REGULAR_SNAPSHOTS_PER_DAY_SD = 12_789.14
    REGULAR_SNAPSHOTS_PER_DAY_MAX = 63_452
    WORKER_SNAPSHOTS_PER_DAY_MEAN = 8_208.10
    WORKER_SNAPSHOTS_PER_DAY_MEDIAN = 3_669
    WORKER_SNAPSHOTS_PER_DAY_SD = 10_303.42
    DEVICES_OVER_100_PER_DAY = 529


class MALWARE:
    """§6.4 / Figure 12: malware prevalence."""

    FLAGGED_APPS_MULTI_ENGINE = 177
    DEVICES_WITH_FLAGGED_APP = 183
    WORKER_DEVICES_WITH_FLAGGED = 122
    REGULAR_DEVICES_WITH_FLAGGED = 61
    FLAGGED_APPS_REVIEWED = 70
    FLAGGED_REVIEWED_BY_WORKERS = 64
    FLAGGED_REVIEWED_BY_REGULAR = 9
    HIGH_CONFIDENCE_FLAGS = 7
    AV_APPS_IN_PLAY = 250
    DEVICES_WITH_AV = 19
    AV_APPS_INSTALLED = 15


class APP_CLASSIFIER:
    """§7.2 / Table 1: app-usage classification."""

    HELD_OUT_WORKER_DEVICES = 38
    HELD_OUT_REGULAR_DEVICES = 37
    WORKER_HOLDOUT_FRACTION = 0.20
    REGULAR_HOLDOUT_FRACTION = 0.42
    SUSPICIOUS_APPS = 1_041
    NON_SUSPICIOUS_APPS = 474
    SUSPICIOUS_INSTANCES = 2_994
    REGULAR_INSTANCES = 345
    MIN_WORKER_DEVICES_FOR_SUSPICIOUS = 5
    MIN_REVIEWS_FOR_REGULAR = 15_000
    CV_FOLDS = 10
    CV_REPEATS = 5
    KNN_K = 5
    TABLE1 = {
        "XGB": {"precision": 0.9978, "recall": 0.9967, "f1": 0.9972},
        "RF": {"precision": 0.9933, "recall": 0.9923, "f1": 0.9927},
        "LR": {"precision": 0.9922, "recall": 0.9900, "f1": 0.9911},
        "KNN": {"precision": 0.9688, "recall": 0.9688, "f1": 0.9688},
        "LVQ": {"precision": 0.9099, "recall": 0.9454, "f1": 0.9273},
    }
    XGB_F1_UNDERSAMPLE = 0.9876
    XGB_F1_OVERSAMPLE = 0.9922
    XGB_FPR_OVERSAMPLE = 0.0194
    AUC_FLOOR = 0.99
    KNN_AUC_UNDERSAMPLE = 0.90
    KNN_AUC_OVERSAMPLE = 0.92
    TOP_FEATURES = (
        "accounts_reviewed_during",
        "install_to_review_mean",
    )


class DEVICE_CLASSIFIER:
    """§8.2 / Table 2: device classification."""

    WORKER_DEVICES = 178
    REGULAR_DEVICES = 88
    MIN_DAYS_OF_SNAPSHOTS = 2
    CV_FOLDS = 10
    KNN_K = 5
    TABLE2 = {
        "XGB": {"precision": 0.9681, "recall": 0.9381, "f1": 0.9529},
        "RF": {"precision": 0.9395, "recall": 0.9606, "f1": 0.9499},
        "SVM": {"precision": 0.9664, "recall": 0.8903, "f1": 0.9268},
        "KNN": {"precision": 0.9429, "recall": 0.9058, "f1": 0.9240},
        "LVQ": {"precision": 0.9640, "recall": 0.8284, "f1": 0.8911},
    }
    XGB_AUC = 0.9455
    XGB_FPR = 0.0141
    XGB_RECALL_UNDERSAMPLE = 0.9297
    XGB_F1_UNDERSAMPLE = 0.9518
    XGB_AUC_UNDERSAMPLE = 0.9074
    XGB_F1_NO_SAMPLING = 0.9686
    XGB_AUC_NO_SAMPLING = 0.9083
    TOP_FEATURES = (
        "total_apps_reviewed",
        "app_suspiciousness",
        "stopped_apps",
        "reviews_per_account_mean",
    )


class SUSPICIOUSNESS:
    """§8.2 / Figure 15: organic vs promotion-dedicated worker devices."""

    WORKER_DEVICES_ANALYZED = 178
    ORGANIC_INDICATIVE = 123
    PROMOTION_ONLY = 55
    ORGANIC_FRACTION = 123 / 178  # = 69.1% quoted in the abstract/intro
    PROMOTION_ONLY_GMAIL_MEDIAN = 31
    PROMOTION_ONLY_GMAIL_MEAN = 37.18
    PROMOTION_ONLY_GMAIL_MAX = 114
    PROMOTION_ONLY_STOPPED_MEDIAN = 23
    PROMOTION_ONLY_STOPPED_MEAN = 66.23
