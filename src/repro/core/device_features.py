"""Device usage features (§8.1): one vector per device.

The seven feature groups from the paper:

1. pre-installed and user-installed app counts;
2. *app suspiciousness* — fraction of installed apps flagged by the §7
   app classifier (supplied by the pipeline; NaN when unavailable);
3. stopped apps;
4. average daily installs and uninstalls;
5. Gmail / non-Gmail account counts and distinct account types;
6. installed apps reviewed from device accounts;
7. total apps reviewed from device accounts.

Plus the derived "average reviews per registered account", which
Figure 14 shows among the top-4 most important device features.
"""

from __future__ import annotations

import math

import numpy as np

from .observations import DeviceObservation

__all__ = [
    "DEVICE_FEATURE_NAMES",
    "device_feature_matrix",
]

DEVICE_FEATURE_NAMES: tuple[str, ...] = (
    "n_preinstalled_apps",        # (1)
    "n_user_installed_apps",
    "app_suspiciousness",         # (2)
    "n_stopped_apps",             # (3)
    "daily_installs",             # (4)
    "daily_uninstalls",
    "n_gmail_accounts",           # (5)
    "n_non_gmail_accounts",
    "n_account_types",
    "n_installed_and_reviewed",   # (6)
    "total_apps_reviewed",        # (7)
    "total_reviews",
    "reviews_per_account_mean",
    "apps_used_per_day",
    "snapshots_per_day",
)


def device_feature_matrix(
    observations: list[DeviceObservation],
    scores: list[float | None] | None = None,
) -> np.ndarray:
    """One row per device, rows aligned with ``observations``.

    ``scores[i]`` is device *i*'s app-suspiciousness: the fraction of
    its installed apps the §7 app classifier flagged as
    promotion-installed; ``None`` (the app classifier has not run)
    becomes NaN, imputed downstream.  Columns follow
    :data:`DEVICE_FEATURE_NAMES`; byte-identical to stacking the
    per-device scalar extractor in ``tests/oracles.py``.
    """
    n = len(observations)
    M = np.empty((n, len(DEVICE_FEATURE_NAMES)), dtype=np.float64)
    if scores is None:
        scores = [None] * n
    for i, (obs, score) in enumerate(zip(observations, scores)):
        n_accounts = max(obs.n_gmail_accounts, 1)
        M[i] = (
            float(obs.n_preinstalled),
            float(obs.n_user_installed),
            float(score) if score is not None else math.nan,
            float(len(obs.stopped_apps_first)),
            obs.daily_installs,
            obs.daily_uninstalls,
            float(obs.n_gmail_accounts),
            float(obs.n_non_gmail_accounts),
            float(obs.n_account_types),
            float(obs.n_installed_and_reviewed),
            float(obs.apps_reviewed_total),
            float(obs.total_account_reviews),
            obs.total_account_reviews / n_accounts,
            obs.apps_used_per_day,
            obs.snapshots_per_day,
        )
    return M
