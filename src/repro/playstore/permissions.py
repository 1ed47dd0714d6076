"""Android permission model used by the catalog and the §6.3/§7.1 features.

Android splits permissions into *normal* (install-time, auto-granted) and
*dangerous* (runtime, user-granted) protection levels.  Figure 11 plots
dangerous vs total permissions per app; features (8) and (9) of §7.1
count requested/granted/denied permissions.  The constants below are the
real Android permission names so simulated apps look like real manifests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DANGEROUS_PERMISSIONS",
    "NORMAL_PERMISSIONS",
    "RACKETSTORE_RUNTIME_PERMISSIONS",
    "RACKETSTORE_INSTALL_PERMISSIONS",
    "PermissionProfile",
    "sample_permission_profile",
]

#: Runtime ("dangerous") permissions, per the Android documentation.
DANGEROUS_PERMISSIONS: tuple[str, ...] = (
    "android.permission.READ_CALENDAR",
    "android.permission.WRITE_CALENDAR",
    "android.permission.CAMERA",
    "android.permission.READ_CONTACTS",
    "android.permission.WRITE_CONTACTS",
    "android.permission.GET_ACCOUNTS",
    "android.permission.ACCESS_FINE_LOCATION",
    "android.permission.ACCESS_COARSE_LOCATION",
    "android.permission.RECORD_AUDIO",
    "android.permission.READ_PHONE_STATE",
    "android.permission.CALL_PHONE",
    "android.permission.READ_CALL_LOG",
    "android.permission.WRITE_CALL_LOG",
    "android.permission.ADD_VOICEMAIL",
    "android.permission.USE_SIP",
    "android.permission.PROCESS_OUTGOING_CALLS",
    "android.permission.BODY_SENSORS",
    "android.permission.SEND_SMS",
    "android.permission.RECEIVE_SMS",
    "android.permission.READ_SMS",
    "android.permission.RECEIVE_WAP_PUSH",
    "android.permission.RECEIVE_MMS",
    "android.permission.READ_EXTERNAL_STORAGE",
    "android.permission.WRITE_EXTERNAL_STORAGE",
)

#: A representative set of install-time ("normal") permissions.
NORMAL_PERMISSIONS: tuple[str, ...] = (
    "android.permission.INTERNET",
    "android.permission.ACCESS_NETWORK_STATE",
    "android.permission.ACCESS_WIFI_STATE",
    "android.permission.BLUETOOTH",
    "android.permission.BLUETOOTH_ADMIN",
    "android.permission.VIBRATE",
    "android.permission.WAKE_LOCK",
    "android.permission.RECEIVE_BOOT_COMPLETED",
    "android.permission.FOREGROUND_SERVICE",
    "android.permission.NFC",
    "android.permission.SET_WALLPAPER",
    "android.permission.REQUEST_INSTALL_PACKAGES",
    "android.permission.CHANGE_WIFI_STATE",
    "android.permission.CHANGE_NETWORK_STATE",
    "android.permission.EXPAND_STATUS_BAR",
    "android.permission.GET_PACKAGE_SIZE",
    "android.permission.KILL_BACKGROUND_PROCESSES",
    "android.permission.READ_SYNC_SETTINGS",
    "android.permission.USE_FINGERPRINT",
    "com.google.android.c2dm.permission.RECEIVE",
)

#: The two runtime permissions the RacketStore app asks for (§3).
RACKETSTORE_RUNTIME_PERMISSIONS: tuple[str, ...] = (
    "android.permission.PACKAGE_USAGE_STATS",
    "android.permission.GET_ACCOUNTS",
)

#: Install-time permissions RacketStore uses (§3).
RACKETSTORE_INSTALL_PERMISSIONS: tuple[str, ...] = (
    "android.permission.GET_TASKS",
    "android.permission.RECEIVE_BOOT_COMPLETED",
    "android.permission.INTERNET",
    "android.permission.ACCESS_NETWORK_STATE",
    "android.permission.WAKE_LOCK",
)


@dataclass(frozen=True)
class PermissionProfile:
    """The permissions an app's manifest requests."""

    normal: tuple[str, ...] = field(default_factory=tuple)
    dangerous: tuple[str, ...] = field(default_factory=tuple)

    @property
    def total(self) -> int:
        return len(self.normal) + len(self.dangerous)

    @property
    def n_dangerous(self) -> int:
        return len(self.dangerous)


def sample_permission_profile(
    rng: np.random.Generator,
    aggressive: bool = False,
) -> PermissionProfile:
    """Draw a manifest permission set.

    Figure 11 shows that "most installed apps share a similar permission
    profile across all device types", with a tail of worker-exclusive
    apps requesting many dangerous permissions.  ``aggressive`` selects
    that tail (used for a fraction of promoted/malware apps).
    """
    if aggressive:
        n_dangerous = int(rng.integers(6, len(DANGEROUS_PERMISSIONS) + 1))
        n_normal = int(rng.integers(5, len(NORMAL_PERMISSIONS) + 1))
    else:
        # Typical apps: a handful of normal permissions, 0-6 dangerous.
        n_dangerous = int(np.clip(rng.poisson(2.2), 0, 8))
        n_normal = int(np.clip(rng.poisson(4.5), 1, 12))
    dangerous = tuple(
        sorted(rng.choice(DANGEROUS_PERMISSIONS, size=n_dangerous, replace=False))
    )
    normal = tuple(sorted(rng.choice(NORMAL_PERMISSIONS, size=n_normal, replace=False)))
    return PermissionProfile(normal=normal, dangerous=dangerous)
