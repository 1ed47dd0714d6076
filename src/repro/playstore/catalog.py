"""App catalog: the Google Play Store's inventory of apps.

Generates a synthetic but structurally realistic catalog: package names,
categories, install counts with a Zipf-like popularity curve, aggregate
ratings, permission manifests, and apk hashes per version.  Three app
populations matter to the paper:

* **popular apps** — high review counts, installed by regular users
  (the §7.2 non-suspicious labeling rule requires >= 15,000 reviews);
* **promoted apps** — obscure apps that buy ASO campaigns (the
  suspicious label source);
* **third-party-store apps** — packages not hosted on Play at all
  (§6.3 "Third-Party App Stores"), including *modded* apks.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from .permissions import PermissionProfile, sample_permission_profile

__all__ = ["AppCategory", "App", "Catalog", "CATEGORIES", "PREINSTALLED_PACKAGES"]


CATEGORIES: tuple[str, ...] = (
    "TOOLS", "GAMES", "SOCIAL", "COMMUNICATION", "FINANCE", "SHOPPING",
    "ENTERTAINMENT", "PRODUCTIVITY", "PHOTOGRAPHY", "MUSIC_AND_AUDIO",
    "VIDEO_PLAYERS", "HEALTH_AND_FITNESS", "EDUCATION", "NEWS_AND_MAGAZINES",
    "TRAVEL_AND_LOCAL", "BUSINESS", "LIFESTYLE", "ANTIVIRUS",
)

#: Android system / OEM packages present on every simulated device.
#: §8.1 notes "even the use of pre-installed apps like the app store,
#: e-mail, maps, and browser apps can distinguish regular devices".
PREINSTALLED_PACKAGES: tuple[str, ...] = (
    "com.android.vending",            # Play Store
    "com.google.android.gms",
    "com.google.android.gm",          # Gmail
    "com.google.android.apps.maps",
    "com.android.chrome",
    "com.google.android.youtube",
    "com.google.android.music",
    "com.android.settings",
    "com.android.camera2",
    "com.samsung.android.messaging",
    "com.samsung.android.incallui",
    "com.android.gallery3d",
    "com.android.dialer",
    "com.android.contacts",
)

#: Categories a modded third-party apk is drawn from.
MOD_CATEGORIES: tuple[str, ...] = ("ENTERTAINMENT", "GAMES", "VIDEO_PLAYERS")

AppCategory = str

_WORD_A = ("photo", "video", "super", "smart", "easy", "fast", "magic", "daily",
           "ultra", "pro", "mini", "mega", "pocket", "cloud", "secure", "happy",
           "lucky", "royal", "prime", "turbo", "zen", "pixel", "nova", "astro")
_WORD_B = ("editor", "player", "cleaner", "booster", "scanner", "keyboard",
           "launcher", "wallet", "browser", "translator", "recorder", "manager",
           "vpn", "tracker", "diary", "quiz", "runner", "saga", "maker",
           "weather", "radio", "chat", "market", "coach")


@dataclass(frozen=True)
class App:
    """One Play Store listing (or, if ``on_play_store`` is false, an apk
    distributed through a third-party store)."""

    package: str
    title: str
    category: AppCategory
    developer: str
    on_play_store: bool = True
    preinstalled: bool = False
    install_count: int = 0
    review_count: int = 0
    aggregate_rating: float = 0.0
    permissions: PermissionProfile = field(default_factory=PermissionProfile)
    apk_hashes: tuple[str, ...] = field(default_factory=tuple)
    is_malware: bool = False
    is_antivirus: bool = False

    @property
    def current_apk_hash(self) -> str:
        return self.apk_hashes[-1] if self.apk_hashes else ""

    def with_counts(self, install_count: int, review_count: int, rating: float) -> "App":
        return replace(
            self,
            install_count=install_count,
            review_count=review_count,
            aggregate_rating=rating,
        )


def _apk_hash(package: str, version: int) -> str:
    """Deterministic stand-in for the MD5 of an apk build."""
    return hashlib.md5(f"{package}:v{version}".encode()).hexdigest()


class Catalog:
    """Generator and index for the simulated Play Store inventory."""

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._apps: dict[str, App] = {}
        self._name_counter = itertools.count(1)
        #: Bumped on every mutation; cheap cache invalidation token for
        #: derived structures (the rank model's relevance arrays).
        self.version = 0
        self._register_preinstalled()

    # -- generation --------------------------------------------------------
    def _register_preinstalled(self) -> None:
        for package in PREINSTALLED_PACKAGES:
            app = App(
                package=package,
                title=package.rsplit(".", 1)[-1].title(),
                category="TOOLS",
                developer="Google LLC" if "google" in package or "android" in package else "Samsung",
                preinstalled=True,
                install_count=1_000_000_000,
                review_count=5_000_000,
                aggregate_rating=4.2,
                permissions=sample_permission_profile(self._rng),
                apk_hashes=(_apk_hash(package, 1),),
            )
            self._apps[package] = app
            self.version += 1

    def _new_package(self, kind: str) -> tuple[str, str]:
        a = _WORD_A[int(self._rng.integers(0, len(_WORD_A)))]
        b = _WORD_B[int(self._rng.integers(0, len(_WORD_B)))]
        n = next(self._name_counter)
        package = f"com.{kind}.{a}{b}{n}"
        title = f"{a.title()} {b.title()}"
        return package, title

    def add_popular_app(self) -> App:
        """High-traffic app of the kind regular users install and review,
        with at least the §7.2 popularity bar's reviews."""
        # Deferred: repro.simulation's package init imports this module.
        from ..simulation.calibration import APP_CLASSIFIER

        package, title = self._new_package("app")
        reviews = int(
            self._rng.pareto(1.1) * 30_000 + APP_CLASSIFIER.MIN_REVIEWS_FOR_REGULAR
        )
        installs = reviews * int(self._rng.integers(30, 120))
        app = App(
            package=package,
            title=title,
            category=CATEGORIES[int(self._rng.integers(0, len(CATEGORIES)))],
            developer=f"dev{self._rng.integers(1, 500)} Studio",
            install_count=installs,
            review_count=reviews,
            aggregate_rating=float(np.clip(self._rng.normal(4.1, 0.4), 1.0, 5.0)),
            permissions=sample_permission_profile(self._rng),
            apk_hashes=tuple(
                _apk_hash(package, v)
                for v in range(1, int(self._rng.integers(1, 4)) + 1)
            ),
        )
        self._apps[package] = app
        self.version += 1
        return app

    def add_promoted_app(self) -> App:
        """Obscure app that purchases ASO promotion.

        Low organic install/review counts (that is why it buys installs),
        sometimes aggressive permission profiles, sometimes malware
        (§6.4 finds workers review malware apps).
        """
        package, title = self._new_package("promo")
        is_malware = bool(self._rng.random() < 0.08)
        aggressive = is_malware or self._rng.random() < 0.25
        reviews = int(self._rng.integers(0, 900))
        app = App(
            package=package,
            title=title,
            category=CATEGORIES[int(self._rng.integers(0, len(CATEGORIES)))],
            developer=f"dev{self._rng.integers(500, 2000)}",
            install_count=reviews * int(self._rng.integers(5, 40)) + int(self._rng.integers(10, 5_000)),
            review_count=reviews,
            aggregate_rating=float(np.clip(self._rng.normal(3.6, 0.7), 1.0, 5.0)),
            permissions=sample_permission_profile(self._rng, aggressive=aggressive),
            apk_hashes=(_apk_hash(package, 1),),
            is_malware=is_malware,
        )
        self._apps[package] = app
        self.version += 1
        return app

    def add_third_party_app(self) -> App:
        """Modded apk clone hosted outside Google Play (§6.3)."""
        package, title = self._new_package("mod")
        app = App(
            package=package,
            title=title + " Mod",
            category=MOD_CATEGORIES[int(self._rng.integers(0, len(MOD_CATEGORIES)))],
            developer="unknown",
            on_play_store=False,
            install_count=0,
            review_count=0,
            aggregate_rating=0.0,
            permissions=sample_permission_profile(self._rng, aggressive=True),
            apk_hashes=(_apk_hash(package, 1),),
            is_malware=bool(self._rng.random() < 0.3),
        )
        self._apps[package] = app
        self.version += 1
        return app

    def add_antivirus_app(self) -> App:
        """AV app (§6.4 identifies 250 AV apps on Play; few are installed)."""
        package, title = self._new_package("av")
        app = App(
            package=package,
            title=title + " Antivirus",
            category="ANTIVIRUS",
            developer=f"security{self._rng.integers(1, 50)}",
            install_count=int(self._rng.integers(100_000, 50_000_000)),
            review_count=int(self._rng.integers(20_000, 400_000)),
            aggregate_rating=float(np.clip(self._rng.normal(4.3, 0.3), 1.0, 5.0)),
            permissions=sample_permission_profile(self._rng),
            apk_hashes=(_apk_hash(package, 1),),
            is_antivirus=True,
        )
        self._apps[package] = app
        self.version += 1
        return app

    # -- lookups -----------------------------------------------------------
    def get(self, package: str) -> App:
        return self._apps[package]

    def __contains__(self, package: str) -> bool:
        return package in self._apps

    def __len__(self) -> int:
        return len(self._apps)

    def all_apps(self) -> list[App]:
        return list(self._apps.values())

    def preinstalled(self) -> list[App]:
        return [a for a in self._apps.values() if a.preinstalled]

    def antivirus_apps(self) -> list[App]:
        """The §6.4 AV-app join: all catalog apps in the ANTIVIRUS category."""
        return [a for a in self._apps.values() if a.is_antivirus]

    def hosted_on_play(self) -> list[App]:
        return [a for a in self._apps.values() if a.on_play_store]

    def update(self, app: App) -> None:
        if app.package not in self._apps:
            raise KeyError(f"unknown package {app.package!r}")
        self._apps[app.package] = app
        self.version += 1
