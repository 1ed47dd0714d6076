"""Gmail-account -> Google-ID resolution (the paper's "Google ID crawler").

§5: the authors found that responses of Gmail's e-mail search
functionality embed the account's Google ID, letting a third party map
any Gmail address to the ID under which its Play reviews are posted
(reported to Google VRP as issue 156369357; closed as intended
behaviour).  We simulate that directory: accounts registered with the
simulated Google backend get a stable numeric ID, lookups occasionally
fail (deleted/suspended accounts), and the crawler memoises results.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

__all__ = ["GmailDirectory", "GoogleIdCrawler", "LookupStats"]


def _derive_google_id(email: str) -> str:
    """Stable 21-digit Google-ID-shaped identifier for an email."""
    digest = hashlib.sha256(email.encode()).hexdigest()
    return str(int(digest[:18], 16) % 10**21).zfill(21)


class GmailDirectory:
    """The Google-side registry of Gmail accounts.

    ``register`` creates the account (idempotent); ``resolve`` is the
    internal truth the crawler probes via the search-functionality leak.
    """

    def __init__(self) -> None:
        self._ids: dict[str, str] = {}
        self._suspended: set[str] = set()

    def register(self, email: str) -> str:
        if not email.endswith("@gmail.com"):
            raise ValueError(f"not a Gmail address: {email!r}")
        if email not in self._ids:
            self._ids[email] = _derive_google_id(email)
        return self._ids[email]

    def suspend(self, email: str) -> None:
        """Mark an account suspended — lookups stop resolving (Google's
        anti-abuse action against detected fraud accounts)."""
        if email not in self._ids:
            raise KeyError(email)
        self._suspended.add(email)

    def is_suspended(self, email: str) -> bool:
        return email in self._suspended

    def resolve(self, email: str) -> str | None:
        if email in self._suspended:
            return None
        return self._ids.get(email)

    def __len__(self) -> int:
        return len(self._ids)


@dataclass
class LookupStats:
    requests: int = 0
    hits: int = 0
    misses: int = 0
    cached: int = 0


class GoogleIdCrawler:
    """Maps Gmail addresses to Google IDs via the email-search leak.

    Mirrors the paper's crawler: one request per address, memoised, with
    misses for unregistered or suspended accounts.
    """

    def __init__(self, directory: GmailDirectory) -> None:
        self._directory = directory
        self._cache: dict[str, str | None] = {}
        self.stats = LookupStats()

    def lookup(self, email: str) -> str | None:
        if email in self._cache:
            self.stats.cached += 1
            return self._cache[email]
        self.stats.requests += 1
        google_id = self._directory.resolve(email)
        if google_id is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        self._cache[email] = google_id
        return google_id
