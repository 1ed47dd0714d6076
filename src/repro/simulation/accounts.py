"""Account generation: Gmail and third-party service accounts on devices.

§6.2: a user must have a Gmail account to review, one review per app per
account — so workers register many Gmail accounts (mean 28.87/device)
while regular users keep a couple plus many *types* of social accounts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ..playstore.google_id import GmailDirectory
from .personas import Persona

__all__ = ["DeviceAccount", "AccountFactory"]

_FIRST = ("ali", "sana", "ayesha", "imran", "farhan", "nadia", "rahul", "priya",
          "arjun", "kavya", "tanvir", "mitu", "sajid", "rumana", "omar", "zara",
          "bilal", "hina", "dev", "isha", "kamal", "lubna", "noor", "raza")
_LAST = ("khan", "ahmed", "patel", "sharma", "hossain", "rahman", "iqbal",
         "das", "roy", "begum", "chowdhury", "malik", "shaikh", "kumar",
         "gupta", "akhtar", "uddin", "bibi", "singh", "islam")


@dataclass(frozen=True, slots=True)
class DeviceAccount:
    """One account registered on a device: a (service, identifier) pair.

    For Gmail accounts ``identifier`` is the address and ``google_id``
    the Play-review identity; for other services ``google_id`` is None.
    """

    service: str
    identifier: str
    google_id: str | None = None

    @property
    def is_gmail(self) -> bool:
        return self.service == "com.google"


class AccountFactory:
    """Mints unique Gmail addresses (registered with the directory) and
    persona-appropriate third-party service accounts."""

    def __init__(self, directory: GmailDirectory, rng: np.random.Generator) -> None:
        self._directory = directory
        self._rng = rng
        self._counter = itertools.count(1)

    def new_gmail(self) -> DeviceAccount:
        first = _FIRST[int(self._rng.integers(0, len(_FIRST)))]
        last = _LAST[int(self._rng.integers(0, len(_LAST)))]
        email = f"{first}.{last}{next(self._counter)}@gmail.com"
        google_id = self._directory.register(email)
        return DeviceAccount(service="com.google", identifier=email, google_id=google_id)

    def accounts_for_persona(self, persona: Persona) -> list[DeviceAccount]:
        """Draw the full account set for a fresh device."""
        accounts = [self.new_gmail() for _ in range(persona.sample_gmail_accounts(self._rng))]
        for service in persona.sample_services(self._rng):
            accounts.append(
                DeviceAccount(service=service, identifier=f"user{next(self._counter)}")
            )
        return accounts
