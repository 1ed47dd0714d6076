"""Declared record schemas for the platform's snapshot families.

One :class:`RecordSchema` per wire record type the server ingests
(§3: initial, slow run, fast run, app change), plus the sign-in
``installs`` registry.  Field order matches the dataclasses in
:mod:`repro.platform.models` (with the ``_type`` wire tag last), so a
row reconstructed from a frame carries its keys in the same order as
the ingested payload dict.

Kinds map to numpy column dtypes:

========  =================================================
kind      column dtype
========  =================================================
float     ``float64`` (``object`` when the field is nullable)
int       ``int64``
bool      ``bool_``
str       ``object`` (python strings; nullable allowed)
object    ``object`` (nested lists / dicts, kept by reference)
========  =================================================

:meth:`RecordSchema.validate` checks a decoded JSON record against the
same kinds before the server stores it, and rejects a non-finite float
(Python's ``json`` decodes ``NaN``, ``Infinity`` and ``1e999``).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from math import isfinite

__all__ = [
    "Field",
    "RecordSchema",
    "SLOW_RUN_SCHEMA",
    "FAST_RUN_SCHEMA",
    "APP_CHANGE_SCHEMA",
    "INITIAL_SCHEMA",
    "INSTALL_SCHEMA",
    "SCHEMA_BY_COLLECTION",
]

_KINDS = ("float", "int", "bool", "str", "object")

#: The ``type()`` a decoded JSON value of each scalar kind may have.
#: Types match exactly, so ``bool`` is neither an ``int`` nor a ``float``.
_JSON_TYPES: dict[str, tuple[type, ...]] = {
    "float": (float, int),
    "int": (int,),
    "bool": (bool,),
    "str": (str,),
}


@dataclass(frozen=True)
class Field:
    """One column of a record schema."""

    name: str
    kind: str
    nullable: bool = False

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown field kind {self.kind!r}")


@dataclass(frozen=True)
class RecordSchema:
    """A named, ordered set of typed fields."""

    name: str
    fields: tuple[Field, ...]

    def __post_init__(self) -> None:
        names = [f.name for f in self.fields]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate field names in schema {self.name!r}")

    @property
    def field_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.fields)

    def field(self, name: str) -> Field:
        for f in self.fields:
            if f.name == name:
                return f
        raise KeyError(name)

    def __contains__(self, name: str) -> bool:
        return any(f.name == name for f in self.fields)

    @cached_property
    def _names(self) -> frozenset[str]:
        return frozenset(self.field_names)

    @cached_property
    def _scalar_types(self) -> tuple[tuple[str, tuple[type, ...]], ...]:
        return tuple(
            (f.name, _JSON_TYPES[f.kind] + ((type(None),) if f.nullable else ()))
            for f in self.fields
            if f.kind != "object"
        )

    def validate(self, row: Mapping) -> None:
        """Raise ``TypeError`` unless ``row`` has exactly this schema's
        fields and every ``float``/``int``/``bool``/``str`` value is of
        its kind: ``float`` takes ints too, and ``None`` passes only
        where the field is nullable.  ``object`` values are not checked.
        Raise ``ValueError`` for a ``float`` field holding ``nan`` or an
        infinity.
        """
        if row.keys() != self._names:
            raise TypeError(f"keys do not match schema {self.name!r} fields")
        for name, types in self._scalar_types:
            value = row[name]
            if type(value) not in types:
                raise TypeError(
                    f"{self.name}.{name}: {type(value).__name__} value "
                    f"for a {self.field(name).kind} field"
                )
            # Only a float field takes a float.
            if type(value) is float and not isfinite(value):
                raise ValueError(f"{self.name}.{name}: non-finite value {value!r}")


SLOW_RUN_SCHEMA = RecordSchema(
    "slow_run",
    (
        Field("install_id", "str"),
        Field("participant_id", "str"),
        Field("android_id", "str", nullable=True),
        Field("start", "float"),
        Field("end", "float"),
        Field("period", "float"),
        Field("accounts", "object"),
        Field("save_mode", "bool"),
        Field("stopped_apps", "object"),
        Field("accounts_permission", "bool"),
        Field("_type", "str"),
    ),
)

FAST_RUN_SCHEMA = RecordSchema(
    "fast_run",
    (
        Field("install_id", "str"),
        Field("participant_id", "str"),
        Field("start", "float"),
        Field("end", "float"),
        Field("period", "float"),
        Field("foreground", "str", nullable=True),
        Field("screen_on", "bool"),
        Field("battery", "float"),
        Field("usage_permission", "bool"),
        Field("_type", "str"),
    ),
)

APP_CHANGE_SCHEMA = RecordSchema(
    "app_change",
    (
        Field("install_id", "str"),
        Field("participant_id", "str"),
        Field("timestamp", "float"),
        Field("action", "str"),
        Field("package", "str"),
        Field("install_time", "float", nullable=True),
        Field("apk_hash", "str", nullable=True),
        Field("n_granted", "int"),
        Field("n_denied", "int"),
        Field("n_normal_permissions", "int"),
        Field("n_dangerous_permissions", "int"),
        Field("_type", "str"),
    ),
)

INITIAL_SCHEMA = RecordSchema(
    "initial",
    (
        Field("install_id", "str"),
        Field("participant_id", "str"),
        Field("android_id", "str", nullable=True),
        Field("api_level", "int"),
        Field("model", "str"),
        Field("manufacturer", "str"),
        Field("timestamp", "float"),
        Field("installed_apps", "object"),
        Field("_type", "str"),
    ),
)

INSTALL_SCHEMA = RecordSchema(
    "install",
    (
        Field("install_id", "str"),
        Field("participant_id", "str"),
        Field("android_id", "str", nullable=True),
        Field("registered_at", "float"),
    ),
)

#: Store collection name -> schema: the only collections the store builds.
SCHEMA_BY_COLLECTION: dict[str, RecordSchema] = {
    "initial_snapshots": INITIAL_SCHEMA,
    "slow_runs": SLOW_RUN_SCHEMA,
    "fast_runs": FAST_RUN_SCHEMA,
    "app_changes": APP_CHANGE_SCHEMA,
    "installs": INSTALL_SCHEMA,
}
