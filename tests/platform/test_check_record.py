"""``check_record``, the one ingest check per line, against the check it
replaced: ``tests/oracles.py``'s ``ingest_check``, which builds the record
with ``record_from_dict`` and then checks the line's schema kinds.

Both must reach the same verdict on every line of a seeded small study and
on single-field mutations of those lines, except where ``check_record`` is
stricter by design:

* a float field holding ``NaN`` or an infinity (Python's ``json`` decodes
  both) is malformed; the old check stored it, and the run's snapshot
  count then raised;
* a slow run without ``accounts`` or ``stopped_apps``, or an initial
  snapshot without ``installed_apps``, is malformed; the old check raised
  ``KeyError``, which escaped ``receive_chunk``.
"""

import gzip
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.platform.server as server_module
from repro.frames import SCHEMA_BY_COLLECTION
from repro.platform.models import check_record
from repro.platform.server import RacketStoreServer
from repro.simulation import SimulationConfig, phases, run_study

from tests import oracles

SRC = Path(__file__).resolve().parents[2] / "src"
FLOAT_FIELDS = {
    schema.name: {f.name for f in schema.fields if f.kind == "float"}
    for schema in SCHEMA_BY_COLLECTION.values()
}
TYPES = ("slow_run", "fast_run", "app_change", "initial")

JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**6), 10**6),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=5,
)
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@pytest.fixture(scope="module")
def lines_by_type() -> dict[str, list[str]]:
    """Every wire line one seeded small study uploads, by ``_type``."""
    lines = []
    receive = phases.RecordingUplink.receive_chunk

    def recording_receive(self, kind, data):
        lines.extend(gzip.decompress(data).decode().splitlines())
        return receive(self, kind, data)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(phases.RecordingUplink, "receive_chunk", recording_receive)
        run_study(SimulationConfig.small(), n_jobs=1)
    by_type = {type_name: [] for type_name in TYPES}
    for line in lines:
        by_type[json.loads(line)["_type"]].append(line)
    return by_type


def verdicts(payload) -> tuple[str, str]:
    """(``check_record``'s verdict, the oracle's): ``ok``, ``malformed``,
    or ``crash`` for an oracle ``KeyError``.  Any other exception fails."""
    try:
        check_record(payload)
        new = "ok"
    except (ValueError, TypeError):
        new = "malformed"
    try:
        oracles.ingest_check(payload)
        old = "ok"
    except (ValueError, TypeError):
        old = "malformed"
    except KeyError:
        old = "crash"
    return new, old


def stricter_by_design(payload, old: str) -> bool:
    """Whether ``check_record`` rejects ``payload`` on purpose where the
    oracle did not count it malformed (the module docstring's cases)."""
    if old == "crash":
        return True
    floats = FLOAT_FIELDS.get(payload.get("_type"), ()) if type(payload) is dict else ()
    return old == "ok" and any(
        type(payload.get(name)) is float and not math.isfinite(payload[name]) for name in floats
    )


def test_every_study_line_passes_both(lines_by_type):
    assert all(lines_by_type.values())
    for lines in lines_by_type.values():
        for line in lines:
            assert verdicts(json.loads(line)) == ("ok", "ok")


def _mutate(data, payload: dict) -> tuple[str, object]:
    type_name = payload["_type"]
    options = ["drop-key", "extra-key", "wrong-kind", "unknown-type", "non-finite", "not-object"]
    if type_name == "app_change":
        options.append("bad-action")
    if type_name in ("fast_run", "slow_run"):
        options += ["period", "end-before-start"]
    if type_name == "slow_run":
        options += ["account-pair", "stopped-apps"]
    if type_name == "initial":
        options += ["app-key", "app-value"]
    mutation = data.draw(st.sampled_from(options))
    keys = sorted(payload)
    if mutation == "drop-key":
        del payload[data.draw(st.sampled_from(keys))]
    elif mutation == "extra-key":
        key = data.draw(st.text(min_size=1, max_size=8).filter(lambda k: k not in payload))
        payload[key] = data.draw(JSON_VALUES)
    elif mutation == "wrong-kind":
        payload[data.draw(st.sampled_from(keys))] = data.draw(JSON_VALUES)
    elif mutation == "unknown-type":
        payload["_type"] = data.draw(JSON_VALUES.filter(lambda v: v not in TYPES))
    elif mutation == "non-finite":
        payload[data.draw(st.sampled_from(sorted(FLOAT_FIELDS[type_name])))] = data.draw(
            NON_FINITE
        )
    elif mutation == "not-object":
        payload = data.draw(
            st.one_of(st.just(list(payload.items())), JSON_SCALARS, st.lists(JSON_VALUES))
        )
    elif mutation == "bad-action":
        payload["action"] = data.draw(
            st.text(max_size=10).filter(lambda a: a not in ("install", "uninstall"))
        )
    elif mutation == "period":
        payload["period"] = data.draw(
            st.one_of(st.floats(max_value=0.0, allow_nan=False), st.integers(max_value=0))
        )
    elif mutation == "end-before-start":
        payload["end"] = payload["start"] - data.draw(st.floats(1.0, 1e9))
    elif mutation == "account-pair":
        accounts = payload["accounts"] or [None]
        accounts[data.draw(st.integers(0, len(accounts) - 1))] = data.draw(JSON_VALUES)
        payload["accounts"] = accounts
    elif mutation == "stopped-apps":
        payload["stopped_apps"] = data.draw(JSON_VALUES)
    elif mutation in ("app-key", "app-value") and payload["installed_apps"]:
        index = data.draw(st.integers(0, len(payload["installed_apps"]) - 1))
        app = payload["installed_apps"][index]
        if mutation == "app-value":
            payload["installed_apps"][index] = data.draw(JSON_VALUES)
        elif data.draw(st.booleans()):
            del app[data.draw(st.sampled_from(sorted(app)))]
        else:
            app[data.draw(st.text(min_size=1, max_size=8).filter(lambda k: k not in app))] = 0
    # The server checks decoded lines: NaN and infinities survive the trip.
    return mutation, json.loads(json.dumps(payload))


@settings(max_examples=600, deadline=None)
@given(data=st.data())
def test_single_field_mutations_get_the_oracle_verdict(lines_by_type, data):
    type_name = data.draw(st.sampled_from(TYPES))
    payload = json.loads(data.draw(st.sampled_from(lines_by_type[type_name])))
    mutation, payload = _mutate(data, payload)
    new, old = verdicts(payload)
    if new != old:
        assert new == "malformed" and stricter_by_design(payload, old), (mutation, payload)


@pytest.mark.parametrize(
    "payload",
    [{"start": math.nan}, {"end": math.inf}, {"battery": -math.inf}],
    ids=["nan-start", "infinite-end", "negative-infinite-battery"],
)
def test_non_finite_float_is_stricter_by_design(lines_by_type, payload):
    line = json.loads(lines_by_type["fast_run"][0])
    line.update(payload)
    assert verdicts(line) == ("malformed", "ok")


@pytest.mark.parametrize(
    "type_name, key",
    [("slow_run", "accounts"), ("slow_run", "stopped_apps"), ("initial", "installed_apps")],
)
def test_dropped_collection_key_is_stricter_by_design(lines_by_type, type_name, key):
    line = json.loads(lines_by_type[type_name][0])
    del line[key]
    assert verdicts(line) == ("malformed", "crash")


def test_receive_chunk_checks_each_line_once(monkeypatch, lines_by_type):
    calls = []

    def counting_check(payload):
        calls.append(payload)
        return check_record(payload)

    monkeypatch.setattr(server_module, "check_record", counting_check)
    server = RacketStoreServer()
    lines = [lines_by_type[type_name][0] for type_name in TYPES]
    chunk = "\n".join([*lines, "", '{"_type": "mystery"}']) + "\n"
    server.receive_chunk("slow", gzip.compress(chunk.encode()))
    assert len(calls) == len(lines) + 1
    assert server.stats.records_inserted == len(lines)
    assert server.stats.malformed_records == 1


def test_record_from_dict_lives_only_in_the_oracles():
    offenders = [
        path for path in sorted(SRC.rglob("*.py")) if "record_from_dict" in path.read_text()
    ]
    assert offenders == []
