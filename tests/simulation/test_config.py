"""Every ``SimulationConfig`` field must change something.

A field that no code reads looks like a knob but moves no output, so a
study "run with" it silently measures the default.  The check is by
name: each field must be read as an attribute (``config.<field>``)
somewhere in the package outside ``config.py``.
"""

import ast
import dataclasses
from pathlib import Path

import repro
from repro.simulation.config import SimulationConfig

PACKAGE = Path(repro.__file__).resolve().parent
CONFIG = PACKAGE / "simulation" / "config.py"


def _attributes_read(paths) -> set[str]:
    names: set[str] = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def test_every_field_is_read_outside_config():
    sources = sorted(p for p in PACKAGE.rglob("*.py") if p != CONFIG)
    read = _attributes_read(sources)
    unread = [f.name for f in dataclasses.fields(SimulationConfig) if f.name not in read]
    assert unread == [], f"SimulationConfig fields nothing reads: {unread}"
