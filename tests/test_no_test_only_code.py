"""Every definition in ``src/repro`` must be used outside ``tests/``.

A function, class or method that only tests call is code the study
never runs, kept and linted for nobody.  The check is by name over
``src/``, ``examples/``, ``benchmarks/`` and ``bench/``: a module-level
function or class is used when its name appears as a name or an
attribute, a method only when it appears as an attribute, and a dotted
string constant in ``bench/`` counts as its parts, because
``bench/trace.py``'s wrap table names its targets as ``Class.method``.
Dunder methods, ``visit_*`` methods (``ast.NodeVisitor`` calls them by
name) and the statan rules that ``register``/``register_project`` add
are exempt.  A helper that only a test needs belongs in ``tests/``.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
USERS = ("src", "examples", "benchmarks", "bench")
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+")
REGISTRARS = {"register", "register_project"}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _uses() -> tuple[set[str], set[str]]:
    """Names and attributes that appear in the non-test code."""
    names: set[str] = set()
    attributes: set[str] = set()
    for top in USERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(_parse(path)):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    attributes.add(node.attr)
                elif (
                    top == "bench"
                    and isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and DOTTED.fullmatch(node.value)
                ):
                    attributes.update(node.value.split("."))
    return names, attributes


def _exempt(node: ast.AST) -> bool:
    name = node.name
    if name.startswith("__") and name.endswith("__"):
        return True
    if name.startswith("visit_"):
        return True
    return any(
        isinstance(decorator, ast.Name) and decorator.id in REGISTRARS
        for decorator in getattr(node, "decorator_list", ())
    )


def _definitions():
    """Yield ``(module path, qualified name, is_method)`` for each definition."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).as_posix()
        for node in _parse(path).body:
            if not isinstance(node, defs) or _exempt(node):
                continue
            yield module, node.name, False
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, defs[:2]) and not _exempt(member):
                        yield module, f"{node.name}.{member.name}", True


def test_every_definition_is_used_outside_tests():
    names, attributes = _uses()
    unused = []
    for module, qualname, is_method in _definitions():
        name = qualname.rsplit(".", 1)[-1]
        used = name in attributes or (not is_method and name in names)
        if not used:
            unused.append(f"{module} {qualname}")
    assert unused == [], "definitions only tests use:\n" + "\n".join(unused)
