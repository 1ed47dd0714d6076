"""Every attribute a class in ``src/repro`` stores on ``self`` must be read.

An attribute that is written and never read is a second, dead count of
something: the transports and the data buffer used to keep plain-int
tallies beside the ``obs`` counters on the next line, and nothing read
them.  The check is by name over ``src/``, ``examples/``,
``benchmarks/`` and ``bench/``.  A class stores an attribute when one of
its methods assigns ``self.<name>`` (plain, augmented or annotated).
The attribute is read when its name appears anywhere in those trees as
an attribute load (``obj.<name>``, ``self.<name>[key] = ...`` included)
or as a string constant, the form ``getattr`` and ``bench/trace.py``'s
tables use.  Reads in ``tests/`` do not count: a count that only a test
reads belongs in an ``obs`` counter the test can collect.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
USERS = ("src", "examples", "benchmarks", "bench")


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _reads(tree: ast.AST) -> set[str]:
    """Attribute names loaded, and string constants, in ``tree``."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def _stores(cls: ast.ClassDef) -> set[str]:
    """Names ``cls``'s methods assign on ``self``."""
    names: set[str] = set()
    for method in cls.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(method):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for element in ast.walk(target):
                    if (
                        isinstance(element, ast.Attribute)
                        and isinstance(element.ctx, ast.Store)
                        and isinstance(element.value, ast.Name)
                        and element.value.id == "self"
                    ):
                        names.add(element.attr)
    return names


def _write_only(sources: dict[str, ast.Module], read: set[str]) -> list[str]:
    """``module Class.attribute`` for each stored attribute not in ``read``."""
    out = []
    for module, tree in sources.items():
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                out += [
                    f"{module} {cls.name}.{name}"
                    for name in sorted(_stores(cls) - read)
                ]
    return out


def test_every_stored_attribute_is_read_outside_tests():
    read: set[str] = set()
    for top in USERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            read |= _reads(_parse(path))
    sources = {
        path.relative_to(PACKAGE).as_posix(): _parse(path)
        for path in sorted(PACKAGE.rglob("*.py"))
    }
    unread = _write_only(sources, read)
    assert unread == [], "attributes stored on self and read only by tests:\n" + "\n".join(
        unread
    )


def test_stores_are_self_attributes_in_methods():
    source = """
class A:
    counter = 0

    def __init__(self, other):
        self.a = 1
        self.b: int = 2
        self.c += 1
        self.d, (self.e, _) = 3, (4, 5)
        self.f[0] = 6
        other.g = 7
        h = self.i
"""
    (cls,) = ast.parse(source).body
    assert _stores(cls) == {"a", "b", "c", "d", "e"}


def test_a_load_or_a_string_constant_reads_an_attribute():
    tree = ast.parse(
        "x = obj.loaded\n"
        "self.mutated[k] = v\n"
        "getattr(obj, 'by_name')\n"
        "obj.written = 1\n"
        "obj.bumped += 1\n"
    )
    assert _reads(tree) == {"loaded", "mutated", "by_name"}


def test_an_attribute_read_nowhere_is_named():
    sources = {
        "m.py": ast.parse(
            "class A:\n"
            "    def __init__(self):\n"
            "        self.used = 0\n"
            "        self.unused = 0\n"
            "    def bump(self):\n"
            "        self.unused += 1\n"
            "        return self.used\n"
        )
    }
    read = set().union(*(_reads(tree) for tree in sources.values()))
    assert _write_only(sources, read) == ["m.py A.unused"]
