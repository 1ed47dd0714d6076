"""Every defaulted parameter in ``src/repro`` must be set outside ``tests/``.

A parameter whose default is the only value any caller uses is a
constant dressed as an option: the branches its other values select are
code the study never runs.  The check is by name over ``src/``,
``examples/``, ``benchmarks/`` and ``bench/``.  A call reaches a
definition when its callee has the definition's name, as a bare name or
an attribute: the class name for ``__init__``, and ``super().__init__``
inside a subclass for each of its bases.  The call sets a defaulted
parameter when it passes it by keyword, passes more positional
arguments than precede it (``self``/``cls`` not counted), or passes
``*args``/``**kwargs``.

Two kinds of definition are skipped.  One whose name escapes as a value
-- an argument of a call other than ``isinstance``/``issubclass``, an
element of a list, tuple, set or dict literal, or the value of an
assignment or ``return`` -- because its callers cannot be found by name.
And one that no call outside ``tests/`` reaches, which is
``tests/test_no_test_only_code.py``'s business.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
USERS = ("src", "examples", "benchmarks", "bench")
TYPE_CHECKS = {"isinstance", "issubclass"}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _call_shape(call: ast.Call) -> tuple[int, frozenset[str], bool]:
    """Positional count, keyword names and whether ``call`` unpacks."""
    unpacks = any(isinstance(arg, ast.Starred) for arg in call.args) or any(
        keyword.arg is None for keyword in call.keywords
    )
    keywords = frozenset(keyword.arg for keyword in call.keywords if keyword.arg)
    return len(call.args), keywords, unpacks


def _is_super_init(call: ast.Call) -> bool:
    func = call.func
    return (
        isinstance(func, ast.Attribute)
        and func.attr == "__init__"
        and isinstance(func.value, ast.Call)
        and isinstance(func.value.func, ast.Name)
        and func.value.func.id == "super"
    )


def _scan():
    """Each callee name's call shapes, and the names that escape as values."""
    calls = defaultdict(list)
    escaped: set[str] = set()
    for top in USERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = _parse(path)
            for cls in ast.walk(tree):
                if not isinstance(cls, ast.ClassDef):
                    continue
                bases = [_name(base) for base in cls.bases]
                for node in ast.walk(cls):
                    if isinstance(node, ast.Call) and _is_super_init(node):
                        for base in filter(None, bases):
                            calls[base].append(_call_shape(node))
            for node in ast.walk(tree):
                values: list[ast.AST] = []
                if isinstance(node, ast.Call):
                    name = _name(node.func)
                    if name and not _is_super_init(node):
                        calls[name].append(_call_shape(node))
                    if name not in TYPE_CHECKS:
                        values += node.args + [keyword.value for keyword in node.keywords]
                elif isinstance(node, (ast.List, ast.Tuple, ast.Set)):
                    values += node.elts
                elif isinstance(node, ast.Dict):
                    values += [key for key in node.keys if key is not None] + node.values
                elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.Return)):
                    values.append(node.value)
                for value in values:
                    if isinstance(value, ast.Starred):
                        value = value.value
                    if name := _name(value):
                        escaped.add(name)
    return calls, escaped


def _definitions():
    """Yield ``(module, label, callee name, function, is_method)``."""
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).as_posix()
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield module, node.name, node.name, node, False
            elif isinstance(node, ast.ClassDef):
                for member in node.body:
                    if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        continue
                    if member.name == "__init__":
                        yield module, node.name, node.name, member, True
                    else:
                        label = f"{node.name}.{member.name}"
                        yield module, label, member.name, member, True


def _defaulted(function: ast.FunctionDef, is_method: bool):
    """Each defaulted parameter's name and the number of positional
    parameters before it (``None`` if keyword-only), ``self``/``cls`` not
    counted."""
    args = function.args
    positional = [arg.arg for arg in args.posonlyargs + args.args]
    static = any(_name(d) == "staticmethod" for d in function.decorator_list)
    if is_method and not static:
        positional = positional[1:]
    first_default = len(positional) - len(args.defaults)
    out = [(name, i) for i, name in enumerate(positional) if i >= first_default]
    out += [
        (arg.arg, None)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]
    return out


def _is_set(name: str, before: int | None, shapes) -> bool:
    return any(
        unpacks or name in keywords or (before is not None and n_positional > before)
        for n_positional, keywords, unpacks in shapes
    )


def test_every_defaulted_parameter_is_set_outside_tests():
    calls, escaped = _scan()
    unset = []
    for module, label, callee, function, is_method in _definitions():
        shapes = calls.get(callee)
        if not shapes or callee in escaped:
            continue
        for name, before in _defaulted(function, is_method):
            if not _is_set(name, before, shapes):
                unset.append(f"{module} {label}({name})")
    assert unset == [], "defaulted parameters no caller outside tests/ sets:\n" + "\n".join(unset)


def test_defaulted_parameters_skip_self_and_keep_keyword_only():
    source = """
class A:
    def f(self, a, b=1, *args, c, d=2, **kwargs): ...

    @staticmethod
    def g(a=0, b=1): ...
"""
    f, g = ast.parse(source).body[0].body
    assert _defaulted(f, True) == [("b", 1), ("d", None)]
    assert _defaulted(g, True) == [("a", 0), ("b", 1)]


def test_a_call_sets_by_keyword_by_position_or_by_unpacking():
    def shapes(*calls):
        return [_call_shape(ast.parse(call).body[0].value) for call in calls]

    assert not _is_set("b", 1, shapes("f(1)", "f(a=1)", "f(1, c=3)"))
    assert _is_set("b", 1, shapes("f(1)", "f(1, 2)"))
    assert _is_set("b", 1, shapes("f(a=1, b=2)"))
    assert _is_set("b", 1, shapes("f(*values)"))
    assert _is_set("b", 1, shapes("f(1, **options)"))
    # A keyword-only parameter is never set by position.
    assert not _is_set("d", None, shapes("f(1, 2, 3, 4)"))
    assert _is_set("d", None, shapes("f(1, d=4)"))
