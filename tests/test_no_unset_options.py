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

A ``@dataclass``'s defaulted fields are parameters of its generated
``__init__``, which its class name reaches as above, and so do ``cls(...)``
inside the class's classmethods and calls to a method that forwards its
``**kwargs`` into ``replace(self, ...)`` (``SimulationConfig.scaled``).  A
``replace(obj, name=...)`` call anywhere sets the field ``name`` of any
dataclass.  A ``default_factory`` field is an accumulator, not a
setting, and so is a field of a mutable dataclass that code outside
``tests/`` assigns as an attribute (``campaign.delivered_installs +=
1``): the object carries it as state, and its default is where the state
starts.  A frozen dataclass's fields cannot be assigned, so a store of
the same name is another object's (``buffer.retry_budget = ...`` is not
a ``FaultPlan``'s).  The wire records of ``platform/models.py`` are
skipped too: their fields are the upload format.

Two kinds of definition are skipped.  One whose name escapes as a value
-- an argument of a call other than ``isinstance``/``issubclass``, an
element of a list, tuple, set or dict literal, or the value of an
assignment or ``return`` -- because its callers cannot be found by name.
And one that no call outside ``tests/`` reaches, which is
``tests/test_no_test_only_code.py``'s business.
"""

import ast
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
USERS = ("src", "examples", "benchmarks", "bench")
TYPE_CHECKS = {"isinstance", "issubclass"}
WIRE_RECORDS = "platform/models.py"


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


def _annotation_nodes(tree: ast.AST) -> set[int]:
    """Ids of the nodes inside type annotations: a name in
    ``list[tuple[str, FaultPlan]]`` is a type, not a value."""
    out: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotation = node.annotation
        else:
            continue
        if annotation is not None:
            out.update(id(inner) for inner in ast.walk(annotation))
    return out


def _is_classmethod(function: ast.AST) -> bool:
    return isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
        _name(decorator) == "classmethod" for decorator in function.decorator_list
    )


def _scan():
    """Each callee name's call shapes, the names that escape as values,
    and the attribute names assigned anywhere.

    A ``cls(...)`` call inside a classmethod is filed under its class's
    name, and a ``replace(...)`` call under ``"replace"`` with its
    explicit keywords only: its first argument is the object copied.
    """
    calls = defaultdict(list)
    escaped: set[str] = set()
    stored: set[str] = set()
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
                for method in filter(_is_classmethod, cls.body):
                    for node in ast.walk(method):
                        if isinstance(node, ast.Call) and _name(node.func) == "cls":
                            calls[cls.name].append(_call_shape(node))
            annotations = _annotation_nodes(tree)
            for node in ast.walk(tree):
                if id(node) in annotations:
                    continue
                values: list[ast.AST] = []
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                    stored.add(node.attr)
                if isinstance(node, ast.Call):
                    name = _name(node.func)
                    if name == "replace":
                        _, keywords, _ = _call_shape(node)
                        calls[name].append((0, keywords, False))
                    elif name and not _is_super_init(node):
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
    return calls, escaped, stored


def _dataclass_decorator(cls: ast.ClassDef) -> ast.AST | None:
    for decorator in cls.decorator_list:
        if _name(decorator.func if isinstance(decorator, ast.Call) else decorator) == "dataclass":
            return decorator
    return None


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return _dataclass_decorator(cls) is not None


def _is_frozen(cls: ast.ClassDef) -> bool:
    decorator = _dataclass_decorator(cls)
    return isinstance(decorator, ast.Call) and any(
        keyword.arg == "frozen"
        and isinstance(keyword.value, ast.Constant)
        and keyword.value.value is True
        for keyword in decorator.keywords
    )


def _fields(cls: ast.ClassDef):
    """Each ``__init__`` field's name and whether it is a defaulted
    setting: ``None`` for a ``default_factory`` accumulator."""
    for statement in cls.body:
        if not (
            isinstance(statement, ast.AnnAssign)
            and isinstance(statement.target, ast.Name)
        ):
            continue
        if "ClassVar" in ast.unparse(statement.annotation):
            continue
        value = statement.value
        keywords = {}
        if isinstance(value, ast.Call) and _name(value.func) == "field":
            keywords = {keyword.arg: keyword.value for keyword in value.keywords}
            init = keywords.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
        if "default_factory" in keywords:
            yield statement.target.id, None
        else:
            defaulted = value is not None and (not keywords or "default" in keywords)
            yield statement.target.id, defaulted


def _field_parameters(cls: ast.ClassDef, stored: set[str]):
    """Each defaulted setting field and the fields before it, as
    :func:`_defaulted` gives a function's; a mutable dataclass's field
    named in ``stored`` is state."""
    state = set() if _is_frozen(cls) else stored
    return [
        (name, i)
        for i, (name, defaulted) in enumerate(_fields(cls))
        if defaulted and name not in state
    ]


def _forwarders(cls: ast.ClassDef) -> list[str]:
    """Methods that pass their ``**kwargs`` on to ``replace(self, ...)``."""
    out = []
    for method in cls.body:
        if not isinstance(method, ast.FunctionDef) or method.args.kwarg is None:
            continue
        kwarg = method.args.kwarg.arg
        for node in ast.walk(method):
            if (
                isinstance(node, ast.Call)
                and _name(node.func) == "replace"
                and any(
                    keyword.arg is None and _name(keyword.value) == kwarg
                    for keyword in node.keywords
                )
            ):
                out.append(method.name)
    return out


def _definitions(stored: set[str]):
    """Yield ``(module, label, callee names, defaulted parameters)``; a
    dataclass field named in ``stored`` is state, not a parameter."""
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).as_posix()
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield module, node.name, (node.name,), _defaulted(node, False)
            elif isinstance(node, ast.ClassDef):
                if _is_dataclass(node) and module != WIRE_RECORDS:
                    callees = (node.name, "replace", *_forwarders(node))
                    yield module, node.name, callees, _field_parameters(node, stored)
                for member in node.body:
                    if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        continue
                    if member.name == "__init__":
                        callees, label = (node.name,), node.name
                    else:
                        callees, label = (member.name,), f"{node.name}.{member.name}"
                    yield module, label, callees, _defaulted(member, True)


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
    calls, escaped, stored = _scan()
    unset = []
    for module, label, callees, parameters in _definitions(stored):
        if callees[0] in escaped or not calls.get(callees[0]):
            continue
        shapes = [shape for callee in callees for shape in calls.get(callee, ())]
        for name, before in parameters:
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


def _class(source: str) -> ast.ClassDef:
    (cls,) = ast.parse(source).body
    return cls


def test_dataclass_settings_are_defaulted_init_fields():
    cls = _class(
        """
@dataclass(frozen=True)
class Config:
    LIMIT: ClassVar[int] = 3
    seed: int
    rate: float = 0.5
    plan: Plan = Plan()
    chosen: int = field(default=2, repr=False)
    log: list = field(default_factory=list)
    cache: dict = field(default=None, init=False)
    after: int = 1
"""
    )
    assert _is_dataclass(cls)
    assert list(_fields(cls)) == [
        ("seed", False),
        ("rate", True),
        ("plan", True),
        ("chosen", True),
        ("log", None),
        ("after", True),
    ]
    # A frozen dataclass's field is never state: a store of its name is
    # some other object's.
    assert _is_frozen(cls)
    assert _field_parameters(cls, stored={"plan"}) == [
        ("rate", 1),
        ("plan", 2),
        ("chosen", 3),
        ("after", 5),
    ]
    mutable = _class(ast.unparse(cls).replace("@dataclass(frozen=True)", "@dataclass"))
    assert _is_dataclass(mutable) and not _is_frozen(mutable)
    assert _field_parameters(mutable, stored={"plan"}) == [
        ("rate", 1),
        ("chosen", 3),
        ("after", 5),
    ]
    assert not _is_dataclass(_class("class Plain:\n    rate: float = 0.5\n"))


def test_forwarders_pass_their_kwargs_to_replace():
    cls = _class(
        """
class Config:
    def scaled(self, **overrides):
        return replace(self, **overrides)

    def renamed(self, **overrides):
        return replace(self, name=overrides["name"])

    def other(self, *args):
        return replace(self, *args)
"""
    )
    assert _forwarders(cls) == ["scaled"]


def test_scan_files_classmethod_calls_and_replace_keywords(tmp_path, monkeypatch):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "m.py").write_text(
        """
class Config:
    @classmethod
    def small(cls):
        return cls(1, rate=0.1)

    def scaled(self, **overrides):
        return replace(self, **overrides)


def plans() -> list[tuple[str, Plan]]:
    return [("x", replace(make(), seed=3))]


def deliver(campaign):
    campaign.delivered += 1
"""
    )
    monkeypatch.setattr(sys.modules[__name__], "ROOT", tmp_path)
    calls, escaped, stored = _scan()
    assert calls["Config"] == [(1, frozenset({"rate"}), False)]
    # replace's own **overrides forwards, it sets nothing by itself.
    assert calls["replace"] == [(0, frozenset(), False), (0, frozenset({"seed"}), False)]
    # A name inside an annotation is a type, not an escaping value.
    assert "Plan" not in escaped
    # A field the program assigns is state, not a setting.
    assert stored == {"delivered"}
