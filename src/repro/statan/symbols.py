"""Project-wide symbol table: every function, method and class by
qualified name.

Phase one of the whole-program pass (DESIGN.md §10) walks each indexed
module once and records

* **functions** — module-level ``def``s as ``module.name``;
* **methods** — ``module.Class.name`` with the owning class recorded so
  ``self.helper()`` dispatch can resolve;
* **nested functions** — ``module.outer.<locals>.name``, flagged
  ``is_nested`` (they close over the enclosing frame and cannot be
  pickled by qualified name — the PAR rules lean on this);
* **classes** — base-class expressions kept as dotted strings so the
  call graph can chase one level of inheritance.

Resolution is name-based and *approximate*: a dotted import target is
matched against known qualified names by suffix, so ``from .helpers
import jitter`` inside ``repro.simulation`` finds
``repro.simulation.helpers.jitter`` without package-path arithmetic.
Dynamic constructs (``getattr``, function tables, ``exec``) are
invisible — see DESIGN.md §10 for the documented soundness holes.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import PurePosixPath
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing-only import cycle guard
    from .engine import ModuleContext

__all__ = ["FunctionInfo", "ClassInfo", "SymbolTable", "module_name_for"]


def module_name_for(label: str) -> str:
    """Dotted module name for a scan-relative file label.

    ``repro/ml/forest.py`` → ``repro.ml.forest``;
    ``repro/frames/__init__.py`` → ``repro.frames``.
    """
    parts = list(PurePosixPath(label).parts)
    if not parts:
        return ""
    last = parts[-1]
    if last.endswith(".py"):
        last = last[: -len(".py")]
    if last == "__init__":
        parts = parts[:-1]
    else:
        parts[-1] = last
    return ".".join(parts)


@dataclass
class FunctionInfo:
    """One ``def`` (function, method, or nested function)."""

    qualname: str
    module: str
    name: str
    path: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    class_name: str | None = None
    parent: str | None = None       # enclosing function qualname, if nested
    decorators: tuple[str, ...] = ()

    @property
    def is_nested(self) -> bool:
        return self.parent is not None

    @property
    def is_method(self) -> bool:
        return self.class_name is not None

    @property
    def params(self) -> tuple[str, ...]:
        args = self.node.args
        names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        if args.vararg:
            names.append(args.vararg.arg)
        if args.kwarg:
            names.append(args.kwarg.arg)
        return tuple(names)

    def span(self) -> tuple[int, int]:
        return (self.node.lineno, getattr(self.node, "end_lineno", self.node.lineno))


@dataclass
class ClassInfo:
    """One ``class`` statement and its directly declared methods."""

    qualname: str
    module: str
    name: str
    path: str
    bases: tuple[str, ...] = ()             # dotted base expressions, raw
    methods: dict[str, str] = field(default_factory=dict)  # bare -> qualname


def _dotted(node: ast.AST) -> str | None:
    """Source-level dotted text of a Name/Attribute chain (unresolved)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base else None
    return None


class SymbolTable:
    """All functions/classes across the indexed modules, by qualname."""

    def __init__(self) -> None:
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        #: (module, bare name) -> qualname for module-level functions.
        self.module_functions: dict[tuple[str, str], str] = {}
        #: bare method name -> sorted qualnames (approximate dispatch).
        self.methods_by_name: dict[str, list[str]] = {}
        #: (module, bare name) -> class qualname for module-level classes.
        self.module_classes: dict[tuple[str, str], str] = {}
        #: module -> sorted function qualnames defined in it.
        self.by_module: dict[str, list[str]] = {}

    # -- construction -------------------------------------------------------
    @classmethod
    def build(cls, modules: list["ModuleContext"]) -> "SymbolTable":
        table = cls()
        for ctx in sorted(modules, key=lambda m: m.path):
            table._index_module(ctx)
        for names in table.methods_by_name.values():
            names.sort()
        for names in table.by_module.values():
            names.sort()
        return table

    def _index_module(self, ctx: "ModuleContext") -> None:
        module = ctx.module
        for stmt in ctx.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(ctx, stmt, prefix=module)
            elif isinstance(stmt, ast.ClassDef):
                self._add_class(ctx, stmt, prefix=module)

    def _add_class(self, ctx: "ModuleContext", node: ast.ClassDef, prefix: str) -> None:
        qualname = f"{prefix}.{node.name}"
        bases = tuple(b for b in (_dotted(base) for base in node.bases) if b)
        info = ClassInfo(
            qualname=qualname,
            module=ctx.module,
            name=node.name,
            path=ctx.path,
            bases=bases,
        )
        self.classes[qualname] = info
        self.module_classes[(ctx.module, node.name)] = qualname
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method = self._add_function(
                    ctx, stmt, prefix=qualname, class_name=node.name
                )
                info.methods[stmt.name] = method.qualname
                self.methods_by_name.setdefault(stmt.name, []).append(method.qualname)

    def _add_function(
        self,
        ctx: "ModuleContext",
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        prefix: str,
        class_name: str | None = None,
    ) -> FunctionInfo:
        qualname = f"{prefix}.{node.name}"
        info = FunctionInfo(
            qualname=qualname,
            module=ctx.module,
            name=node.name,
            path=ctx.path,
            node=node,
            class_name=class_name,
            decorators=tuple(
                d for d in (_dotted(dec) for dec in node.decorator_list) if d
            ),
        )
        self.functions[qualname] = info
        self.by_module.setdefault(ctx.module, []).append(qualname)
        if class_name is None:
            self.module_functions[(ctx.module, node.name)] = qualname
        # Nested defs are symbols of their own (callable locally, never
        # picklable); one level of <locals> nesting is enough in practice.
        for stmt in ast.walk(node):
            if stmt is node or not isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            nested_qual = f"{qualname}.<locals>.{stmt.name}"
            if nested_qual in self.functions:
                continue
            self.functions[nested_qual] = FunctionInfo(
                qualname=nested_qual,
                module=ctx.module,
                name=stmt.name,
                path=ctx.path,
                node=stmt,
                class_name=class_name,
                parent=qualname,
            )
            self.by_module.setdefault(ctx.module, []).append(nested_qual)
        return info

    # -- queries ------------------------------------------------------------
    def resolve_dotted(self, dotted: str) -> list[str]:
        """Qualnames whose path matches ``dotted`` on a suffix boundary.

        ``helpers.jitter`` matches ``pkg.helpers.jitter``; exact matches
        win outright.  Classes resolve to their ``__init__`` when they
        have one (a constructor call enters that body).
        """
        if dotted in self.functions:
            return [dotted]
        if dotted in self.classes:
            init = self.classes[dotted].methods.get("__init__")
            return [init] if init else []
        tail = "." + dotted
        hits = sorted(q for q in self.functions if q.endswith(tail))
        if hits:
            return hits
        class_hits = sorted(q for q in self.classes if q.endswith(tail))
        out = []
        for qual in class_hits:
            init = self.classes[qual].methods.get("__init__")
            if init:
                out.append(init)
        return out

    def resolve_class(self, module: str, dotted: str) -> ClassInfo | None:
        """Class named by ``dotted`` as seen from ``module`` (local name
        or import-resolved dotted path), if indexed."""
        local = self.module_classes.get((module, dotted))
        if local:
            return self.classes[local]
        if dotted in self.classes:
            return self.classes[dotted]
        tail = "." + dotted
        hits = sorted(q for q in self.classes if q.endswith(tail))
        return self.classes[hits[0]] if hits else None

    def method_on(self, klass: ClassInfo, name: str) -> str | None:
        """Resolve ``name`` on ``klass`` or (one level of) its bases."""
        if name in klass.methods:
            return klass.methods[name]
        for base in klass.bases:
            base_cls = self.resolve_class(klass.module, base.split(".")[-1])
            if base_cls is not None and name in base_cls.methods:
                return base_cls.methods[name]
        return None

    def function_at(self, path: str, line: int) -> FunctionInfo | None:
        """Innermost indexed function whose span contains ``path:line``."""
        best: FunctionInfo | None = None
        best_size = -1
        for qualname in sorted(self.functions):
            info = self.functions[qualname]
            if info.path != path:
                continue
            lo, hi = info.span()
            if lo <= line <= hi:
                size = hi - lo
                if best is None or size < best_size:
                    best, best_size = info, size
        return best

    def iter_functions(self) -> Iterator[FunctionInfo]:
        for qualname in sorted(self.functions):
            yield self.functions[qualname]

    def __len__(self) -> int:
        return len(self.functions)
