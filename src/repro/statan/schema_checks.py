"""Schema-aware query checking (SCH001/SCH002).

The platform's store collections are declared once, in a
``SCHEMA_BY_COLLECTION``-style dict of ``RecordSchema`` constants
(:mod:`repro.frames.schema`).  Phase one extracts those declarations
statically (:func:`repro.statan.project.extract_schemas`); these rules
then resolve every ``store["collection"].find({...})``-shaped call
against the declared schema:

========  ==========================================================
SCH001    query literal uses an unknown field, a ``$op`` (the store
          answers plain equality only), or a literal value that
          cannot equal the field's declared kind
SCH002    ingest writes (``insert``/``insert_many`` dict literals) or
          row reads (``row["field"]`` on results of ``find``-family
          calls) touch fields the schema does not declare
========  ==========================================================

Resolution is deliberately narrow: the receiver must be a subscript
with a *string-literal* key naming a declared collection, so
``"text".find("x")`` and dynamic collection names never match.  Dict
literals only — queries built programmatically are invisible (precision
notes in DESIGN.md §10).
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterable, Iterator

from .callgraph import _body_walk
from .engine import ModuleContext, matches_tail
from .findings import Finding
from .project import SchemaInfo
from .rules import ProjectRule, register_project

if TYPE_CHECKING:  # pragma: no cover - typing-only import cycle guard
    from .project import ProjectContext

__all__ = ["SchemaQueryCheck", "SchemaFieldCheck"]

_NUMERIC_KINDS = ("float", "int", "bool")

#: Store methods that take a query dict as their first argument.
_QUERY_METHODS = ("find", "find_one", "find_views", "count")
#: Store methods whose results are schema-shaped rows.
_ROW_METHODS = ("find", "find_one", "find_views")


def _const_str(node: ast.AST | None) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _collection_call(
    node: ast.Call, project: "ProjectContext"
) -> tuple[str, str, SchemaInfo] | None:
    """Match ``<expr>["collection"].method(...)`` against the declared
    collections; returns (collection, method, schema) or None."""
    func = node.func
    if not isinstance(func, ast.Attribute) or not isinstance(
        func.value, ast.Subscript
    ):
        return None
    key = _const_str(func.value.slice)
    if key is None:
        return None
    schema = project.collections.get(key)
    if schema is None:
        return None
    return key, func.attr, schema


def _operand_kind(node: ast.AST) -> str | None:
    """Rough kind of a literal operand; None when not a plain literal."""
    if not isinstance(node, ast.Constant):
        return None
    value = node.value
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, int):
        return "int"
    if isinstance(value, float):
        return "float"
    if isinstance(value, str):
        return "str"
    return None


def _kind_mismatch(field_kind: str, operand_kind: str) -> bool:
    if field_kind in _NUMERIC_KINDS:
        return operand_kind == "str"
    if field_kind == "str":
        return operand_kind in _NUMERIC_KINDS
    return False


def _operator_keys(value: ast.AST) -> Iterator[tuple[ast.AST, str]]:
    """The ``$``-prefixed string keys of a dict-literal query value."""
    if not isinstance(value, ast.Dict):
        return
    for key_node in value.keys:
        op = _const_str(key_node)
        if op is not None and op.startswith("$"):
            yield key_node, op


def _operator_message(op: str) -> str:
    return f"query operator {op!r}: the store answers plain equality only"


class _SchemaRule(ProjectRule):
    """Shared finding helper for the SCH rules."""

    def _finding(
        self, ctx: ModuleContext, node: ast.AST, message: str
    ) -> Finding:
        line = getattr(node, "lineno", 1)
        return Finding(
            rule=self.id,
            severity=self.severity,
            path=ctx.path,
            line=line,
            col=getattr(node, "col_offset", 0),
            message=message,
            snippet=ctx.snippet(line),
        )


def _declared(schema: SchemaInfo) -> str:
    return f"schema '{schema.name}' ({schema.path}:{schema.line})"


@register_project
class SchemaQueryCheck(_SchemaRule):
    """SCH001: query literals must be satisfiable against the declared
    collection schema."""

    id = "SCH001"
    summary = "query literal inconsistent with the declared record schema"

    def check_project(self, project: "ProjectContext") -> Iterable[Finding]:
        for ctx in project.modules:
            for node in ast.walk(ctx.tree):
                if not isinstance(node, ast.Call):
                    continue
                yield from self._check_matching_positions(ctx, node)
                matched = _collection_call(node, project)
                if matched is None:
                    continue
                collection, method, schema = matched
                if method == "distinct":
                    fieldname = _const_str(node.args[0]) if node.args else None
                    if fieldname is not None and fieldname not in schema:
                        yield self._finding(
                            ctx, node,
                            f"distinct({fieldname!r}) on collection "
                            f"'{collection}': field is not declared by "
                            f"{_declared(schema)}",
                        )
                elif method in _QUERY_METHODS and node.args:
                    query = node.args[0]
                    if isinstance(query, ast.Dict):
                        yield from self._check_query(ctx, collection, schema, query)

    def _check_matching_positions(
        self, ctx: ModuleContext, node: ast.Call
    ) -> Iterator[Finding]:
        """Operator check for direct ``matching_positions(frame, {...})``
        calls — the frame's schema is rarely statically known, but a
        ``$op`` is wrong against any schema."""
        resolved = ctx.resolve(node.func) or (
            node.func.id if isinstance(node.func, ast.Name) else None
        )
        if not matches_tail(resolved, "matching_positions") or len(node.args) < 2:
            return
        query = node.args[1]
        if not isinstance(query, ast.Dict):
            return
        for value in query.values:
            for op_node, op in _operator_keys(value):
                yield self._finding(ctx, op_node, _operator_message(op))

    def _check_query(
        self,
        ctx: ModuleContext,
        collection: str,
        schema: SchemaInfo,
        query: ast.Dict,
    ) -> Iterator[Finding]:
        for key_node, value in zip(query.keys, query.values):
            fieldname = _const_str(key_node)
            if fieldname is None:
                continue
            field = schema.field(fieldname)
            if field is None:
                yield self._finding(
                    ctx, key_node,
                    f"query on collection '{collection}' filters unknown "
                    f"field {fieldname!r}; not declared by {_declared(schema)}",
                )
                continue
            if isinstance(value, ast.Dict):
                for op_node, op in _operator_keys(value):
                    yield self._finding(
                        ctx, op_node,
                        f"{_operator_message(op)} (field {fieldname!r} on "
                        f"collection '{collection}')",
                    )
                continue
            operand_kind = _operand_kind(value)
            if operand_kind and _kind_mismatch(field.kind, operand_kind):
                yield self._finding(
                    ctx, value,
                    f"field {fieldname!r} on collection '{collection}' "
                    f"is declared {field.kind!r} but is matched against "
                    f"a {operand_kind} literal; the filter can never "
                    "match",
                )


@register_project
class SchemaFieldCheck(_SchemaRule):
    """SCH002: fields written at ingest or read off query results must
    be declared by the collection's schema."""

    id = "SCH002"
    summary = "record field not declared by the collection schema"

    def check_project(self, project: "ProjectContext") -> Iterable[Finding]:
        # Ingest writes: insert/insert_many dict literals, tree-wide.
        for ctx in project.modules:
            for node in ast.walk(ctx.tree):
                if not isinstance(node, ast.Call):
                    continue
                matched = _collection_call(node, project)
                if matched is None:
                    continue
                collection, method, schema = matched
                if method == "insert" and node.args:
                    yield from self._check_document(
                        ctx, collection, schema, node.args[0]
                    )
                elif method == "insert_many" and node.args:
                    yield from self._check_documents(
                        ctx, collection, schema, node.args[0]
                    )
        # Row reads: subscript access on results of find-family calls,
        # tracked per function body (assignments and for-loop targets).
        for info in project.symbols.iter_functions():
            ctx = project.by_path.get(info.path)
            if ctx is None:
                continue
            yield from self._check_row_reads(project, ctx, info)

    def _check_document(
        self, ctx: ModuleContext, collection: str, schema: SchemaInfo, doc: ast.AST
    ) -> Iterator[Finding]:
        if not isinstance(doc, ast.Dict):
            return
        for key_node in doc.keys:
            fieldname = _const_str(key_node)
            if fieldname is not None and fieldname not in schema:
                yield self._finding(
                    ctx, key_node,
                    f"insert into collection '{collection}' writes field "
                    f"{fieldname!r} which {_declared(schema)} does not "
                    "declare; add the Field or drop the key",
                )

    def _check_documents(
        self, ctx: ModuleContext, collection: str, schema: SchemaInfo, docs: ast.AST
    ) -> Iterator[Finding]:
        elements: list[ast.AST] = []
        if isinstance(docs, (ast.List, ast.Tuple, ast.Set)):
            elements = list(docs.elts)
        elif isinstance(docs, (ast.ListComp, ast.GeneratorExp)):
            elements = [docs.elt]
        for element in elements:
            yield from self._check_document(ctx, collection, schema, element)

    def _check_row_reads(
        self, project: "ProjectContext", ctx: ModuleContext, info
    ) -> Iterator[Finding]:
        rows: dict[str, tuple[str, SchemaInfo]] = {}

        def row_source(value: ast.AST) -> tuple[str, SchemaInfo] | None:
            if not isinstance(value, ast.Call):
                return None
            matched = _collection_call(value, project)
            if matched is None:
                return None
            collection, method, schema = matched
            if method not in _ROW_METHODS:
                return None
            return collection, schema

        # Pass one: bind row variables.  `rows = c.find(...)` binds the
        # *list* name; iterating it (or the call directly) binds the
        # per-row loop target.  Bindings resolve in source order (the
        # walk itself is unordered).
        lists: dict[str, tuple[str, SchemaInfo]] = {}
        ordered = sorted(
            _body_walk(info.node),
            key=lambda n: (getattr(n, "lineno", 0), getattr(n, "col_offset", 0)),
        )
        for node in ordered:
            if isinstance(node, ast.Assign):
                source = row_source(node.value)
                for target in node.targets:
                    if not isinstance(target, ast.Name):
                        continue
                    if source is not None:
                        is_single = (
                            isinstance(node.value.func, ast.Attribute)
                            and node.value.func.attr == "find_one"
                        )
                        (rows if is_single else lists)[target.id] = source
                    else:
                        # Rebinding kills stale row/list typings.
                        rows.pop(target.id, None)
                        lists.pop(target.id, None)
            elif isinstance(node, (ast.For, ast.AsyncFor)) and isinstance(
                node.target, ast.Name
            ):
                source = row_source(node.iter)
                if source is None and isinstance(node.iter, ast.Name):
                    source = lists.get(node.iter.id)
                if source is not None:
                    rows[node.target.id] = source
        if not rows:
            return
        for node in _body_walk(info.node):
            if not (
                isinstance(node, ast.Subscript)
                and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name)
                and node.value.id in rows
            ):
                continue
            fieldname = _const_str(node.slice)
            if fieldname is None:
                continue
            collection, schema = rows[node.value.id]
            if fieldname not in schema:
                yield self._finding(
                    ctx, node,
                    f"row from collection '{collection}' is read at "
                    f"undeclared field {fieldname!r}; {_declared(schema)} "
                    "does not provide it",
                )
