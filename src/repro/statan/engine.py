"""Analysis engine: parse modules, run rules, apply suppressions.

Since PR 7 the engine runs **two phases** (DESIGN.md §10):

1. **Index** — every file is parsed once into a
   :class:`ModuleContext` (import alias table, suppression tables,
   dotted module name).  Files that fail to parse become ``SYNTAX``
   findings and drop out of the later phases.
2. **Check** — the per-file rules run over each indexed module
   (optionally fanned out across worker processes via
   :mod:`repro.parallel`, findings collected in submission order so the
   report is byte-identical at any worker count), then the project
   rules run once against the shared
   :class:`~repro.statan.project.ProjectContext` (symbol table, call
   graph, extracted schemas).

Suppression comments work identically for both kinds of rule:

* ``# statan: disable=RULE1,RULE2`` on the flagged line suppresses
  those rules for that line only;
* ``# statan: disable-file=RULE1`` anywhere in the file suppresses the
  rules for the whole file;
* the rule list may be ``ALL``.

Findings come back fingerprinted (see :mod:`repro.statan.findings`) so
the baseline layer can match them across line-number drift.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path, PurePosixPath
from typing import Iterable, Sequence

from .findings import SEVERITY_ERROR, Finding, assign_fingerprints
from .rules import all_project_rules, all_rules
from .symbols import module_name_for

__all__ = [
    "ModuleContext",
    "analyze_source",
    "analyze_tree",
    "index_paths",
    "iter_python_files",
    "collect_suppressions",
]

#: Pseudo-rule id attached to files that fail to parse.
SYNTAX_RULE = "SYNTAX"

_DISABLE_RE = re.compile(
    r"#\s*statan:\s*disable(?P<scope>-file)?\s*=\s*(?P<rules>[A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)"
)


def collect_suppressions(source: str) -> tuple[dict[int, set[str]], set[str]]:
    """Return (line -> suppressed rule ids, file-wide rule ids)."""
    per_line: dict[int, set[str]] = {}
    per_file: set[str] = set()
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _DISABLE_RE.search(line)
        if not match:
            continue
        rules = {part.strip() for part in match.group("rules").split(",")}
        if match.group("scope"):
            per_file |= rules
        else:
            per_line.setdefault(lineno, set()).update(rules)
    return per_line, per_file


def _collect_imports(tree: ast.AST) -> dict[str, str]:
    """Map local names to the dotted modules/objects they refer to.

    Relative imports are normalised by dropping the leading dots, so
    ``from .. import obs`` maps ``obs`` to ``obs`` and rules match on
    dotted-name *tails*.
    """
    table: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    table[alias.asname] = alias.name
                else:
                    # `import numpy.random` binds only the root name.
                    root = alias.name.split(".")[0]
                    table[root] = root
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                dotted = f"{base}.{alias.name}" if base else alias.name
                table[alias.asname or alias.name] = dotted
    return table


class ModuleContext:
    """Everything a rule needs to analyse one module."""

    def __init__(self, path: str, source: str, tree: ast.AST) -> None:
        self.path = path
        self.lines = source.splitlines()
        self.tree = tree
        self.segments = PurePosixPath(path).parts
        self.imports = _collect_imports(tree)
        self.module = module_name_for(path)
        self.suppressions = collect_suppressions(source)
        #: Absolute source path, set by index_paths (worker re-reads).
        self.source_file = path

    # -- helpers rules lean on ------------------------------------------------
    def snippet(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def resolve(self, node: ast.AST) -> str | None:
        """Dotted name of a Name/Attribute chain with aliases expanded,
        or None when the chain roots in a local (unimported) name."""
        if isinstance(node, ast.Name):
            return self.imports.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self.resolve(node.value)
            if base is None:
                return None
            return f"{base}.{node.attr}"
        return None

    def in_package(self, names: Iterable[str]) -> bool:
        wanted = set(names)
        return any(segment in wanted for segment in self.segments)


def matches_tail(resolved: str | None, tail: str) -> bool:
    """True when ``resolved`` is ``tail`` or ends with ``.tail`` on a
    segment boundary (``repro.obs.configure`` matches ``obs.configure``,
    ``myobs.configure`` does not)."""
    if resolved is None:
        return False
    return resolved == tail or resolved.endswith("." + tail)


def _load_rule_modules() -> None:
    # Rules register on import; deferred to avoid cycles at module load.
    from . import checks, project_checks, schema_checks  # noqa: F401


def _syntax_finding(path: str, exc: SyntaxError) -> Finding:
    return Finding(
        rule=SYNTAX_RULE,
        severity=SEVERITY_ERROR,
        path=path,
        line=exc.lineno or 1,
        col=(exc.offset or 1) - 1,
        message=f"file does not parse: {exc.msg}",
    )


def _check_module(ctx: ModuleContext) -> list[Finding]:
    """Run every per-file rule over one parsed module, suppressions
    applied.  Findings are *not* fingerprinted here (callers batch that)."""
    per_line, per_file = ctx.suppressions
    findings: list[Finding] = []
    for rule in all_rules():
        for finding in rule.check(ctx):
            if finding.rule in per_file or "ALL" in per_file:
                continue
            line_rules = per_line.get(finding.line, set())
            if finding.rule in line_rules or "ALL" in line_rules:
                continue
            findings.append(finding)
    return findings


def analyze_source(source: str, path: str = "<snippet>") -> list[Finding]:
    """Analyse one module's source with the per-file rules; returns
    fingerprinted findings with suppressions already applied."""
    _load_rule_modules()
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return assign_fingerprints([_syntax_finding(path, exc)])
    ctx = ModuleContext(path, source, tree)
    return assign_fingerprints(_check_module(ctx))


def iter_python_files(paths: Sequence[str | Path]) -> list[tuple[Path, str]]:
    """Expand files/directories into (absolute file, relative label)
    pairs.  Directory trees are walked in sorted order so reports and
    fingerprints are independent of filesystem enumeration order."""
    out: list[tuple[Path, str]] = []
    for raw in paths:
        root = Path(raw)
        if root.is_dir():
            for file in sorted(root.rglob("*.py")):
                out.append((file, file.relative_to(root).as_posix()))
        else:
            out.append((root, root.name))
    return out


def index_paths(
    pairs: Sequence[tuple[Path, str]],
) -> tuple[list[ModuleContext], list[Finding]]:
    """Phase one: parse every file once.  Returns the indexed modules
    and the (unfingerprinted) SYNTAX findings for files that failed."""
    modules: list[ModuleContext] = []
    syntax: list[Finding] = []
    for file, label in pairs:
        source = file.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source)
        except SyntaxError as exc:
            syntax.append(_syntax_finding(label, exc))
            continue
        ctx = ModuleContext(label, source, tree)
        ctx.source_file = str(file)
        modules.append(ctx)
    return modules, syntax


def _lint_chunk(chunk: tuple[tuple[str, str], ...]) -> list[Finding]:
    """Per-file worker job: re-read and check a chunk of files.

    Module-level (picklable) and seed-free by construction — the rules
    are pure functions of the source text, so chunk results concatenated
    in submission order equal the serial pass byte for byte.
    """
    findings: list[Finding] = []
    for file, label in chunk:
        findings.extend(
            analyze_source(Path(file).read_text(encoding="utf-8"), path=label)
        )
    return findings


def _per_file_findings(
    modules: list[ModuleContext], n_jobs: int | None
) -> list[Finding]:
    """Phase two (per-file): serial over the already-parsed modules, or
    fanned out in chunks through :mod:`repro.parallel` with
    deterministic (submission-order) collection."""
    resolved = 1
    if n_jobs is None or n_jobs != 1:
        from ..parallel import resolve_n_jobs

        resolved = resolve_n_jobs(n_jobs)
    if resolved > 1 and len(modules) >= 2:
        from ..parallel import parallel_map

        # Chunk to amortise pickling; chunk count is a pure function of
        # the file and worker counts, so output order never varies.
        n_chunks = min(len(modules), resolved * 4)
        chunks: list[list[tuple[str, str]]] = [[] for _ in range(n_chunks)]
        for i, ctx in enumerate(modules):
            chunks[i % n_chunks].append((ctx.source_file, ctx.path))
        results = parallel_map(
            _lint_chunk,
            [(tuple(chunk),) for chunk in chunks if chunk],
            n_jobs=resolved,
        )
        findings: list[Finding] = []
        for chunk_findings in results:
            findings.extend(chunk_findings)
        return findings
    findings = []
    for ctx in modules:
        findings.extend(assign_fingerprints(_check_module(ctx)))
    return findings


def analyze_project(modules: list[ModuleContext]) -> tuple[list[Finding], dict]:
    """Phase two (whole-program): run every project rule against the
    shared ProjectContext; returns (fingerprinted findings, stats)."""
    _load_rule_modules()
    from .project import ProjectContext

    project = ProjectContext(modules)
    findings: list[Finding] = []
    for rule in all_project_rules():
        for finding in rule.check_project(project):
            if not project.is_suppressed(finding):
                findings.append(finding)
    return assign_fingerprints(findings), project.stats()


def analyze_tree(
    paths: Sequence[str | Path],
    *,
    n_jobs: int | None = None,
    per_file_labels: set[str] | None = None,
) -> tuple[list[Finding], dict]:
    """Full two-phase analysis of every ``*.py`` under ``paths``.

    ``per_file_labels`` (``lint --changed``) restricts the per-file
    rules to that subset of file labels; the project pass always indexes
    and checks the whole tree, since call graphs and schema bindings
    cross file boundaries.  Returns findings sorted by
    (path, line, col, rule) plus project stats for the reporters.
    """
    _load_rule_modules()
    pairs = iter_python_files(paths)
    modules, syntax = index_paths(pairs)

    scope = modules
    if per_file_labels is not None:
        scope = [ctx for ctx in modules if ctx.path in per_file_labels]

    findings = assign_fingerprints(syntax)
    findings.extend(_per_file_findings(scope, n_jobs))

    stats = {
        "files": len(pairs),
        "files_checked_per_file": len(scope),
    }
    if modules:
        project_findings, project_stats = analyze_project(modules)
        findings.extend(project_findings)
        stats.update(project_stats)
    return sorted(findings, key=Finding.sort_key), stats
