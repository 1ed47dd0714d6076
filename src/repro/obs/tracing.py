"""Span-based tracing: a navigable wall-time tree for pipeline phases.

``with trace("ingest.chunk"):`` opens a span under whatever span is
currently active; spans with the same name under the same parent are
*aggregated* (call count + total wall time), so tracing a per-chunk or
per-day hot path stays O(distinct span names) in memory no matter how
many times it fires.

The tracer renders three views: an indented tree (``render``), the
top-N slowest aggregated spans (``top_slowest``), and a JSON document
(``to_json``) for archival next to the metrics export.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator

__all__ = ["SpanNode", "Tracer", "NullTracer"]


class SpanNode:
    """One aggregated node of the span tree."""

    __slots__ = ("name", "calls", "total_seconds", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.total_seconds = 0.0
        self.children: dict[str, SpanNode] = {}

    @property
    def child_seconds(self) -> float:
        return sum(c.total_seconds for c in self.children.values())

    @property
    def self_seconds(self) -> float:
        """Wall time spent in this span outside any child span."""
        return max(0.0, self.total_seconds - self.child_seconds)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "calls": self.calls,
            "total_seconds": self.total_seconds,
            "self_seconds": self.self_seconds,
            "children": [c.to_json() for c in self.children.values()],
        }


class Tracer:
    """Aggregating tracer with a context-manager API."""

    def __init__(self) -> None:
        self.root = SpanNode("")
        self._stack: list[SpanNode] = [self.root]

    @contextmanager
    def trace(self, name: str):
        parent = self._stack[-1]
        node = parent.children.get(name)
        if node is None:
            node = parent.children[name] = SpanNode(name)
        self._stack.append(node)
        started = time.perf_counter()
        try:
            yield node
        finally:
            node.calls += 1
            node.total_seconds += time.perf_counter() - started
            self._stack.pop()

    def reset(self) -> None:
        self.root = SpanNode("")
        self._stack = [self.root]

    # -- navigation ------------------------------------------------------
    def spans(self) -> Iterator[tuple[str, SpanNode]]:
        """Depth-first (dotted-path, node) pairs over the whole tree."""

        def walk(node: SpanNode, prefix: str) -> Iterator[tuple[str, SpanNode]]:
            for child in node.children.values():
                path = f"{prefix}/{child.name}" if prefix else child.name
                yield path, child
                yield from walk(child, path)

        yield from walk(self.root, "")

    def find(self, name: str) -> SpanNode | None:
        """First span anywhere in the tree with this exact name."""
        for _path, node in self.spans():
            if node.name == name:
                return node
        return None

    def top_slowest(self, n: int = 10) -> list[tuple[str, SpanNode]]:
        """The ``n`` aggregated spans with the largest *self* time."""
        ranked = sorted(self.spans(), key=lambda kv: -kv[1].self_seconds)
        return ranked[:n]

    # -- rendering -------------------------------------------------------
    def render(self) -> str:
        """Indented span tree: name, call count, total and self time."""
        lines = [f"{'span':<52} {'calls':>8} {'total':>10} {'self':>10}"]

        def walk(node: SpanNode, depth: int) -> None:
            for child in node.children.values():
                label = "  " * depth + child.name
                lines.append(
                    f"{label:<52} {child.calls:>8} "
                    f"{child.total_seconds:>9.3f}s {child.self_seconds:>9.3f}s"
                )
                walk(child, depth + 1)

        walk(self.root, 0)
        return "\n".join(lines)

    def render_slowest(self, n: int = 10) -> str:
        lines = [f"{'span (by self time)':<52} {'calls':>8} {'self':>10} {'total':>10}"]
        for path, node in self.top_slowest(n):
            lines.append(
                f"{path:<52} {node.calls:>8} "
                f"{node.self_seconds:>9.3f}s {node.total_seconds:>9.3f}s"
            )
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {"spans": [c.to_json() for c in self.root.children.values()]}


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer(Tracer):
    """Tracer that records nothing — the global default."""

    def trace(self, name: str):  # noqa: ARG002
        return _NULL_SPAN
