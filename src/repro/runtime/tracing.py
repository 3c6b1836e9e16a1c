"""Span-based tracing: wall/CPU-timed spans, counters, JSONL export.

A :class:`Tracer` collects a forest of :class:`Span` objects.  Spans nest
via a context manager; each records wall time (``perf_counter``), CPU
time (``process_time``), structured attributes set at open or via
:meth:`Span.set`, and monotonic counters (:meth:`Span.add`).  Spans are
the library's only observation channel: DESIGN.md §8 lists every span
name with the attributes and counters it carries.

The export format is JSONL — one record per line, every record carrying
``schema``/``kind`` discriminators so downstream tooling can rely on the
field names (pinned by ``tests/runtime/test_tracing.py``):

* ``{"kind": "trace", "schema": 2, "spans": N}`` — header line;
* ``{"kind": "span", "schema": 2, "id", "parent", "name", "start",
  "wall_ms", "cpu_ms", "attributes", "counters"}`` — one per span,
  depth-first in start order (parents precede children);
* ``{"kind": "counters", "schema": 2, "counters": {...}}`` — trailing
  record for counts recorded outside any span (only when nonempty).

:func:`read_trace` parses an export back and :func:`summarize_trace`
rolls it up into self time per span name (``repro trace summarize``).

Tracing is observation only: spans never touch RNG state and never feed
back into any stage, so a traced run is bit-identical to an untraced one
(pinned by ``tests/runtime/test_trace_identity.py``).  The tracer keeps
one span stack and is meant to be driven from the orchestrating thread;
worker pools below an open span simply attribute their wall time to it.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from collections import Counter, defaultdict
from collections.abc import Iterator
from typing import NamedTuple

__all__ = [
    "Span",
    "SpanSummary",
    "Tracer",
    "TRACE_SCHEMA_VERSION",
    "read_trace",
    "summarize_trace",
]

TRACE_SCHEMA_VERSION = 2


class Span:
    """One timed, attributed, counted node in the trace tree."""

    __slots__ = (
        "name",
        "span_id",
        "parent",
        "attributes",
        "counters",
        "children",
        "start",
        "wall_ms",
        "cpu_ms",
        "_wall0",
        "_cpu0",
    )

    def __init__(
        self, name: str, span_id: int, parent: "Span | None", attributes: dict
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent = parent
        self.attributes = attributes
        self.counters: dict[str, int | float] = {}
        self.children: list[Span] = []
        self.start = time.time()
        self.wall_ms: float | None = None
        self.cpu_ms: float | None = None
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()

    def set(self, **attributes) -> None:
        """Set or overwrite structured attributes."""
        self.attributes.update(attributes)

    def add(self, counter: str, n: int | float = 1) -> None:
        """Increment a counter on this span."""
        self.counters[counter] = self.counters.get(counter, 0) + n

    def _close(self) -> None:
        self.wall_ms = (time.perf_counter() - self._wall0) * 1e3
        self.cpu_ms = (time.process_time() - self._cpu0) * 1e3

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_record(self) -> dict:
        """The pinned JSONL record for this span."""
        return {
            "schema": TRACE_SCHEMA_VERSION,
            "kind": "span",
            "id": self.span_id,
            "parent": self.parent.span_id if self.parent else None,
            "name": self.name,
            "start": self.start,
            "wall_ms": self.wall_ms,
            "cpu_ms": self.cpu_ms,
            "attributes": self.attributes,
            "counters": self.counters,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, id={self.span_id}, "
            f"children={len(self.children)}, counters={self.counters})"
        )


class Tracer:
    """In-memory span collector with JSONL export."""

    def __init__(self) -> None:
        self.roots: list[Span] = []
        self.loose_counters: dict[str, int | float] = {}
        self._stack: list[Span] = []
        self._next_id = 1

    @property
    def current(self) -> Span | None:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name: str, **attributes) -> Iterator[Span]:
        """Open a child span of the current span (or a new root)."""
        parent = self.current
        span = Span(name, self._next_id, parent, attributes)
        self._next_id += 1
        if parent is None:
            self.roots.append(span)
        else:
            parent.children.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span._close()
            self._stack.pop()

    def count(self, counter: str, n: int | float = 1) -> None:
        """Increment a counter on the current span (or the loose pool)."""
        target = self.current
        if target is None:
            self.loose_counters[counter] = (
                self.loose_counters.get(counter, 0) + n
            )
        else:
            target.add(counter, n)

    def spans(self) -> Iterator[Span]:
        """Every collected span, depth-first across roots."""
        for root in self.roots:
            yield from root.walk()

    def to_records(self) -> list[dict]:
        """Header + span records (+ loose counters), export order."""
        records: list[dict] = [
            {
                "schema": TRACE_SCHEMA_VERSION,
                "kind": "trace",
                "spans": sum(1 for _ in self.spans()),
            }
        ]
        records.extend(span.to_record() for span in self.spans())
        if self.loose_counters:
            records.append(
                {
                    "schema": TRACE_SCHEMA_VERSION,
                    "kind": "counters",
                    "counters": self.loose_counters,
                }
            )
        return records

    def export_jsonl(self, path: str | Path) -> Path:
        """Write the trace to ``path`` as JSONL; returns the path."""
        path = Path(path)
        with path.open("w", encoding="utf-8") as fh:
            for record in self.to_records():
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        return path


def read_trace(path: str | Path) -> list[dict]:
    """Parse a JSONL trace back into its records.

    A line that is not a JSON object raises ``ValueError`` naming
    ``path:line``.
    """
    records = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{lineno}: malformed trace record: {exc.msg}"
                ) from None
            if not isinstance(record, dict):
                raise ValueError(
                    f"{path}:{lineno}: trace record is not a JSON object"
                )
            records.append(record)
    return records


class SpanSummary(NamedTuple):
    """Every span of one name in a trace, rolled up."""

    name: str
    count: int
    total_ms: float
    self_ms: float
    counters: dict[str, int | float]


def summarize_trace(records: list[dict]) -> list[SpanSummary]:
    """One :class:`SpanSummary` per span name, largest self time first.

    A span's self time is its wall time minus its children's wall time,
    so the self times of every span sum to the roots' wall time.
    """
    spans = [record for record in records if record["kind"] == "span"]
    child_ms: Counter[int] = Counter()
    by_name: defaultdict[str, list[dict]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            child_ms[span["parent"]] += span["wall_ms"]
        by_name[span["name"]].append(span)
    summaries = []
    for name, group in by_name.items():
        counters: Counter[str] = Counter()
        for span in group:
            counters.update(span["counters"])
        summaries.append(
            SpanSummary(
                name,
                len(group),
                sum(span["wall_ms"] for span in group),
                sum(span["wall_ms"] - child_ms[span["id"]] for span in group),
                dict(sorted(counters.items())),
            )
        )
    return sorted(summaries, key=lambda row: (-row.self_ms, row.name))
