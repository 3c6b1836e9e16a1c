"""The structured run context threaded through every stage.

A :class:`RunContext` is what observes a run: an optional
:class:`~repro.runtime.tracing.Tracer` (``None`` = tracing disabled, the
default).  Spans, with their attributes and counters, are the only
observation channel.

Every stage accepts a context and defaults to :data:`NULL_CONTEXT`, a
stateless singleton whose ``span``/``count`` are no-ops, so
un-contexted library use pays one attribute check per instrumentation
point.  Tracing is observation only: no stage reads its own telemetry
back, and anything stages share (the ranker, the analysis cache) is
passed to them explicitly — which is what keeps traced and untraced runs
bit-identical.
"""

from __future__ import annotations

from contextlib import AbstractContextManager
from pathlib import Path

from .tracing import Span, Tracer

__all__ = ["RunContext", "NULL_CONTEXT"]


class _NullSpan:
    """Inert span: accepts sets/adds, records nothing."""

    __slots__ = ()

    def set(self, **attributes) -> None:
        pass

    def add(self, counter: str, n: int | float = 1) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _NullSpanContext(AbstractContextManager):
    """Stateless, reentrant no-op replacement for ``Tracer.span``."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return _NULL_SPAN

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN_CONTEXT = _NullSpanContext()


class RunContext:
    """The optional tracer for one run."""

    __slots__ = ("tracer",)

    def __init__(self) -> None:
        self.tracer: Tracer | None = None

    def ensure_tracer(self) -> Tracer:
        """Attach (if needed) and return the tracer."""
        if self.tracer is None:
            self.tracer = Tracer()
        return self.tracer

    def span(
        self, name: str, **attributes
    ) -> AbstractContextManager[Span | _NullSpan]:
        """Open a traced span, or a shared no-op when tracing is off."""
        if self.tracer is None:
            return _NULL_SPAN_CONTEXT
        return self.tracer.span(name, **attributes)

    def count(self, counter: str, n: int | float = 1) -> None:
        """Increment a counter on the current span (no-op untraced)."""
        if self.tracer is not None:
            self.tracer.count(counter, n)

    def export_trace(self, path: str | Path) -> Path:
        """Export the collected trace as JSONL."""
        if self.tracer is None:
            raise ValueError("no tracer attached to this context")
        return self.tracer.export_jsonl(path)


class _NullContext(RunContext):
    """The shared do-nothing context (module singleton)."""

    __slots__ = ()

    def ensure_tracer(self) -> Tracer:
        raise ValueError(
            "cannot attach a tracer to the null context; build a real "
            "RunContext instead"
        )

    def span(self, name: str, **attributes):
        return _NULL_SPAN_CONTEXT

    def count(self, counter: str, n: int | float = 1) -> None:
        pass


NULL_CONTEXT: RunContext = _NullContext()
