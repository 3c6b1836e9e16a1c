"""Cyclic-collector policy for the bulk passes.

Extraction, analysis, DP cleaning, ingest and resume build and re-read a
large, long-lived web of records, pairs, trigger indexes and scores.
Every object in that web is freed by reference counting — nothing the
passes allocate forms a reference cycle, which
``tests/runtime/test_collector.py`` pins as an invariant — so CPython's
cyclic collector never finds garbage there.  It still walks the whole
heap each time allocations cross its thresholds, a large share of each
pass (DESIGN.md §6, "Collector policy", has the measurements).

:func:`collector_paused` turns it off for the duration of one outermost
bulk call.  This module is the only place in ``repro`` that switches the
collector (``scripts/check_layering.py`` enforces that).
"""

from __future__ import annotations

import functools
import gc
from collections.abc import Callable
from typing import ParamSpec, TypeVar

__all__ = ["collector_paused"]

_P = ParamSpec("_P")
_R = TypeVar("_R")


def collector_paused(fn: Callable[_P, _R]) -> Callable[_P, _R]:
    """Run ``fn`` with the cyclic collector disabled.

    If the collector is enabled on entry it is disabled for the call and
    re-enabled on exit, exception or not.  If it is already disabled — a
    nested paused call, or a caller or embedder that turned it off — it
    is left alone.  No collection is forced on exit.

    The switch is process-wide, so the pause assumes nothing else toggles
    the collector while ``fn`` runs; the package runs its passes on one
    thread.
    """

    @functools.wraps(fn)
    def paused(*args: _P.args, **kwargs: _P.kwargs) -> _R:
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return paused
