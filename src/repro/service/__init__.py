"""Streaming ingestion service.

The paper's pipeline is batch-oriented: corpus in, cleaned KB out.  This
package turns it into a long-running service where documents arrive in
batches.  An :class:`IngestSession` extracts each batch incrementally,
reports its per-concept drift telemetry (:class:`BatchReport`), and
schedules DP-cleaning passes off two signals — the sentences ingested
since the last pass and the batch's drift score — that
:class:`IngestPolicy` turns into a reason to clean; drift passes reuse
the session's detector basis, the other passes refit it.  A redo journal
of each pass's rollback requests and fitted basis plus periodic KB
snapshots (:class:`CheckpointStore`, :class:`Journal`) make sessions
durable: a
killed session resumes from ``checkpoint + journal replay`` and reaches a
bit-identical knowledge base versus an uninterrupted run.
"""

from .checkpoint import CheckpointStore
from .journal import Journal, replay_clean_ops
from .policy import IngestPolicy
from .session import BatchReport, CleaningReport, DriftStats, IngestSession

__all__ = [
    "BatchReport",
    "CheckpointStore",
    "CleaningReport",
    "DriftStats",
    "IngestPolicy",
    "IngestSession",
    "Journal",
    "replay_clean_ops",
]
