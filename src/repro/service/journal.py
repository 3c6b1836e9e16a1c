"""The session redo journal.

One JSON line per committed batch.  An entry is the *commit point* of its
batch: it is appended (and fsynced) only after the batch has been fully
applied in memory, so on resume the journal is replayed entry by entry
and whatever was in flight when the process died is simply absent.  A
torn final line — the classic crash-during-append artifact — is detected
and discarded; a corrupt line *followed by* intact entries means real
data loss and fails loudly instead.

An entry holds no sentence itself.  The batch's new sentences are in the
``sentences-<seq>.jsonl`` file its ``sentences`` field names (with the
file's row count and byte size), written and fsynced, with its directory,
before the entry is appended; the next snapshot links that file in as a
corpus segment, so a sentence is encoded once (see
:mod:`repro.service.checkpoint`).

Entries carry a monotonic ``seq``.  Snapshots record the ``seq`` they
cover, and replay skips entries at or below it, so a crash between
"snapshot written" and "journal truncated" never double-applies.

Entries also carry the journal schema ``version``.  An entry from a build
with another schema fails replay loudly, naming the file and the line,
instead of being misread — even on the last line, because a well-formed
entry with the wrong version is not a torn tail.

Cleaning passes are journaled as their **semantic rollback operations**
(the pair rollbacks and record rollbacks the cleaner requested, in
order: :attr:`~repro.kb.rollback.RollbackEngine.ops`, which the cleaner
returns as :attr:`~repro.cleaning.base.CleaningResult.rollback_ops`), not
as detector output: cascades re-derive deterministically from the KB
state, so replaying the operations through a fresh
:class:`~repro.kb.rollback.RollbackEngine` reproduces the exact mutation
sequence — including version counters — without refitting a detector.
A pass that fitted a detector basis names the file holding it
(``embedding``), written and fsynced before the entry; replay adopts it.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from collections.abc import Iterator

from ..errors import ServiceError
from ..kb.pair import IsAPair
from ..kb.rollback import RollbackEngine
from ..kb.store import KnowledgeBase

__all__ = ["JOURNAL_VERSION", "Journal", "replay_clean_ops"]

#: Version of the journal entry schema, stamped into every entry.
#: Version 2 names a sentences file instead of carrying the sentences.
JOURNAL_VERSION = 2


def replay_clean_ops(kb: KnowledgeBase, ops: list[list]) -> None:
    """Re-apply journaled cleaning operations to a knowledge base.

    Each op is ``["pair", concept, instance]`` naming a pair of ``kb`` or
    ``["records", [rid, ...]]`` naming records of ``kb``; anything else
    raises :class:`ServiceError`.
    """
    if not isinstance(ops, list):
        raise ServiceError(f"journaled cleaning ops {ops!r} are not a list")
    engine = RollbackEngine(kb)
    for op in ops:
        match op:
            case ["pair", str(concept), str(instance)]:
                pair = IsAPair(concept, instance)
                if pair not in kb:
                    raise ServiceError(
                        f"journaled cleaning op {op!r} names a pair the "
                        "knowledge base does not hold"
                    )
                engine.rollback_pair(pair)
            case ["records", list(rids)] if all(
                type(rid) is int and 0 <= rid < kb.num_records for rid in rids
            ):
                engine.rollback_records(rids)
            case _:
                raise ServiceError(f"malformed journaled cleaning op {op!r}")


class Journal:
    """Append-only JSONL journal with fsync commits and torn-tail repair."""

    def __init__(self, path: str | Path) -> None:
        self._path = Path(path)

    @property
    def path(self) -> Path:
        """The journal file location."""
        return self._path

    def append(self, entry: dict) -> int:
        """Commit one entry durably (write + fsync); returns bytes.

        The entry is stamped with :data:`JOURNAL_VERSION`.  If the write
        or the fsync fails, the file is cut back to its length before the
        call, so no line whose commit failed can be replayed.
        """
        if "seq" not in entry:
            raise ServiceError("journal entries must carry a seq")
        entry = {**entry, "version": JOURNAL_VERSION}
        data = (json.dumps(entry, separators=(",", ":")) + "\n").encode()
        fd = os.open(self._path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            committed = os.fstat(fd).st_size
            try:
                view = memoryview(data)
                while view:
                    view = view[os.write(fd, view):]
                os.fsync(fd)
            except BaseException:
                os.ftruncate(fd, committed)
                raise
        finally:
            os.close(fd)
        return len(data)

    def entries(self, after_seq: int = 0) -> Iterator[dict]:
        """Replay committed entries with ``seq > after_seq`` in order.

        A torn final line (one that does not parse) is dropped silently:
        the batch never committed.  Corruption anywhere else, a line that
        parses but is not an object with an integer ``seq``, and any entry
        whose version is missing or differs from :data:`JOURNAL_VERSION`
        raise :class:`ServiceError` naming the file and the line.
        """
        if not self._path.exists():
            return
        with open(self._path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        last_index = max(
            (i for i, line in enumerate(lines) if line.strip()), default=-1
        )
        for index, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError as exc:
                if index == last_index:
                    return  # torn tail: the entry never committed
                raise ServiceError(
                    f"corrupt journal entry at {self._path}:{index + 1} "
                    f"with committed entries after it: {exc}"
                ) from exc
            seq = entry.get("seq") if isinstance(entry, dict) else None
            if type(seq) is not int:
                raise ServiceError(
                    f"journal entry at {self._path}:{index + 1} has no "
                    f"integer seq: {line[:80]!r}"
                )
            version = entry.get("version")
            if version != JOURNAL_VERSION:
                raise ServiceError(
                    f"journal entry at {self._path}:{index + 1} has schema "
                    f"version {version!r}; this build reads version "
                    f"{JOURNAL_VERSION}"
                )
            if seq > after_seq:
                yield entry

    def reset(self) -> None:
        """Drop every entry (called after a covering snapshot landed)."""
        with open(self._path, "w", encoding="utf-8") as handle:
            handle.flush()
            os.fsync(handle.fileno())
