"""Cascading rollback (§4.2 of the paper).

Rolling back an extraction decrements the evidence of every pair the
sentence produced.  A pair whose evidence reaches zero leaves the knowledge
base, which may orphan further extractions that were triggered only by that
pair — those roll back too, iteratively, until a fixpoint.

A record triggered by several pairs survives while *any* trigger is alive:
the extraction would still have happened with the remaining knowledge.

The engine journals itself: :attr:`RollbackEngine.ops` lists the
top-level requests it was asked to run, in order.  Cascades follow from
the KB state, so replaying the requests through a fresh engine over the
same KB reproduces every mutation (the streaming service journals a
cleaning pass this way, see :mod:`repro.service.journal`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable

from .pair import IsAPair
from .store import KnowledgeBase

__all__ = ["RollbackResult", "RollbackEngine"]


@dataclass
class RollbackResult:
    """What one rollback wave removed."""

    records_rolled_back: list[int] = field(default_factory=list)
    pairs_removed: list[IsAPair] = field(default_factory=list)

    def merge(self, other: "RollbackResult") -> None:
        """Fold another wave's result into this one."""
        self.records_rolled_back.extend(other.records_rolled_back)
        self.pairs_removed.extend(other.pairs_removed)

    @property
    def num_records(self) -> int:
        """Number of extractions rolled back."""
        return len(self.records_rolled_back)

    @property
    def num_pairs(self) -> int:
        """Number of pairs removed from the knowledge base."""
        return len(self.pairs_removed)


class RollbackEngine:
    """Performs cascading rollbacks against a knowledge base.

    ``ops`` records every top-level request as ``["pair", concept,
    instance]`` or ``["records", rids]``; the cascades they set off are
    not recorded.
    """

    def __init__(self, kb: KnowledgeBase) -> None:
        self._kb = kb
        self.ops: list[list] = []

    def rollback_records(self, rids: Iterable[int]) -> RollbackResult:
        """Roll back the given records and cascade to completion."""
        rids = list(rids)
        self.ops.append(["records", rids])
        return self._cascade(rids)

    def rollback_pair(self, pair: IsAPair) -> RollbackResult:
        """Drop a pair and roll back everything it activated (§4).

        Used for Accidental DPs, which are wrong extractions themselves.
        Sibling pairs from the sentences that *produced* the DP are
        innocent and survive; extractions *triggered by* the DP roll back
        (cascading), exactly as the paper prescribes.
        """
        self.ops.append(["pair", pair.concept, pair.instance])
        kb = self._kb
        result = RollbackResult()
        triggered = kb.records_triggered_by(pair)
        kb.remove_pair(pair)
        result.pairs_removed.append(pair)
        orphaned = [
            record.rid for record in triggered
            if kb.kill_trigger(record.rid, pair)
        ]
        result.merge(self._cascade(orphaned))
        return result

    def _cascade(self, rids: Iterable[int]) -> RollbackResult:
        """Deactivate ``rids`` and everything only their pairs triggered."""
        kb = self._kb
        result = RollbackResult()
        worklist = [rid for rid in rids if kb.is_active(rid)]
        while worklist:
            rid = worklist.pop()
            if not kb.is_active(rid):
                continue
            died = kb.deactivate_record(rid)
            result.records_rolled_back.append(rid)
            result.pairs_removed.extend(died)
            for pair in died:
                for dependent in kb.records_triggered_by(pair):
                    if kb.kill_trigger(dependent.rid, pair):
                        worklist.append(dependent.rid)
        return result
