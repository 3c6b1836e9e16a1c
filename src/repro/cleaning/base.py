"""Cleaner interface and result container.

Every cleaning strategy *mutates* the knowledge base it is given (as the
paper's system does) and reports what it removed.  Experiments that compare
cleaners re-run the deterministic extraction to get a fresh knowledge base
per cleaner.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from ..corpus.corpus import Corpus
from ..kb.pair import IsAPair
from ..kb.store import KnowledgeBase

__all__ = ["CleaningResult", "BaseCleaner"]


@dataclass
class CleaningResult:
    """What one cleaning run removed."""

    method: str
    removed_pairs: frozenset[IsAPair] = frozenset()
    records_rolled_back: int = 0
    rounds: int = 1
    details: dict = field(default_factory=dict)
    #: The top-level rollback requests the cleaner issued, in order (see
    #: :attr:`~repro.kb.rollback.RollbackEngine.ops`); replaying them over
    #: the KB it cleaned reproduces the pass.
    rollback_ops: list[list] = field(default_factory=list)

    @property
    def num_removed(self) -> int:
        """Number of pairs removed from the knowledge base."""
        return len(self.removed_pairs)


class BaseCleaner(ABC):
    """A cleaning strategy over a knowledge base."""

    name: str = "abstract"

    @abstractmethod
    def clean(self, kb: KnowledgeBase, corpus: Corpus) -> CleaningResult:
        """Remove suspect pairs from ``kb`` (in place) and report them."""

    @staticmethod
    def _result(
        method: str,
        before: frozenset[IsAPair],
        kb: KnowledgeBase,
        records_rolled_back: int = 0,
        rounds: int = 1,
        details: dict | None = None,
    ) -> CleaningResult:
        """Build a result from the removed-pair delta."""
        removed = kb.removed_pairs() - before
        return CleaningResult(
            method=method,
            removed_pairs=frozenset(removed),
            records_rolled_back=records_rolled_back,
            rounds=rounds,
            details=details or {},
        )
