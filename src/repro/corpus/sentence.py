"""Sentence value objects.

A sentence carries two views:

* the **candidate structure** the extractor is allowed to see — candidate
  concepts ``concepts`` ordered *nearest to the Hearst cue first* (syntactic
  attachment preference) and candidate instances ``instances``;
* the **truth record** used only by evaluation — which concept the sentence
  really talks about and which instances were injected as noise.

The extraction engine must never read ``truth``; tests enforce this by
running extraction on truth-stripped copies.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["SentenceKind", "SentenceTruth", "Sentence"]


class SentenceKind(enum.Enum):
    """How a sentence was generated (ground-truth bookkeeping)."""

    UNAMBIGUOUS = "unambiguous"
    AMBIGUOUS = "ambiguous"
    MISPARSE = "misparse"


@dataclass(frozen=True)
class SentenceTruth:
    """Ground-truth generation record for one sentence.

    Parameters
    ----------
    concept:
        The concept the sentence truly talks about (``None`` for mis-parsed
        garbage whose candidate concept is itself wrong).
    kind:
        Generation mechanism.
    contaminants:
        Instances injected from a mutually exclusive concept (false facts).
    typos:
        Corrupted instance surfaces present in ``instances``.
    bridge:
        A polysemous instance deliberately included to enable drift, if any.
    """

    concept: str | None
    kind: SentenceKind
    contaminants: tuple[str, ...] = ()
    typos: tuple[str, ...] = ()
    bridge: str | None = None


@dataclass(frozen=True)
class Sentence:
    """One Hearst-pattern sentence.

    ``concepts`` lists candidate concepts nearest-attachment first: for
    ``food from animals such as pork …`` the candidates are
    ``("animal", "food")`` because *such as* attaches to the closest noun
    phrase.  ``instances`` is the candidate instance list ``Es``.
    """

    sid: int
    surface: str
    concepts: tuple[str, ...]
    instances: tuple[str, ...]
    page_id: int = 0
    truth: SentenceTruth | None = None

    def __post_init__(self) -> None:
        if not self.concepts:
            raise ValueError(f"sentence {self.sid} has no candidate concepts")
        if len(self.instances) < 1:
            raise ValueError(f"sentence {self.sid} has no candidate instances")
        if len(set(self.concepts)) != len(self.concepts):
            raise ValueError(f"sentence {self.sid} has duplicate candidates")

    @property
    def is_ambiguous(self) -> bool:
        """True when more than one candidate concept exists."""
        return len(self.concepts) > 1
