"""Surface-level Hearst pattern parsing: the round-trip oracle for
:mod:`repro.corpus.templates`.

The extraction engine consumes the structured candidates the corpus
records, so no production path parses text.  Those candidates must still
be derivable from the raw sentence text: this parser recovers them, and
the round-trip tests (``tests/extraction/test_pattern*.py``) assert that
parsing a rendered surface yields exactly the candidate structure the
generator recorded.

The parser is deliberately *naive* in the same way large-scale Hearst
extractors are: ``X other than Y such as Z`` attaches ``such as`` to the
nearest noun ``Y`` and yields the wrong candidate ``(Z isA Y)`` — the
paper's first source of Accidental DPs.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable

from repro.corpus.templates import LEADINS, pluralize

__all__ = ["ParsedSentence", "HearstParser", "naive_singularize"]

_CUE = " such as "
_FROM = " from "
_OTHER_THAN = " other than "
# Longest-first so e.g. "some of the " is stripped before "some ".
_LEADINS_BY_LENGTH = tuple(sorted(LEADINS, key=len, reverse=True))


@dataclass(frozen=True)
class ParsedSentence:
    """Candidate structure recovered from a surface string."""

    concepts: tuple[str, ...]
    instances: tuple[str, ...]


def naive_singularize(plural: str) -> str:
    """Best-effort plural → singular for the head word.

    Used only when a surface is not covered by the parser's lexicon.

    >>> naive_singularize("countries")
    'country'
    >>> naive_singularize("dogs")
    'dog'
    """
    head = plural.rsplit(" ", 1)[-1]
    prefix = plural[: len(plural) - len(head)]
    if head.endswith("ies") and len(head) > 3:
        singular = head[:-3] + "y"
    elif head.endswith(("ses", "xes", "zes", "ches", "shes")):
        singular = head[:-2]
    elif head.endswith("s") and not head.endswith("ss"):
        singular = head[:-1]
    else:
        singular = head
    return prefix + singular


class HearstParser:
    """Parse ``such as`` sentences back into candidate structures.

    Parameters
    ----------
    concept_lexicon:
        Known concept surfaces (singular); their plural forms are derived
        with the same rules the renderer uses.
    entity_lexicon:
        Known instance surfaces; needed to recover the mis-parse shape,
        where an *instance* plays the concept role.
    """

    def __init__(
        self,
        concept_lexicon: Iterable[str] = (),
        entity_lexicon: Iterable[str] = (),
    ) -> None:
        self._plural_to_name: dict[str, str] = {}
        for name in list(entity_lexicon) + list(concept_lexicon):
            self._plural_to_name[pluralize(name)] = name

    def parse(self, surface: str) -> ParsedSentence | None:
        """Parse one sentence; ``None`` when no Hearst cue is present."""
        cue_at = surface.rfind(_CUE)
        if cue_at < 0:
            return None
        prefix = surface[:cue_at]
        instance_text = surface[cue_at + len(_CUE):].strip()
        instances = self._split_instances(instance_text)
        if not instances:
            return None
        if _OTHER_THAN in prefix:
            # Naive attachment: `such as` binds to the excluded entity.
            _, _, excluded = prefix.rpartition(_OTHER_THAN)
            return ParsedSentence(
                concepts=(self._to_name(excluded),), instances=instances
            )
        if _FROM in prefix:
            head, _, modifier = prefix.rpartition(_FROM)
            return ParsedSentence(
                concepts=(self._to_name(modifier), self._to_name(head)),
                instances=instances,
            )
        return ParsedSentence(
            concepts=(self._to_name(prefix),), instances=instances
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _split_instances(text: str) -> tuple[str, ...]:
        text = text.rstrip(".")
        head, separator, last = text.rpartition(" and ")
        parts = head.split(", ") if separator else [text]
        if separator:
            parts.append(last)
        return tuple(part.strip() for part in parts if part.strip())

    def _to_name(self, noun_phrase: str) -> str:
        phrase = noun_phrase.strip()
        # Longest suffix present in the lexicon wins (drops any lead-in).
        words = phrase.split(" ")
        for start in range(len(words)):
            candidate = " ".join(words[start:])
            if candidate in self._plural_to_name:
                return self._plural_to_name[candidate]
        for leadin in _LEADINS_BY_LENGTH:
            if leadin and phrase.startswith(leadin):
                phrase = phrase[len(leadin):]
                break
        return naive_singularize(phrase)
