"""Candidate-concept resolution policies.

Given an ambiguous sentence and the knowledge visible at the start of the
iteration, a policy decides which candidate concept (if any) the sentence
should be resolved to, and which known pairs *triggered* that decision.

* ``nearest`` — the paper's observed Probase behaviour: *such as* prefers
  the syntactically nearest candidate; the first candidate (in proximity
  order) with a known instance wins.  This is the drift-prone default
  and reproduces both examples of Fig. 1(b): it fixes
  ``animals from african countries such as giraffe and lion`` (the nearest
  candidate has no evidence, so knowledge falls through to *animal*) and it
  mis-resolves ``food from animals such as pork, beef and chicken`` once
  *(chicken isA animal)* is known.
* ``max_evidence`` — picks the candidate with the most known instances
  (ties broken by proximity); less drift-prone, offered for ablation.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Mapping

from ..corpus.sentence import Sentence
from ..errors import ExtractionError
from ..kb.pair import IsAPair

__all__ = ["Resolution", "resolve", "POLICIES"]


@dataclass(frozen=True)
class Resolution:
    """The outcome of resolving one ambiguous sentence."""

    concept: str
    triggers: tuple[IsAPair, ...]


def _matches(
    sentence: Sentence, concept: str, known: Mapping[str, frozenset[str]]
) -> tuple[str, ...]:
    visible = known.get(concept)
    if not visible:
        return ()
    return tuple(e for e in sentence.instances if e in visible)


def _resolve_nearest(
    sentence: Sentence, known: Mapping[str, frozenset[str]]
) -> Resolution | None:
    for concept in sentence.concepts:
        matched = _matches(sentence, concept, known)
        if matched:
            triggers = tuple(IsAPair(concept, e) for e in matched)
            return Resolution(concept=concept, triggers=triggers)
    return None


def _resolve_max_evidence(
    sentence: Sentence, known: Mapping[str, frozenset[str]]
) -> Resolution | None:
    best: Resolution | None = None
    best_count = 0
    for concept in sentence.concepts:  # proximity order breaks ties
        matched = _matches(sentence, concept, known)
        if len(matched) > best_count:
            best_count = len(matched)
            best = Resolution(
                concept=concept,
                triggers=tuple(IsAPair(concept, e) for e in matched),
            )
    return best


POLICIES = {
    "nearest": _resolve_nearest,
    "max_evidence": _resolve_max_evidence,
}


def resolve(
    sentence: Sentence,
    known: Mapping[str, frozenset[str]],
    policy: str = "nearest",
) -> Resolution | None:
    """Resolve an ambiguous sentence against visible knowledge.

    A candidate needs one visible instance.  Returns ``None`` when no
    candidate has one yet (the sentence stays unresolved and is retried
    next iteration).
    """
    try:
        chosen = POLICIES[policy]
    except KeyError:
        raise ExtractionError(f"unknown resolution policy: {policy!r}") from None
    return chosen(sentence, known)
