"""Checking extractions triggered by Intentional DPs (§4.1, Eq. 21).

An Intentional DP is a *correct* instance, so it is never dropped; instead
every sentence whose resolution it triggered is re-scored.  For sentence
``s`` with candidate concepts ``Cs`` and instances ``Es``::

    Score(s, C) = Σ_{e' ∈ Es}  score(C, e') / Σ_{C' ∈ Cs} score(C', e')

with ``score`` the random-walk score of the pair.  If the concept the
extractor chose does not achieve the highest score, the extraction is a
drifting error and is rolled back (the paper's worked Example 1: the
*food/animal* sentence scores 2.556 vs 0.441 and the *animal* reading is
rolled back).

:func:`check_sentences` decides a whole round of checks in array passes;
:func:`check_extraction` is its one-check form.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from itertools import chain, repeat
from operator import attrgetter

import numpy as np

from ..corpus.sentence import Sentence
from ..kb.pair import IsAPair

__all__ = [
    "SentenceCheck",
    "SentenceChecks",
    "check_extraction",
    "check_sentences",
]

_EMPTY: dict[str, float] = {}


@dataclass(frozen=True)
class SentenceCheck:
    """Outcome of re-scoring one DP-triggered sentence."""

    sid: int
    chosen_concept: str
    trigger_instance: str
    scores: tuple[tuple[str, float], ...]
    is_drifting: bool


def check_extraction(
    sentence: Sentence,
    chosen_concept: str,
    trigger_instance: str,
    scores: Mapping[str, Mapping[str, float]],
) -> SentenceCheck:
    """Decide whether a DP-triggered extraction should roll back."""
    claims = [IsAPair(chosen_concept, trigger_instance)]
    rows = np.zeros(1, dtype=np.int64)
    return check_sentences([sentence], rows, claims, scores)[0]


class SentenceChecks(Sequence[SentenceCheck]):
    """The verdicts of one round of Eq. 21 checks, in check order.

    Held as arrays: :attr:`drifting` is the verdict of each check, and a
    :class:`SentenceCheck` is built only when one is read, so a round that
    nobody inspects pays for none.  Compares like the list of its checks.
    """

    def __init__(
        self,
        sentences: Sequence[Sentence],
        rows: np.ndarray,
        claims: Sequence[IsAPair],
        totals: np.ndarray,
        starts: np.ndarray,
        drifting: np.ndarray,
    ) -> None:
        self._sentences = sentences
        self._rows = rows
        self._claims = claims
        self._totals = totals
        self._starts = starts
        self.drifting = drifting

    def __len__(self) -> int:
        return len(self._rows)

    def __eq__(self, other: object) -> bool:
        """Equal to any sequence of the same checks (a list, say)."""
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other)
        )

    __hash__ = None  # type: ignore[assignment]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        i = range(len(self))[index]
        row = int(self._rows[i])
        sentence = self._sentences[row]
        start = int(self._starts[row])
        totals = self._totals[start : start + len(sentence.concepts)]
        return SentenceCheck(
            sid=sentence.sid,
            chosen_concept=self._claims[i].concept,
            trigger_instance=self._claims[i].instance,
            scores=tuple(sorted(zip(sentence.concepts, totals.tolist()))),
            is_drifting=bool(self.drifting[i]),
        )


def check_sentences(
    sentences: Sequence[Sentence],
    rows: np.ndarray,
    claims: Sequence[IsAPair],
    scores: Mapping[str, Mapping[str, float]],
) -> SentenceChecks:
    """Decide many extractions at once.

    Check ``i`` is sentence ``sentences[rows[i]]`` extracted under
    ``claims[i].concept`` and triggered by ``claims[i].instance``.  Each
    sentence is scored once, over the (instance, candidate slot) entries
    of a sentence × instance CSR, instance-major.  ``np.bincount`` adds in
    input order from ``0.0``, so each denominator (over an instance's
    slots) and each numerator (over a slot's instances) is summed in the
    order a per-sentence loop over the instances sums it: every score, and
    every verdict ``chosen < max``, is bit-identical to that loop's.
    """
    concepts = [sentence.concepts for sentence in sentences]
    instances = [sentence.instances for sentence in sentences]
    width = _lengths(concepts)
    # Candidate slots laid end to end: sentence s owns starts[s] onwards.
    starts = np.zeros(len(sentences), dtype=np.int64)
    np.cumsum(width[:-1], out=starts[1:])
    slot_concepts = list(chain.from_iterable(concepts))
    # One entry per (instance, candidate slot) of each sentence.
    instance_width = np.repeat(width, _lengths(instances))
    entry_instance = np.repeat(np.arange(len(instance_width)), instance_width)
    first_entry = np.cumsum(instance_width) - instance_width
    entry_slot = (
        np.repeat(starts, _lengths(instances))[entry_instance]
        + np.arange(len(entry_instance))
        - first_entry[entry_instance]
    )
    # Each entry reads its slot's score row at its instance.
    rows_by_concept = {
        concept: _as_dict(scores.get(concept, _EMPTY))
        for concept in dict.fromkeys(slot_concepts)
    }
    slot_rows = np.empty(len(slot_concepts), dtype=object)
    slot_rows[:] = list(map(rows_by_concept.__getitem__, slot_concepts))
    names = np.empty(len(instance_width), dtype=object)
    names[:] = list(chain.from_iterable(instances))
    values = np.fromiter(
        map(
            dict.get,
            slot_rows[entry_slot].tolist(),
            names[entry_instance].tolist(),
            repeat(0.0),
        ),
        dtype=float,
        count=len(entry_slot),
    )
    denominator = np.bincount(
        entry_instance, weights=values, minlength=len(instance_width)
    )
    counted = ~(denominator <= 0)[entry_instance]
    # (np.bincount of nothing is integer, hence the cast.)
    totals = np.bincount(
        entry_slot[counted],
        weights=values[counted] / denominator[entry_instance[counted]],
        minlength=len(slot_concepts),
    ).astype(float, copy=False)
    best = (
        np.maximum.reduceat(totals, starts) if len(sentences) else totals
    )
    # The chosen concept's score: its slot's total, 0.0 when it is not a
    # candidate (candidates are distinct, so at most one slot matches).
    code = dict(zip(rows_by_concept, range(len(rows_by_concept))))
    slot_code = np.fromiter(
        map(code.__getitem__, slot_concepts), np.int64, len(slot_concepts)
    )
    chosen_code = np.fromiter(
        map(code.get, map(attrgetter("concept"), claims), repeat(-1)),
        np.int64,
        len(claims),
    )
    check_width = width[rows]
    check = np.repeat(np.arange(len(claims)), check_width)
    slot = (
        np.repeat(starts[rows], check_width)
        + np.arange(len(check))
        - np.repeat(np.cumsum(check_width) - check_width, check_width)
    )
    match = slot_code[slot] == chosen_code[check]
    chosen = np.zeros(len(claims))
    chosen[check[match]] = totals[slot[match]]
    return SentenceChecks(
        sentences, rows, claims, totals, starts, chosen < best[rows]
    )


def _lengths(items: Sequence[Sequence]) -> np.ndarray:
    return np.fromiter(map(len, items), dtype=np.int64, count=len(items))


def _as_dict(row: Mapping[str, float]) -> dict[str, float]:
    return row if type(row) is dict else dict(row)
