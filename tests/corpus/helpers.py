"""Corpus helpers only tests use: page grouping, dedup, JSONL export and
truth stripping.

The extractor de-duplicates on its own (first surface wins, across every
batch of a session); :func:`deduplicate` is the reference form of that
rule over one sentence sequence.

``dump_jsonl`` writes the format :meth:`repro.corpus.Corpus.load_jsonl`
reads (and ``repro ingest`` accepts): one :func:`sentence_to_json`
record per line.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, replace
from pathlib import Path

from repro.corpus import Corpus, Sentence, sentence_to_json


@dataclass(frozen=True)
class Page:
    """A web page: an id plus the sentences that appeared on it."""

    page_id: int
    sentence_ids: tuple[int, ...]


def group_pages(sentences: Sequence[Sentence]) -> list[Page]:
    """Group sentences into pages by their ``page_id``."""
    by_page: dict[int, list[int]] = {}
    for sentence in sentences:
        by_page.setdefault(sentence.page_id, []).append(sentence.sid)
    return [
        Page(page_id=page_id, sentence_ids=tuple(sids))
        for page_id, sids in sorted(by_page.items())
    ]


def deduplicate(sentences: Iterable[Sentence]) -> list[Sentence]:
    """Drop sentences whose exact surface was seen before.

    Keeps the first occurrence (lowest ``sid``); the survivors preserve
    their original ids, so pair evidence counts reflect *distinct*
    sentences exactly as in the paper.
    """
    seen: set[str] = set()
    kept: list[Sentence] = []
    for sentence in sentences:
        if sentence.surface in seen:
            continue
        seen.add(sentence.surface)
        kept.append(sentence)
    return kept


def deduplicated(corpus: Corpus) -> Corpus:
    """A corpus with exact-duplicate surfaces removed (first one wins)."""
    return Corpus(tuple(deduplicate(corpus.sentences)))


def dump_jsonl(corpus: Corpus, path: str | Path) -> None:
    """Write ``corpus`` as JSON lines that ``Corpus.load_jsonl`` reads."""
    with open(path, "w", encoding="utf-8") as handle:
        for sentence in corpus.sentences:
            handle.write(json.dumps(sentence_to_json(sentence)) + "\n")


def sentence_without_truth(sentence: Sentence) -> Sentence:
    """A copy with the truth record removed (what extractors may see)."""
    return replace(sentence, truth=None)


def without_truth(corpus: Corpus) -> Corpus:
    """A copy safe to hand to extraction code in adversarial tests."""
    return Corpus(tuple(map(sentence_without_truth, corpus.sentences)))
