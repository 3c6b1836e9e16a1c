"""The :class:`Corpus` container."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from collections.abc import Iterator

from ..errors import CorpusError
from .sentence import Sentence, SentenceKind, SentenceTruth

__all__ = ["Corpus", "sentence_to_json", "sentence_from_json"]


@dataclass(frozen=True)
class Corpus:
    """An immutable collection of Hearst sentences grouped into pages."""

    sentences: tuple[Sentence, ...]

    def __len__(self) -> int:
        return len(self.sentences)

    def __iter__(self) -> Iterator[Sentence]:
        return iter(self.sentences)

    def __getitem__(self, sid: int) -> Sentence:
        sentence = self.by_sid().get(sid)
        if sentence is None:
            raise CorpusError(f"no sentence with sid {sid}")
        return sentence

    def by_sid(self) -> dict[int, Sentence]:
        """Sentence lookup by id (built on demand)."""
        return {sentence.sid: sentence for sentence in self.sentences}

    def ambiguous(self) -> list[Sentence]:
        """All sentences with more than one candidate concept."""
        return [s for s in self.sentences if s.is_ambiguous]

    def unambiguous(self) -> list[Sentence]:
        """All sentences with exactly one candidate concept."""
        return [s for s in self.sentences if not s.is_ambiguous]

    # ------------------------------------------------------------------
    # Batching (streaming ingestion)
    # ------------------------------------------------------------------
    def batches(self, batch_size: int) -> Iterator["Corpus"]:
        """Split the corpus into successive batches of ``batch_size``.

        The shards preserve sentence order; concatenating them yields the
        original corpus.  This is the feed for streaming ingest sessions
        (:mod:`repro.service`), which treat each shard as one arrival.
        """
        if batch_size <= 0:
            raise CorpusError("batch_size must be positive")
        for start in range(0, len(self.sentences), batch_size):
            yield Corpus(self.sentences[start:start + batch_size])

    def shards(self, num_shards: int) -> list["Corpus"]:
        """Split the corpus into ``num_shards`` near-equal batches."""
        if num_shards <= 0:
            raise CorpusError("num_shards must be positive")
        size = max(1, -(-len(self.sentences) // num_shards))
        return list(self.batches(size))

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    @classmethod
    def load_jsonl(cls, path: str | Path) -> "Corpus":
        """Read a JSON-lines corpus: one :func:`sentence_to_json` record
        per line, blank lines skipped.

        A malformed record, or a sid that comes back with other content,
        raises a :class:`~repro.errors.CorpusError` naming ``path:line``.
        """
        sentences: list[Sentence] = []
        first_seen: dict[int, tuple[int, Sentence]] = {}
        with open(path, encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    sentence = sentence_from_json(json.loads(line))
                except (KeyError, ValueError) as exc:
                    raise CorpusError(
                        f"bad corpus record at {path}:{line_number}: {exc}"
                    ) from exc
                earlier = first_seen.setdefault(
                    sentence.sid, (line_number, sentence)
                )
                if earlier[1] != sentence:
                    raise CorpusError(
                        f"bad corpus record at {path}:{line_number}: sid "
                        f"{sentence.sid} was already read with other "
                        f"content at line {earlier[0]}"
                    )
                sentences.append(sentence)
        return cls(tuple(sentences))


def sentence_to_json(sentence: Sentence) -> dict:
    """The JSON form of one sentence (one line of a JSONL corpus)."""
    record = {
        "sid": sentence.sid,
        "surface": sentence.surface,
        "concepts": list(sentence.concepts),
        "instances": list(sentence.instances),
        "page_id": sentence.page_id,
    }
    if sentence.truth is not None:
        record["truth"] = {
            "concept": sentence.truth.concept,
            "kind": sentence.truth.kind.value,
            "contaminants": list(sentence.truth.contaminants),
            "typos": list(sentence.truth.typos),
            "bridge": sentence.truth.bridge,
        }
    return record


def decode_strings(key: str, value: object) -> tuple[str, ...]:
    """Decode the JSON list of strings stored under ``key``."""
    if type(value) is list:
        try:
            # join type-checks every item at C speed: sentence and record
            # decoding sit on the resume path, where a per-item Python
            # check is measurable.
            "".join(value)
            return tuple(value)
        except TypeError:
            pass
    raise ValueError(f"{key!r} must be a list of strings, got {value!r}")


def _string_or_null(key: str, value: object) -> str | None:
    if value is not None and type(value) is not str:
        raise ValueError(f"{key!r} must be a string or null, got {value!r}")
    return value


def sentence_from_json(record: dict) -> Sentence:
    """Rebuild a sentence from :func:`sentence_to_json` output.

    A malformed record raises ``KeyError`` or ``ValueError``.
    """
    if type(record) is not dict:
        raise ValueError(f"record must be a JSON object, got {record!r}")
    sid, surface = record["sid"], record["surface"]
    page_id = record.get("page_id", 0)
    if type(sid) is not int:
        raise ValueError(f"'sid' must be an integer, got {sid!r}")
    if type(page_id) is not int:
        raise ValueError(f"'page_id' must be an integer, got {page_id!r}")
    if type(surface) is not str:
        raise ValueError(f"'surface' must be a string, got {surface!r}")
    truth = None
    if "truth" in record:
        raw = record["truth"]
        if type(raw) is not dict:
            raise ValueError(f"'truth' must be a JSON object, got {raw!r}")
        truth = SentenceTruth(
            concept=_string_or_null("concept", raw["concept"]),
            kind=SentenceKind(raw["kind"]),
            contaminants=decode_strings(
                "contaminants", raw.get("contaminants", [])
            ),
            typos=decode_strings("typos", raw.get("typos", [])),
            bridge=_string_or_null("bridge", raw.get("bridge")),
        )
    return Sentence(
        sid=sid,
        surface=surface,
        concepts=decode_strings("concepts", record["concepts"]),
        instances=decode_strings("instances", record["instances"]),
        page_id=page_id,
        truth=truth,
    )
