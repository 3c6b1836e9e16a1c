"""Tests for the Corpus container, pages, dedup and serialisation."""

from __future__ import annotations

import re

import pytest

from repro.corpus.corpus import Corpus
from repro.corpus.sentence import Sentence, SentenceKind, SentenceTruth
from repro.errors import CorpusError

from .helpers import deduplicate, dump_jsonl, group_pages, without_truth


def _sentence(sid, surface, concepts=("animal",), page=0):
    return Sentence(
        sid=sid,
        surface=surface,
        concepts=concepts,
        instances=("dog", "cat"),
        page_id=page,
        truth=SentenceTruth(concept=concepts[-1], kind=SentenceKind.UNAMBIGUOUS),
    )


class TestCorpus:
    def test_len_iter_getitem(self):
        corpus = Corpus((_sentence(0, "a"), _sentence(1, "b")))
        assert len(corpus) == 2
        assert [s.sid for s in corpus] == [0, 1]
        assert corpus[1].surface == "b"

    def test_getitem_missing(self):
        with pytest.raises(CorpusError):
            Corpus((_sentence(0, "a"),))[99]

    def test_splits(self):
        corpus = Corpus(
            (_sentence(0, "a"), _sentence(1, "b", concepts=("animal", "food")))
        )
        assert len(corpus.unambiguous()) == 1
        assert len(corpus.ambiguous()) == 1

    def test_without_truth(self):
        corpus = without_truth(Corpus((_sentence(0, "a"),)))
        assert all(s.truth is None for s in corpus)


class TestDeduplicate:
    def test_keeps_first(self):
        sentences = [_sentence(0, "same"), _sentence(1, "same"), _sentence(2, "x")]
        kept = deduplicate(sentences)
        assert [s.sid for s in kept] == [0, 2]

    def test_noop_when_unique(self):
        sentences = [_sentence(0, "a"), _sentence(1, "b")]
        assert deduplicate(sentences) == sentences


class TestPages:
    def test_grouping(self):
        sentences = [_sentence(0, "a", page=0), _sentence(1, "b", page=0),
                     _sentence(2, "c", page=1)]
        pages = group_pages(sentences)
        assert len(pages) == 2
        assert pages[0].sentence_ids == (0, 1)
        assert pages[1].sentence_ids == (2,)


class TestSerialisation:
    def test_roundtrip(self, tmp_path):
        corpus = Corpus(
            (_sentence(0, "a"), _sentence(1, "b", concepts=("animal", "food")))
        )
        path = tmp_path / "corpus.jsonl"
        dump_jsonl(corpus, path)
        loaded = Corpus.load_jsonl(path)
        assert loaded == corpus

    def test_roundtrip_without_truth(self, tmp_path):
        corpus = without_truth(Corpus((_sentence(0, "a"),)))
        path = tmp_path / "corpus.jsonl"
        dump_jsonl(corpus, path)
        assert Corpus.load_jsonl(path) == corpus

    def test_bad_record_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(CorpusError):
            Corpus.load_jsonl(path)

    def test_skips_blank_lines(self, tmp_path):
        corpus = Corpus((_sentence(0, "a"),))
        path = tmp_path / "c.jsonl"
        dump_jsonl(corpus, path)
        path.write_text(path.read_text() + "\n\n")
        assert len(Corpus.load_jsonl(path)) == 1


GOOD = '{"sid": 0, "surface": "a", "concepts": ["animal"], "instances": ["dog"]}'


class TestMalformedRecords:
    """A malformed record fails as a ``CorpusError`` naming path:line."""

    @pytest.mark.parametrize(
        "line",
        [
            '["a", "b"]',
            '{"sid": 1, "surface": "b", "concepts": 5, "instances": ["x"]}',
            '{"sid": 1, "surface": "b", "concepts": ["animal", 3],'
            ' "instances": ["x"]}',
            '{"sid": "abc", "surface": "b", "concepts": ["animal"],'
            ' "instances": ["x"]}',
            '{"sid": 1, "surface": "b", "concepts": ["animal"],'
            ' "instances": [["x"]]}',
            '{"sid": 1, "surface": null, "concepts": ["animal"],'
            ' "instances": ["x"]}',
            '{"sid": 0, "surface": "b", "concepts": ["animal"],'
            ' "instances": ["dog"]}',
            '{"sid": 1, "surface": "b", "concepts": ["animal"],'
            ' "instances": ["x"], "page_id": "abc"}',
            '{"sid": 1, "surface": "b", "concepts": ["animal"],'
            ' "instances": ["x"], "page_id": null}',
            '{"sid": 1, "surface": "b", "concepts": ["animal"],'
            ' "instances": ["x"], "truth": 5}',
            '{"sid": 1, "surface": "b", "concepts": ["animal"],'
            ' "instances": ["x"], "truth": {"concept": ["a"],'
            ' "kind": "unambiguous"}}',
            '{"sid": 1, "surface": "b", "concepts": ["animal"],'
            ' "instances": ["x"], "truth": {"concept": "animal",'
            ' "kind": "unambiguous", "contaminants": 5}}',
            '{"sid": 1, "surface": "b", "concepts": ["animal"],'
            ' "instances": ["x"], "truth": {"concept": "animal",'
            ' "kind": "unambiguous", "typos": [1]}}',
            '{"sid": 1, "surface": "b", "concepts": ["animal"],'
            ' "instances": ["x"], "truth": {"concept": "animal",'
            ' "kind": "unambiguous", "bridge": 5}}',
        ],
        ids=[
            "list-record",
            "int-concepts",
            "non-str-concept",
            "str-sid",
            "nested-instances",
            "null-surface",
            "sid-reused-with-other-content",
            "str-page-id",
            "null-page-id",
            "int-truth",
            "list-truth-concept",
            "int-truth-contaminants",
            "non-str-truth-typo",
            "int-truth-bridge",
        ],
    )
    def test_is_rejected_with_its_location(self, tmp_path, line):
        path = tmp_path / "bad.jsonl"
        path.write_text(f"{GOOD}\n{line}\n")
        with pytest.raises(CorpusError, match=re.escape(f"{path}:2")):
            Corpus.load_jsonl(path)

    def test_a_repeated_identical_record_is_accepted(self, tmp_path):
        path = tmp_path / "twice.jsonl"
        path.write_text(f"{GOOD}\n{GOOD}\n")
        assert len(Corpus.load_jsonl(path)) == 2
