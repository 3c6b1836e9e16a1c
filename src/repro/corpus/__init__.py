"""Synthetic Hearst-pattern corpus substrate."""

from .corpus import Corpus, sentence_from_json, sentence_to_json
from .documents import Page, deduplicate, group_pages
from .generator import CorpusGenerator, generate_corpus
from .sentence import Sentence, SentenceKind, SentenceTruth

__all__ = [
    "Corpus",
    "CorpusGenerator",
    "Page",
    "Sentence",
    "SentenceKind",
    "SentenceTruth",
    "deduplicate",
    "generate_corpus",
    "group_pages",
    "sentence_from_json",
    "sentence_to_json",
]
