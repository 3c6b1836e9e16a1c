"""Synthetic Hearst-pattern corpus substrate."""

from .corpus import Corpus, sentence_from_json, sentence_to_json
from .generator import CorpusGenerator, generate_corpus
from .sentence import Sentence, SentenceKind, SentenceTruth

__all__ = [
    "Corpus",
    "CorpusGenerator",
    "Sentence",
    "SentenceKind",
    "SentenceTruth",
    "generate_corpus",
    "sentence_from_json",
    "sentence_to_json",
]
