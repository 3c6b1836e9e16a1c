"""Tests for the tokenizer/normaliser."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from .tokenizer import normalize, tokenize


class TestNormalize:
    def test_lowercases(self):
        assert normalize("New York") == "new york"

    def test_collapses_whitespace(self):
        assert normalize("  a   b  ") == "a b"

    def test_strips_punctuation(self):
        assert normalize("dogs, ") == "dogs"

    def test_idempotent(self):
        assert normalize(normalize("  New   York. ")) == normalize("  New   York. ")

    @given(st.text(alphabet="abc XY.,", max_size=40))
    def test_never_leading_trailing_space(self, text):
        result = normalize(text)
        assert result == result.strip()


class TestTokenize:
    def test_basic(self):
        assert tokenize("Animals such as dogs, cats.") == [
            "Animals", "such", "as", "dogs", "cats",
        ]

    def test_keeps_hyphens_and_apostrophes(self):
        assert tokenize("well-known u.s. state's") == ["well-known", "u.s.", "state's"]
