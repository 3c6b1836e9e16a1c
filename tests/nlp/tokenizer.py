"""A small tokenizer / normaliser for surface-form tests.

Real web-scale extraction pipelines normalise surface strings before storing
isA pairs (lower-casing, whitespace collapsing, light punctuation stripping).
No production path runs these (sentences arrive with their candidates
pre-parsed); tests use them to reason about surface forms.
"""

from __future__ import annotations

import re

__all__ = ["normalize", "tokenize"]

_WHITESPACE = re.compile(r"\s+")
_STRIP_CHARS = ".,;:!?\"'()[]"
_TOKEN = re.compile(r"[A-Za-z0-9.'-]+")


def normalize(text: str) -> str:
    """Normalise a surface form: lower-case, collapse spaces, trim edges.

    >>> normalize("  New   York. ")
    'new york'
    """
    collapsed = _WHITESPACE.sub(" ", text).strip()
    return collapsed.strip(_STRIP_CHARS + " ").lower()


def tokenize(sentence: str) -> list[str]:
    """Split a sentence into word tokens, dropping punctuation.

    A trailing period is stripped unless the token is dotted throughout
    (an abbreviation such as ``u.s.``).

    >>> tokenize("Animals such as dogs, cats and pigs.")
    ['Animals', 'such', 'as', 'dogs', 'cats', 'and', 'pigs']
    """
    tokens = []
    for token in _TOKEN.findall(sentence):
        if token.endswith(".") and "." not in token[:-1]:
            token = token.rstrip(".")
        if token:
            tokens.append(token)
    return tokens
