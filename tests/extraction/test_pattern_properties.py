"""Property-based round-trip tests for the Hearst surface grammar."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.templates import (
    pluralize,
    render_ambiguous,
    render_misparse,
    render_unambiguous,
)
from repro.world.vocabulary import Vocabulary

from ..corpus.hearst_parser import HearstParser

# Pseudo-word pools drawn from the same generator the worlds use, so the
# property covers exactly the surface space the corpus can produce.
_vocab = Vocabulary(np.random.default_rng(99), two_word_rate=0.3)
_WORDS = _vocab.batch(120)

_names = st.sampled_from(_WORDS)
_instance_lists = st.lists(_names, min_size=1, max_size=5, unique=True)


def _parser():
    return HearstParser(concept_lexicon=_WORDS, entity_lexicon=_WORDS)


class TestRoundTripProperties:
    @given(_names, _instance_lists, st.integers(0, 1 << 30))
    @settings(max_examples=80, deadline=None)
    def test_unambiguous_roundtrip(self, concept, instances, seed):
        rng = np.random.default_rng(seed)
        surface = render_unambiguous(concept, tuple(instances), rng)
        parsed = _parser().parse(surface)
        assert parsed is not None
        assert parsed.concepts == (concept,)
        assert parsed.instances == tuple(instances)

    @given(_names, _names, _instance_lists, st.integers(0, 1 << 30))
    @settings(max_examples=80, deadline=None)
    def test_ambiguous_roundtrip(self, head, modifier, instances, seed):
        if head == modifier:
            return
        rng = np.random.default_rng(seed)
        surface = render_ambiguous(head, modifier, tuple(instances), rng)
        parsed = _parser().parse(surface)
        assert parsed is not None
        assert parsed.concepts == (modifier, head)
        assert parsed.instances == tuple(instances)

    @given(_names, _names, _instance_lists, st.integers(0, 1 << 30))
    @settings(max_examples=60, deadline=None)
    def test_misparse_roundtrip(self, concept, excluded, instances, seed):
        if concept == excluded:
            return
        rng = np.random.default_rng(seed)
        surface = render_misparse(concept, excluded, tuple(instances), rng)
        parsed = _parser().parse(surface)
        assert parsed is not None
        assert parsed.concepts == (excluded,)
        assert parsed.instances == tuple(instances)

    @given(_names)
    @settings(max_examples=60)
    def test_plural_differs_and_is_deterministic(self, noun):
        assert pluralize(noun) != noun
        assert pluralize(noun) == pluralize(noun)
