"""Tests for Eq. 21 sentence re-scoring, including the paper's Example 1."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cleaning import check_extraction
from repro.cleaning.intentional import check_sentences
from repro.corpus.sentence import Sentence
from repro.kb import IsAPair

from .uncached import build_check, score_sentence


def _sentence():
    return Sentence(
        sid=0,
        surface="food from animals such as pork, beef and chicken",
        concepts=("animal", "food"),
        instances=("pork", "beef", "chicken"),
    )


#: The exact random-walk scores from the paper's Example 1.
_PAPER_SCORES = {
    "food": {"pork": 0.15, "beef": 0.10, "chicken": 0.35},
    "animal": {"pork": 0.001, "beef": 0.002, "chicken": 0.250},
}


class TestScoreSentence:
    def test_paper_example_values(self):
        # The paper rounds per-term (0.006 + 0.019 + 0.416 = 0.441); the
        # exact sums are 0.4429 and 2.5571.
        scores = score_sentence(_sentence(), _PAPER_SCORES)
        assert scores["animal"] == pytest.approx(0.4429, abs=0.001)
        assert scores["food"] == pytest.approx(2.5571, abs=0.001)

    def test_scores_sum_to_instance_count(self):
        scores = score_sentence(_sentence(), _PAPER_SCORES)
        assert sum(scores.values()) == pytest.approx(3.0)

    def test_unknown_instances_skipped(self):
        sentence = Sentence(
            sid=1, surface="x", concepts=("animal", "food"),
            instances=("mystery",),
        )
        scores = score_sentence(sentence, _PAPER_SCORES)
        assert scores == {"animal": 0.0, "food": 0.0}


class TestCheckExtraction:
    def test_paper_example_rolls_back(self):
        check = check_extraction(
            _sentence(), "animal", "chicken", _PAPER_SCORES
        )
        assert check.is_drifting
        assert check.chosen_concept == "animal"
        assert check.trigger_instance == "chicken"

    def test_correct_extraction_kept(self):
        check = check_extraction(_sentence(), "food", "chicken", _PAPER_SCORES)
        assert not check.is_drifting

    def test_scores_recorded(self):
        check = check_extraction(
            _sentence(), "animal", "chicken", _PAPER_SCORES
        )
        recorded = dict(check.scores)
        assert set(recorded) == {"animal", "food"}


_CONCEPTS = ("animal", "food", "city", "plant", "tool")
_INSTANCES = ("pork", "beef", "chicken", "paris", "rose", "saw")
#: Few distinct values, so exact ties and zero rows are common.
_SCORE_VALUES = st.one_of(
    st.sampled_from([0.0, 0.0, 0.1, 0.25, 0.5, 1.0]),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
)


def _decide(sentences, checks, scores):
    """Array verdicts for ``checks``: (sentence index, chosen, trigger)."""
    rows = np.array([row for row, _, _ in checks], dtype=np.intp)
    claims = [IsAPair(chosen, trigger) for _, chosen, trigger in checks]
    return check_sentences(sentences, rows, claims, scores)


def _reference(sentences, checks, scores):
    """The per-sentence oracle's verdicts for ``checks``."""
    return [
        build_check(
            sentences[row].sid,
            score_sentence(sentences[row], scores),
            chosen,
            trigger,
        )
        for row, chosen, trigger in checks
    ]


@st.composite
def check_rounds(draw):
    """Sentences, score rows and checks over them, Eq. 21's edge cases in
    reach: 2 or more candidates, instances no row scores (denominator 0),
    equal rows (exact ties), chosen concepts without a score row or
    outside the sentence, and sentences checked more than once."""
    sentences = []
    for sid in range(draw(st.integers(1, 5))):
        concepts = draw(
            st.lists(
                st.sampled_from(_CONCEPTS), min_size=1, max_size=4,
                unique=True,
            )
        )
        instances = draw(
            st.lists(st.sampled_from(_INSTANCES), min_size=1, max_size=5)
        )
        sentences.append(
            Sentence(sid * 7, f"s{sid}", tuple(concepts), tuple(instances))
        )
    scored = draw(st.lists(st.sampled_from(_CONCEPTS), unique=True))
    scores = {
        concept: draw(
            st.dictionaries(st.sampled_from(_INSTANCES), _SCORE_VALUES)
        )
        for concept in scored
    }
    if len(scored) > 1 and draw(st.booleans()):
        scores[scored[1]] = dict(scores[scored[0]])  # a tie
    checks = draw(
        st.lists(
            st.tuples(
                st.integers(0, len(sentences) - 1),
                st.sampled_from(_CONCEPTS),
                st.sampled_from(_INSTANCES),
            ),
            max_size=12,
        )
    )
    return sentences, checks, scores


class TestCheckSentences:
    """The array Eq. 21 pass, one check or many, decides exactly as the
    per-sentence oracle."""

    @given(check_rounds())
    @settings(max_examples=200, deadline=None)
    def test_matches_check_extraction_field_by_field(self, case):
        sentences, checks, scores = case
        decided = _decide(sentences, checks, scores)
        assert len(decided) == len(checks)
        reference = _reference(sentences, checks, scores)
        for (row, chosen, trigger), want in zip(checks, reference):
            one = check_extraction(sentences[row], chosen, trigger, scores)
            assert repr(one) == repr(want)
        for got, want in zip(decided, reference):
            assert got.sid == want.sid
            assert got.chosen_concept == want.chosen_concept
            assert got.trigger_instance == want.trigger_instance
            # Bit for bit: repr distinguishes every float.
            assert repr(got.scores) == repr(want.scores)
            assert got.is_drifting is want.is_drifting

    def test_named_edge_cases(self):
        two = Sentence(1, "two", ("animal", "food"), ("pork", "beef"))
        three = Sentence(
            2, "three", ("animal", "food", "plant"), ("rose", "pork")
        )
        zero = Sentence(3, "zero", ("city", "tool"), ("saw", "paris"))
        tie = Sentence(4, "tie", ("animal", "plant"), ("chicken",))
        scores = {
            "animal": {"pork": 0.001, "beef": 0.3, "chicken": 0.5},
            "food": {"pork": 0.15, "beef": 0.10},
            "plant": {"rose": 0.4, "chicken": 0.5},
            "city": {"paris": 0.9},
            # "tool" has no score row; "saw" no score anywhere.
        }
        sentences = [two, three, zero, tie]
        checks = [
            (0, "animal", "pork"),  # 0.757 against food's 1.243
            (0, "food", "beef"),  # the same sentence, checked again
            (1, "plant", "pork"),
            (1, "city", "rose"),  # not a candidate of the sentence
            (2, "tool", "paris"),  # no score row; saw's denominator is 0
            (3, "animal", "chicken"),  # exact tie: not drifting
        ]
        decided = list(_decide(sentences, checks, scores))
        assert decided == _reference(sentences, checks, scores)
        assert [check.is_drifting for check in decided] == [
            True, False, False, True, True, False,
        ]

    def test_sequence_behaviour(self):
        sentence = _sentence()
        checks = [(0, "animal", "chicken"), (0, "food", "chicken")]
        decided = _decide([sentence], checks, _PAPER_SCORES)
        expected = _reference([sentence], checks, _PAPER_SCORES)
        assert len(decided) == 2
        assert decided[-1] == expected[-1]
        assert decided[:1] == expected[:1]
        assert decided == expected and expected == decided
        assert list(decided.drifting) == [True, False]
        with pytest.raises(IndexError):
            decided[2]
        empty = _decide([], [], {})
        assert len(empty) == 0 and list(empty) == []
