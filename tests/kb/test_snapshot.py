"""Tests for iteration logs."""

from __future__ import annotations

from repro.kb import IterationLog


class TestIterationLog:
    def test_record_and_iterate(self):
        log = IterationLog()
        log.record(iteration=1, sentences_resolved=10, new_pairs=5, total_pairs=5)
        log.record(iteration=2, sentences_resolved=4, new_pairs=3, total_pairs=8)
        assert len(log) == 2
        assert log.iterations == 2
        assert [e.iteration for e in log] == [1, 2]
