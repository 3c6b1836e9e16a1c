"""Deep-pool extraction: the worklist against the naive full-scan oracle.

The scenario semi-naive resolution exists for: a long dependency chain
stretches the run over many iterations while a large pool of
never-resolving ambiguous sentences sits unresolved the whole time.  The
naive scan (:mod:`tests.extraction.naive`) re-attempts the entire pool
every iteration — O(iterations × pool) ``resolve()`` calls — where the
worklist attempts each pool sentence once, then only on candidate-index
wakes.  The worklist must reach byte-identical results for at least
1.5× less CPU time (it is typically far beyond that).
"""

from __future__ import annotations

import gc
import time

import pytest

from repro.config import ExtractionConfig
from repro.corpus import Corpus
from repro.corpus.sentence import Sentence
from repro.extraction import SemanticIterativeExtractor
from repro.kb.serialize import save_kb

from .naive import naive_extract

CHAIN_LENGTH = 90
POOL_DISTRACTORS = 1500
CONFIG = ExtractionConfig(max_iterations=120)


def deep_pool_corpus() -> Corpus:
    """A chain that resolves one sentence per iteration over a deep pool.

    * one unambiguous seed puts ``x0`` under ``chain``;
    * chain sentence ``i`` carries ``(x_i, x_{i+1})`` and can only resolve
      once ``x_i`` became visible — i.e. in iteration ``i + 2``;
    * the distractors are ambiguous sentences over instances that never
      become visible anywhere, so they stay pending for the whole run.
    """
    sentences = [
        Sentence(sid=0, surface="seed", concepts=("chain",),
                 instances=("x0",))
    ]
    for i in range(CHAIN_LENGTH):
        sentences.append(
            Sentence(
                sid=len(sentences),
                surface=f"chain{i}",
                concepts=("chain", "decoy"),
                instances=(f"x{i}", f"x{i + 1}"),
            )
        )
    for i in range(POOL_DISTRACTORS):
        sentences.append(
            Sentence(
                sid=len(sentences),
                surface=f"noise{i}",
                concepts=(f"p{i % 7}", f"q{i % 5}"),
                instances=(f"n{i}", f"n{i + POOL_DISTRACTORS}"),
            )
        )
    return Corpus(tuple(sentences))


@pytest.fixture(scope="module")
def runs():
    """Both runs over one corpus, each with the CPU time it took.

    Each timed region starts right after a full collection, so a cyclic-GC
    pass over the heap earlier tests left behind is not charged to
    whichever run happens to trigger it.
    """
    corpus = deep_pool_corpus()
    gc.collect()
    started = time.process_time()
    worklist = SemanticIterativeExtractor(CONFIG).run(corpus)
    worklist_cpu = time.process_time() - started
    gc.collect()
    started = time.process_time()
    naive = naive_extract(corpus, CONFIG)
    naive_cpu = time.process_time() - started
    return worklist, naive, worklist_cpu, naive_cpu


class TestDeepPool:
    @pytest.mark.parametrize("path", ["worklist", "naive"])
    def test_chain_resolves_over_a_pending_pool(self, runs, path):
        result = runs[0] if path == "worklist" else runs[1]
        assert result.iterations >= CHAIN_LENGTH
        assert result.kb.has_instance("chain", f"x{CHAIN_LENGTH}")
        assert len(result.unresolved_sids) == POOL_DISTRACTORS

    def test_worklist_matches_the_naive_scan_byte_for_byte(
        self, runs, tmp_path
    ):
        worklist, naive, _, _ = runs
        a, b = tmp_path / "worklist.jsonl", tmp_path / "naive.jsonl"
        save_kb(worklist.kb, a)
        save_kb(naive.kb, b)
        assert a.read_bytes() == b.read_bytes()
        assert list(worklist.log) == list(naive.log)

    def test_worklist_beats_the_naive_scan_on_cpu(self, runs):
        _, _, worklist_cpu, naive_cpu = runs
        assert naive_cpu >= 1.5 * worklist_cpu, (
            f"worklist {worklist_cpu:.3f}s vs naive {naive_cpu:.3f}s CPU — "
            "expected >= 1.5x improvement"
        )
