"""Deep-pool extraction benchmarks: worklist vs. the naive full-scan oracle.

The scenario semi-naive resolution exists for: a long dependency chain
stretches the run over many iterations while a large pool of
never-resolving ambiguous sentences sits unresolved the whole time.  The
naive scan (the test oracle in ``tests/extraction/naive.py``) re-attempts
the entire pool every iteration — O(iterations × pool) ``resolve()``
calls — where the worklist attempts each pool sentence once, then only
on evidence-index wakes.

``test_bench_extraction_worklist_speedup`` pins the acceptance criterion:
the worklist path must beat the naive path by >= 1.5x in CPU time on this
corpus (it is typically far beyond that), with byte-identical results.
"""

from __future__ import annotations

import time

import pytest

from repro.config import ExtractionConfig
from repro.corpus.corpus import Corpus
from repro.corpus.sentence import Sentence
from repro.extraction import SemanticIterativeExtractor
from repro.kb.serialize import save_kb
from tests.extraction.naive import naive_extract

from .conftest import run_once

CHAIN_LENGTH = 90
POOL_DISTRACTORS = 1500
MAX_ITERATIONS = 120


def _deep_pool_corpus() -> Corpus:
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
    sid = 1
    for i in range(CHAIN_LENGTH):
        sentences.append(
            Sentence(
                sid=sid,
                surface=f"chain{i}",
                concepts=("chain", "decoy"),
                instances=(f"x{i}", f"x{i + 1}"),
            )
        )
        sid += 1
    for i in range(POOL_DISTRACTORS):
        sentences.append(
            Sentence(
                sid=sid,
                surface=f"noise{i}",
                concepts=(f"p{i % 7}", f"q{i % 5}"),
                instances=(f"n{i}", f"n{i + POOL_DISTRACTORS}"),
            )
        )
        sid += 1
    return Corpus(tuple(sentences))


CONFIG = ExtractionConfig(max_iterations=MAX_ITERATIONS)


@pytest.fixture(scope="module")
def deep_pool_corpus():
    return _deep_pool_corpus()


def _check(result) -> None:
    assert result.iterations >= CHAIN_LENGTH
    assert result.kb.has_instance("chain", f"x{CHAIN_LENGTH}")
    assert len(result.unresolved_sids) == POOL_DISTRACTORS


def test_bench_extraction_worklist_deep_pool(benchmark, deep_pool_corpus):
    """Delta-driven resolution over the deep-pool chain corpus."""
    def run():
        return SemanticIterativeExtractor(CONFIG).run(deep_pool_corpus)

    _check(run_once(benchmark, run))


def test_bench_extraction_naive_deep_pool(benchmark, deep_pool_corpus):
    """The naive full-scan oracle over the same corpus (the reference cost)."""
    def run():
        return naive_extract(deep_pool_corpus, CONFIG)

    _check(run_once(benchmark, run))


def test_bench_extraction_worklist_speedup(
    benchmark, deep_pool_corpus, tmp_path
):
    """Acceptance pin: >= 1.5x CPU-time win, byte-identical results."""
    def run():
        start = time.process_time()
        delta = SemanticIterativeExtractor(CONFIG).run(deep_pool_corpus)
        delta_cpu = time.process_time() - start
        start = time.process_time()
        naive = naive_extract(deep_pool_corpus, CONFIG)
        naive_cpu = time.process_time() - start
        return delta, naive, delta_cpu, naive_cpu

    delta, naive, delta_cpu, naive_cpu = run_once(benchmark, run)
    _check(delta)
    a, b = tmp_path / "delta.jsonl", tmp_path / "naive.jsonl"
    save_kb(delta.kb, a)
    save_kb(naive.kb, b)
    assert a.read_bytes() == b.read_bytes()
    assert list(delta.log) == list(naive.log)
    assert naive_cpu >= 1.5 * delta_cpu, (
        f"worklist {delta_cpu:.3f}s vs naive {naive_cpu:.3f}s CPU — "
        "expected >= 1.5x improvement"
    )
