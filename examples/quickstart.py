#!/usr/bin/env python
"""Quickstart: watch semantic drift happen, then clean it away.

Builds a small ground-truth world, generates a Hearst corpus, runs the
semantic iterative extractor (drift emerges), and then runs the paper's
DP-based cleaning.  Prints precision before and after.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import (
    ConceptProfile,
    CorpusConfig,
    ExtractionConfig,
    GroundTruth,
    SemanticIterativeExtractor,
    cleaning_metrics,
    generate_corpus,
    toy_world,
)
from repro.experiments.pipeline import Pipeline, experiment_config
from repro.world import paper_world


def main() -> None:
    # ------------------------------------------------------------------
    # 1. A world and a corpus.
    # ------------------------------------------------------------------
    preset = toy_world(seed=7)
    world = preset.world
    print(f"world: {world}")
    print(f"polysemous bridges: {sorted(world.polysemous_instances())[:5]}")

    corpus = generate_corpus(
        world,
        CorpusConfig(
            num_sentences=1500,
            profiles=preset.profiles,
            default_profile=ConceptProfile(ambiguous_rate=0.5),
        ),
        seed=11,
    )
    print(f"corpus: {len(corpus)} sentences "
          f"({len(corpus.ambiguous())} ambiguous)")
    sample = corpus.ambiguous()[0]
    print(f"sample ambiguous sentence: {sample.surface!r}")

    # ------------------------------------------------------------------
    # 2. Iterative extraction — drift emerges.
    # ------------------------------------------------------------------
    result = SemanticIterativeExtractor(
        ExtractionConfig(stream_chunks=4)
    ).run(corpus)
    kb = result.kb
    truth = GroundTruth(world, kb)
    print(f"\nextraction: {len(kb)} pairs over {result.iterations} iterations")
    for concept in preset.target_concepts:
        summary = truth.concept_truth(concept)
        print(f"  {concept:<8} {summary.instances:>4} instances, "
              f"{summary.error_rate:.0%} errors, "
              f"{summary.intentional_dps} intentional / "
              f"{summary.accidental_dps} accidental DPs")

    # ------------------------------------------------------------------
    # 3. DP-based cleaning at paper scale needs the full pipeline (the
    #    detector wants many concepts to share knowledge across); for the
    #    quickstart we use a small paper world.
    # ------------------------------------------------------------------
    print("\nrunning the full pipeline on a small paper-like world ...")
    paper_preset = paper_world(seed=7, scale=0.8)
    pipeline = Pipeline(
        preset=paper_preset,
        config=experiment_config(
            num_sentences=5000, seed=7, profiles=paper_preset.profiles
        ),
    )
    extraction = pipeline.extract()
    paper_truth = GroundTruth(paper_preset.world, extraction.kb)
    before = {
        concept: extraction.kb.instances_of(concept)
        for concept in extraction.kb.concepts()
    }
    cleaner = pipeline.dp_cleaner()
    cleaner.clean(extraction.kb, extraction.corpus)
    after = {c: extraction.kb.instances_of(c) for c in before}
    metrics = cleaning_metrics(
        paper_truth, before, after, paper_preset.target_concepts
    )
    print(f"  errors removed with precision   p_error = {metrics.p_error:.3f}")
    print(f"  errors removed with recall      r_error = {metrics.r_error:.3f}")
    print(f"  remaining knowledge precision   p_corr  = {metrics.p_corr:.3f}")
    print(f"  correct knowledge preserved     r_corr  = {metrics.r_corr:.3f}")


if __name__ == "__main__":
    main()
