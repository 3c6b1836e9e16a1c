"""Configuration dataclasses for every pipeline stage.

All knobs live here so that experiments are declarative: a
:class:`PipelineConfig` plus a seed fully determines the world, the corpus,
the extraction run, the detectors and the cleaning pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from collections.abc import Mapping

__all__ = [
    "ConceptProfile",
    "CorpusConfig",
    "ExtractionConfig",
    "SimilarityConfig",
    "LabelingConfig",
    "DetectorConfig",
    "CleaningConfig",
    "PipelineConfig",
]


@dataclass(frozen=True)
class ConceptProfile:
    """Per-concept corpus-generation behaviour.

    Parameters
    ----------
    sentence_share:
        Multiplier on the concept's popularity when allocating sentences.
    ambiguous_rate:
        Fraction of the concept's sentences that are ambiguous (two
        candidate concepts in the surface).
    drift_rate:
        Among ambiguous sentences generated about this concept's *sources*,
        the fraction targeted at this concept (drift fodder); the remainder
        of ambiguous sentences use a random benign modifier.
    bridge_rate:
        Fraction of drift-fodder sentences that explicitly include a
        polysemous bridge instance (the *chicken* mechanism).
    false_fact_rate:
        Probability that a sentence gets one instance swapped for a popular
        instance of a mutually exclusive concept (the *New York isA country*
        mechanism).
    typo_rate:
        Probability that a sentence gets one instance corrupted by a typo
        (non-drift noise).
    """

    sentence_share: float = 1.0
    ambiguous_rate: float = 0.35
    drift_rate: float = 0.55
    bridge_rate: float = 0.35
    false_fact_rate: float = 0.010
    typo_rate: float = 0.004

    def __post_init__(self) -> None:
        for name in ("ambiguous_rate", "drift_rate", "bridge_rate",
                     "false_fact_rate", "typo_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.sentence_share < 0:
            raise ValueError("sentence_share must be >= 0")

    def scaled(self, **overrides: float) -> "ConceptProfile":
        """Return a copy with the given fields replaced."""
        return replace(self, **overrides)


@dataclass(frozen=True)
class CorpusConfig:
    """Synthetic Hearst-corpus generation parameters.

    ``tail_bias_rate`` is the probability that a sentence enumerates
    obscure instances (uniform over the least-popular ``tail_fraction`` of
    a concept's members) instead of following Zipfian popularity.  Tail
    sentences are what stretch extraction over many iterations: their
    instances are rarely in the iteration-1 core, so they resolve only
    after other sentences have introduced one of their instances.
    """

    num_sentences: int = 50_000
    min_instances_per_sentence: int = 2
    max_instances_per_sentence: int = 5
    default_profile: ConceptProfile = field(default_factory=ConceptProfile)
    profiles: Mapping[str, ConceptProfile] = field(default_factory=dict)
    misparse_rate: float = 0.003
    duplicate_rate: float = 0.08
    tail_bias_rate: float = 0.35
    tail_fraction: float = 0.7

    def __post_init__(self) -> None:
        if self.num_sentences <= 0:
            raise ValueError("num_sentences must be positive")
        if not 2 <= self.min_instances_per_sentence <= self.max_instances_per_sentence:
            raise ValueError("instance count bounds must satisfy 2 <= min <= max")
        if not 0.0 <= self.misparse_rate <= 1.0:
            raise ValueError("misparse_rate must be in [0, 1]")
        if not 0.0 <= self.duplicate_rate <= 1.0:
            raise ValueError("duplicate_rate must be in [0, 1]")
        if not 0.0 <= self.tail_bias_rate <= 1.0:
            raise ValueError("tail_bias_rate must be in [0, 1]")
        if not 0.0 < self.tail_fraction <= 1.0:
            raise ValueError("tail_fraction must be in (0, 1]")

    def profile_for(self, concept: str) -> ConceptProfile:
        """The effective profile for a concept (falls back to the default)."""
        return self.profiles.get(concept, self.default_profile)


@dataclass(frozen=True)
class ExtractionConfig:
    """Semantic iterative extraction parameters.

    ``max_iterations`` counts the core iteration 1, so each batch gets
    at most ``max_iterations - 1`` resolution rounds.  ``stream_chunks``
    spreads each batch's ambiguous sentences over that many arrival
    iterations.  Resolution always runs on the evidence-indexed worklist
    (:mod:`repro.extraction.index`).
    """

    max_iterations: int = 100
    policy: str = "nearest"  # "nearest" or "max_evidence"
    stream_chunks: int = 1

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.policy not in ("nearest", "max_evidence"):
            raise ValueError(f"unknown resolution policy: {self.policy!r}")
        if self.stream_chunks < 1:
            raise ValueError("stream_chunks must be >= 1")


@dataclass(frozen=True)
class SimilarityConfig:
    """Concept-similarity thresholds (§3.2.1, Fig. 4).

    The paper uses ``exclusive < 1e-4`` on cores of 10⁴–10⁶ instances; our
    synthetic cores are 10²–10³, where a single shared instance already
    yields ≈2e-3 cosine, so the library default scales the exclusive
    threshold up.  ``similar > 0.1`` transfers unchanged.
    """

    exclusive_threshold: float = 0.02
    similar_threshold: float = 0.1
    min_core_size: int = 3

    def __post_init__(self) -> None:
        if not 0.0 <= self.exclusive_threshold < self.similar_threshold <= 1.0:
            raise ValueError(
                "thresholds must satisfy 0 <= exclusive < similar <= 1"
            )
        if self.min_core_size < 1:
            raise ValueError("min_core_size must be >= 1")


@dataclass(frozen=True)
class LabelingConfig:
    """Seed-labelling parameters (§3.2).

    The paper settles on ``k = 4`` for its web-scale evidence counts; our
    synthetic corpora have flatter count distributions, and the Fig. 5b
    sweep lands on ``k = 2`` as the best yield at near-perfect precision.

    ``verified_fraction`` is the share of true extracted pairs assumed to
    come from a verified source (the paper's "verified sources (such as
    Wikipedia)"); the pipeline samples them from the ground-truth world.
    """

    evidence_threshold_k: int = 2
    verified_fraction: float = 0.04

    def __post_init__(self) -> None:
        if self.evidence_threshold_k < 0:
            raise ValueError("evidence_threshold_k must be >= 0")
        if not 0.0 <= self.verified_fraction <= 1.0:
            raise ValueError("verified_fraction must be in [0, 1]")


@dataclass(frozen=True)
class DetectorConfig:
    """DP-detector learning parameters (§3.3)."""

    kpca_components: int = 15
    kpca_gamma: float | None = 2.0
    kpca_sample_size: int = 600
    k_neighbors: int = 5
    local_reg: float = 0.1
    lam: float = 0.1
    beta: float = 0.1
    gamma: float = 0.01
    training_iterations: int = 20
    tolerance: float = 1e-6
    # Decision-threshold shift for the 3-way arg-max: DP seeds are scarce
    # relative to non-DPs even after loss balancing, so the F1-optimal
    # operating point handicaps the non-DP score slightly.  Cleaning
    # overrides this with the higher CleaningConfig.cleaning_non_dp_bias.
    non_dp_bias: float = 0.3

    def __post_init__(self) -> None:
        if self.kpca_components < 1:
            raise ValueError("kpca_components must be >= 1")
        if self.k_neighbors < 1:
            raise ValueError("k_neighbors must be >= 1")
        for name in ("local_reg", "lam", "beta", "gamma"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.training_iterations < 1:
            raise ValueError("training_iterations must be >= 1")


@dataclass(frozen=True)
class CleaningConfig:
    """DP-based cleaning parameters (§4).

    ``accidental_max_count`` is a Property-3 guard: an Accidental DP is by
    definition supported by very weak evidence (usually one sentence), so
    a detector vote of "accidental" against a well-evidenced pair is
    treated as a false positive and ignored rather than rolled back.

    ``cleaning_non_dp_bias`` puts the detector on a high-recall operating
    point *during cleaning only*: the cleaner's definition-level guards and
    Eq. 21 arbitration absorb false DP flags cheaply, while every missed DP
    leaves its whole error cascade in place.
    """

    accidental_max_count: int = 3
    cleaning_non_dp_bias: float = 1.0

    def __post_init__(self) -> None:
        if self.accidental_max_count < 1:
            raise ValueError("accidental_max_count must be >= 1")
        if self.cleaning_non_dp_bias < 0:
            raise ValueError("cleaning_non_dp_bias must be >= 0")


@dataclass(frozen=True)
class PipelineConfig:
    """Everything needed to run the full pipeline deterministically."""

    seed: int = 20140324
    corpus: CorpusConfig = field(default_factory=CorpusConfig)
    extraction: ExtractionConfig = field(default_factory=ExtractionConfig)
    similarity: SimilarityConfig = field(default_factory=SimilarityConfig)
    labeling: LabelingConfig = field(default_factory=LabelingConfig)
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    cleaning: CleaningConfig = field(default_factory=CleaningConfig)
