"""Configuration dataclasses for every pipeline stage.

The knobs a caller varies live here, so that experiments are declarative:
a :class:`PipelineConfig` plus a seed fully determines the world, the
corpus, the extraction run, the detectors and the cleaning pass.  A
hyperparameter every caller leaves at one value is a module constant
beside the code that reads it.
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
    iterations.  Resolution always runs on the candidate-indexed worklist
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
    """

    evidence_threshold_k: int = 2

    def __post_init__(self) -> None:
        if self.evidence_threshold_k < 0:
            raise ValueError("evidence_threshold_k must be >= 0")


@dataclass(frozen=True)
class DetectorConfig:
    """DP-detector training parameters (§3.3); Fig. 5c sets its own.

    The embedding and regularisation constants live in
    :mod:`repro.learning.embedding` and :mod:`repro.learning.detector`.
    """

    training_iterations: int = 20
    tolerance: float = 1e-6
    # Decision-threshold shift for the 3-way arg-max: DP seeds are scarce
    # relative to non-DPs even after loss balancing, so the F1-optimal
    # operating point handicaps the non-DP score slightly.  Cleaning
    # overrides this with the higher dp_cleaner.CLEANING_NON_DP_BIAS.
    non_dp_bias: float = 0.3

    def __post_init__(self) -> None:
        if self.training_iterations < 1:
            raise ValueError("training_iterations must be >= 1")


@dataclass(frozen=True)
class PipelineConfig:
    """Everything needed to run the full pipeline deterministically."""

    seed: int = 20140324
    corpus: CorpusConfig = field(default_factory=CorpusConfig)
    extraction: ExtractionConfig = field(default_factory=ExtractionConfig)
    similarity: SimilarityConfig = field(default_factory=SimilarityConfig)
    labeling: LabelingConfig = field(default_factory=LabelingConfig)
    detector: DetectorConfig = field(default_factory=DetectorConfig)
