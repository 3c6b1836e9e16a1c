"""End-to-end pipeline: world → corpus → extraction → indexes → detector.

Every experiment runner consumes :class:`PipelineArtifacts` built here, so
the whole evaluation is reproducible from a single
:class:`~repro.config.PipelineConfig` plus a world preset.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from collections.abc import Mapping
from typing import NamedTuple

from ..analysis.cache import AnalysisCache
from ..cleaning.dp_cleaner import CLEANING_NON_DP_BIAS, DetectFn, DPCleaner
from ..concepts.exclusion import MutualExclusionIndex
from ..config import ConceptProfile, CorpusConfig, ExtractionConfig, PipelineConfig
from ..corpus.corpus import Corpus
from ..corpus.generator import CorpusGenerator
from ..evaluation.ground_truth import GroundTruth
from ..extraction.engine import ExtractionResult, SemanticIterativeExtractor
from ..features.extractor import FeatureExtractor
from ..features.matrix import ConceptMatrix
from ..kb.pair import IsAPair
from ..kb.store import KnowledgeBase
from ..labeling.evidence import EvidenceIndex
from ..labeling.labels import DPLabel
from ..labeling.rules import SeedLabelSet
from ..learning.detector import DetectorRefitCache, DPDetector
from ..nlp.ner import SimulatedNER
from ..ranking.random_walk import RandomWalkRanker
from ..rng import RandomStreams
from ..runtime.collector import collector_paused
from ..runtime.context import RunContext
from ..service.policy import IngestPolicy
from ..service.session import IngestSession
from ..world.presets import WorldPreset, paper_world

__all__ = ["PipelineArtifacts", "Pipeline", "experiment_config"]

#: Share of true extracted pairs taken to come from a verified source
#: (§3.2.2, "such as Wikipedia"), sampled from the ground-truth world.
VERIFIED_FRACTION = 0.04


def experiment_config(
    num_sentences: int = 24_000,
    seed: int = 20140324,
    profiles: Mapping[str, ConceptProfile] | None = None,
) -> PipelineConfig:
    """The configuration the paper-scale experiments run with."""
    return PipelineConfig(
        seed=seed,
        corpus=CorpusConfig(
            num_sentences=num_sentences,
            profiles=dict(profiles or {}),
            default_profile=ConceptProfile(ambiguous_rate=0.65),
            tail_bias_rate=0.55,
        ),
        extraction=ExtractionConfig(stream_chunks=9),
    )


class _Inputs(NamedTuple):
    """The detector's inputs over one KB; names match PipelineArtifacts."""

    exclusion: MutualExclusionIndex
    scores: dict[str, dict[str, float]]
    features: FeatureExtractor
    matrices: dict[str, ConceptMatrix]
    verified: frozenset[IsAPair]
    evidence: EvidenceIndex
    seeds: SeedLabelSet


@dataclass
class PipelineArtifacts:
    """Everything a pipeline run produced, ready for the experiments."""

    preset: WorldPreset
    config: PipelineConfig
    corpus: Corpus
    extraction: ExtractionResult
    exclusion: MutualExclusionIndex
    scores: dict[str, dict[str, float]]
    features: FeatureExtractor
    matrices: dict[str, ConceptMatrix]
    verified: frozenset[IsAPair]
    evidence: EvidenceIndex
    seeds: SeedLabelSet
    truth: GroundTruth
    detector: DPDetector | None = None
    _ner: SimulatedNER | None = field(default=None, repr=False)

    @property
    def kb(self) -> KnowledgeBase:
        """The (mutable) post-extraction knowledge base."""
        return self.extraction.kb

    @property
    def world(self):
        """The generative ground-truth world."""
        return self.preset.world

    @property
    def target_concepts(self) -> tuple[str, ...]:
        """The evaluation concepts (Table 1's 20 in the paper preset)."""
        return self.preset.target_concepts

    def concept_instances(self) -> dict[str, frozenset[str]]:
        """Snapshot of per-concept alive instances (for before/after)."""
        return {
            concept: self.kb.instances_of(concept)
            for concept in self.kb.concepts()
        }

    def ner(self, accuracy: float = 0.9) -> SimulatedNER:
        """The simulated NER over this world's gazetteer (cached)."""
        if self._ner is None or self._ner.accuracy != accuracy:
            self._ner = SimulatedNER(
                self.world.gazetteer(), accuracy=accuracy,
                seed=self.config.seed,
            )
        return self._ner

    def diagnose(self, concept: str, instance: str) -> dict:
        """Everything the pipeline knows about one (concept, instance).

        A debugging/analysis view used by examples and notebooks: ground
        truth, evidence, features, provenance and (when a detector is
        fitted) the predicted DP class.
        """
        kb = self.kb
        pair = IsAPair(concept, instance)
        report: dict = {
            "concept": concept,
            "instance": instance,
            "in_kb": pair in kb,
            "truth": {
                "correct": self.truth.is_correct(concept, instance),
                "drifting_error": self.truth.is_drifting_error(
                    concept, instance
                ),
                "typo_error": self.truth.is_typo_error(concept, instance),
                "dp_label": getattr(
                    self.truth.dp_label(concept, instance), "value", None
                ),
            },
        }
        if pair in kb:
            report["evidence"] = {
                "count": kb.count(pair),
                "core_count": kb.core_count(pair),
                "first_iteration": kb.first_iteration(pair),
            }
            report["sub_instances"] = kb.sub_instance_counts(concept, instance)
            report["features"] = self.features.extract(
                concept, instance
            ).as_tuple()
            report["random_walk_score"] = self.scores.get(concept, {}).get(
                instance, 0.0
            )
            report["also_under"] = sorted(
                kb.concepts_with_instance(instance) - {concept}
            )
        seed = next(
            (
                s.label.value
                for s in self.seeds.labels_for(concept)
                if s.instance == instance
            ),
            None,
        )
        report["seed_label"] = seed
        if self.detector is not None:
            report["detected"] = getattr(
                self.detector.predict_concept(concept).get(instance),
                "value",
                None,
            )
        return report


class Pipeline:
    """Builds :class:`PipelineArtifacts` deterministically."""

    def __init__(
        self,
        preset: WorldPreset | None = None,
        config: PipelineConfig | None = None,
        scale: float = 4.0,
    ) -> None:
        self._preset = preset or paper_world(scale=scale)
        if config is None:
            config = experiment_config(profiles=self._preset.profiles)
        elif not config.corpus.profiles and self._preset.profiles:
            config = replace(
                config,
                corpus=replace(
                    config.corpus, profiles=dict(self._preset.profiles)
                ),
            )
        self._config = config
        self._streams = RandomStreams(config.seed)
        self._corpus: Corpus | None = None
        self._extraction: ExtractionResult | None = None
        # One context for every stage: its (optional) tracer observes the
        # run.
        self._ctx = RunContext()
        # One ranker for every stage: its mutation-versioned score cache
        # makes repeated score_all calls (analysis, per-round detection
        # refits during cleaning) re-rank only concepts the KB mutated.
        self._ranker = RandomWalkRanker(context=self._ctx)
        # One analysis cache behind analyze(), every detection callback
        # and every cleaner this pipeline hands out: it keeps one
        # incrementally refreshed exclusion index per KB, so the index
        # detection refreshes is the one the cleaner's guards query.
        self._analysis = AnalysisCache(
            similarity=self._config.similarity, context=self._ctx
        )

    @property
    def preset(self) -> WorldPreset:
        """The world preset in use."""
        return self._preset

    @property
    def config(self) -> PipelineConfig:
        """The pipeline configuration in use."""
        return self._config

    @property
    def analysis(self) -> AnalysisCache:
        """The shared per-KB exclusion index and detector-input builders."""
        return self._analysis

    @property
    def ranker(self) -> RandomWalkRanker:
        """The shared ranker behind analysis, detection and cleaning."""
        return self._ranker

    @property
    def context(self) -> RunContext:
        """The run context threaded through every stage."""
        return self._ctx

    # ------------------------------------------------------------------
    # Stages
    # ------------------------------------------------------------------
    def corpus(self) -> Corpus:
        """Generate (and cache) the corpus."""
        if self._corpus is None:
            with self._ctx.span("corpus.generate") as span:
                generator = CorpusGenerator(
                    self._preset.world,
                    self._config.corpus,
                    self._streams.stream("corpus"),
                )
                self._corpus = generator.generate()
                span.add("sentences", len(self._corpus.sentences))
        return self._corpus

    @collector_paused
    def extract(self) -> ExtractionResult:
        """An extraction over the (cached) corpus with a KB of its own.

        The extractor runs once per pipeline and its result stays private;
        every call returns it with a :meth:`KnowledgeBase.copy` of its
        knowledge base, so each caller (each cleaner) gets an independent
        KB identical to a fresh extraction's.  The corpus, iteration log
        and unresolved sids are shared: treat them as read-only.
        """
        if self._extraction is None:
            extractor = SemanticIterativeExtractor(
                self._config.extraction, context=self._ctx
            )
            self._extraction = extractor.run(self.corpus())
        with self._ctx.span("kb.copy") as span:
            kb = self._extraction.kb.copy()
            span.add("records", kb.num_records)
            span.add("pairs", len(kb))
        return replace(self._extraction, kb=kb)

    @collector_paused
    def analyze(
        self,
        extraction: ExtractionResult | None = None,
        fit_detector: bool = True,
    ) -> PipelineArtifacts:
        """Build all downstream indexes over one extraction."""
        extraction = extraction or self.extract()
        kb = extraction.kb
        with self._ctx.span("analysis.build") as span:
            inputs = self._inputs(kb)
            span.set(concepts=len(inputs.matrices))
        truth = GroundTruth(self._preset.world, kb)
        detector = None
        if fit_detector:
            detector = DPDetector(
                self._config.detector,
                seed=self._streams.stream("detector"),
                context=self._ctx,
            )
            detector.fit(inputs.matrices, inputs.seeds)
        return PipelineArtifacts(
            preset=self._preset,
            config=self._config,
            corpus=extraction.corpus,
            extraction=extraction,
            truth=truth,
            detector=detector,
            **inputs._asdict(),
        )

    def run(self, trace: str | None = None) -> PipelineArtifacts:
        """Corpus → extraction → full analysis with a fitted detector.

        ``trace`` names a JSONL file to export the span tree to; passing
        it turns tracing on for this pipeline's context.  Tracing is
        observation-only: traced and untraced runs produce bit-identical
        artifacts (pinned by ``tests/runtime/test_trace_identity.py``).
        """
        if trace is not None:
            self._ctx.ensure_tracer()
        artifacts = self.analyze()
        if trace is not None:
            self._ctx.export_trace(trace)
        return artifacts

    def session(
        self,
        policy: IngestPolicy | None = None,
        checkpoint_dir=None,
        checkpoint_every: int = 0,
        resume: bool = False,
    ) -> IngestSession:
        """A streaming ingestion session on this pipeline's substrate.

        The session cleans with :meth:`dp_cleaner`, so it shares the
        pipeline's ranker score cache, exclusion indexes and run context.
        Each cleaning pass gets a *fresh* cleaner whose :meth:`detect_fn`
        callback fits under the session's own refit cache: drift passes
        reuse the session's detector embedding, staleness and forced
        passes refit it, and no basis is shared with another session or
        a one-shot cleaner.  A forced pass refits, so batch mode is the
        degenerate session: the whole corpus as one batch with cleaning
        forced reproduces ``extract()`` + ``dp_cleaner().clean()``
        bit-identically (pinned by ``tests/service/test_equivalence.py``).
        """
        return IngestSession(
            config=self._config,
            cleaner_factory=self.dp_cleaner,
            policy=policy,
            analysis=self._analysis,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=checkpoint_every,
            resume=resume,
            context=self._ctx,
        )

    def dp_cleaner(
        self, refit_cache: DetectorRefitCache | None = None
    ) -> DPCleaner:
        """A DP cleaner wired to this pipeline's detection, ranker, analysis
        cache and context; its detection fits under ``refit_cache`` (see
        :meth:`detect_fn`)."""
        return DPCleaner(
            self.detect_fn(refit_cache),
            ranker=self._ranker,
            context=self._ctx,
            analysis=self._analysis,
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def analysis_concepts(self, kb: KnowledgeBase) -> list[str]:
        """Concepts worth analysing: real world concepts with instances.

        Mis-parse junk concepts (an instance surface acting as a concept)
        are excluded from detector training, as the paper's 13.5 M mostly
        tiny concepts were dominated by its one million analysed ones.
        """
        world = self._preset.world
        return sorted(
            concept for concept in kb.concepts() if concept in world
        )

    def detect_fn(
        self, refit_cache: DetectorRefitCache | None = None
    ) -> DetectFn:
        """Detection callback for the DP cleaner: refit on the current KB.

        Cleaning runs the detector at a high-recall operating point
        (:data:`~repro.cleaning.dp_cleaner.CLEANING_NON_DP_BIAS`) because
        the cleaner's guards make false DP flags cheap while missed DPs
        leave whole cascades in place.

        Every call of the returned callback rebuilds the detector's inputs
        (see :meth:`_inputs`) over the pipeline's shared exclusion index.
        It fits under ``refit_cache``, which keeps the embedding
        (standardisation + KPCA basis) fitted by the first fit under it
        for every later one, and the KPCA transforms and manifold
        regularisers of matrices whose content has not changed since a
        previous fit.  A session passes its own cache, so its drift
        passes reuse one basis; without one the callback gets a fresh
        cache, and its first call fits.
        """
        config = replace(
            self._config.detector, non_dp_bias=CLEANING_NON_DP_BIAS
        )
        if refit_cache is None:
            refit_cache = DetectorRefitCache()

        def detect(kb: KnowledgeBase) -> dict[str, dict[str, DPLabel]]:
            with self._ctx.span("analysis.refresh") as span:
                inputs = self._inputs(kb)
                span.set(concepts=len(inputs.matrices))
                detector = DPDetector(
                    config,
                    seed=self._streams.stream("detector"),
                    context=self._ctx,
                )
                detector.fit(
                    inputs.matrices, inputs.seeds, refit_cache=refit_cache
                )
                return detector.predict_all()

        return detect

    def _inputs(self, kb: KnowledgeBase) -> _Inputs:
        """Everything the detector is fitted on, built afresh over ``kb``."""
        concepts = self.analysis_concepts(kb)
        span = self._ctx.span
        with span("analysis.exclusion"):
            exclusion = self._analysis.exclusion(kb)
        scores = self._ranker.score_all(kb, concepts)
        features = FeatureExtractor(kb, exclusion, scores)
        with span("analysis.matrices"):
            matrices = self._analysis.matrices(kb, concepts, features)
        with span("analysis.verified"):
            verified = self._analysis.verified(
                kb, concepts, self._verified_concept
            )
        with span("analysis.seeds"):
            evidence = EvidenceIndex(
                kb, self._config.labeling, verified=verified
            )
            seeds = self._analysis.seeds(kb, concepts, evidence)
        return _Inputs(
            exclusion, scores, features, matrices, verified, evidence, seeds
        )

    def _verified_concept(
        self, kb: KnowledgeBase, concept: str
    ) -> frozenset[IsAPair]:
        """One concept's verified sample (own RNG substream).

        The draw sequence depends only on the concept's own alive
        instances, so a rollback elsewhere cannot shift it.
        """
        members = self._preset.world.members(concept)
        candidates = [
            instance
            for instance in kb.concept_state(concept).names
            if instance in members
        ]
        # One draw per true member, in sorted order: the array form draws
        # exactly the values a per-instance rng.random() loop would.
        draws = self._streams.stream(f"verified:{concept}").random(
            len(candidates)
        )
        return frozenset(
            IsAPair(concept, instance)
            for instance, draw in zip(candidates, draws)
            if draw < VERIFIED_FRACTION
        )
