"""repro — reproduction of *Overcoming Semantic Drift in Information
Extraction* (Li et al., EDBT 2014).

The library builds every system the paper's evaluation depends on:

* a generative ground-truth world and synthetic Hearst web corpus
  (:mod:`repro.world`, :mod:`repro.corpus`);
* semantic-based iterative isA extraction with full provenance
  (:mod:`repro.extraction`, :mod:`repro.kb`);
* instance ranking, concept similarity, DP features and seed labelling
  (:mod:`repro.ranking`, :mod:`repro.concepts`, :mod:`repro.features`,
  :mod:`repro.labeling`);
* the DP detectors — kernel PCA + semi-supervised multi-task learning and
  all Table 4 baselines (:mod:`repro.learning`);
* DP-based cleaning with cascading rollback and the four §5.3 comparison
  cleaners (:mod:`repro.cleaning`);
* metrics and one runner per table/figure (:mod:`repro.evaluation`,
  :mod:`repro.experiments`);
* a structured run context threaded through every stage — span tracing
  (:mod:`repro.runtime`).

Quickstart::

    from repro import Pipeline, run_experiment

    result = run_experiment("table3", pipeline=Pipeline())
    report = result.text  # formatted table, ready to render

The library itself never writes to stdout (``scripts/check_layering.py``
allows ``print`` in ``repro/cli.py`` only): stages record spans through
their :class:`~repro.runtime.context.RunContext`, and return reports —
such as the :class:`~repro.service.session.BatchReport` of each
``IngestSession.ingest()`` — that front-ends render as they want.  Spans
are observation only.  Pass ``Pipeline().run(trace="out.jsonl")`` — or
``repro run <experiment> --trace out.jsonl`` — to export the span tree.
"""

from .cleaning import (
    DPCleaner,
    MutualExclusionCleaner,
    PRDualRankCleaner,
    RWRankCleaner,
    TypeCheckingCleaner,
)
from .config import (
    ConceptProfile,
    CorpusConfig,
    DetectorConfig,
    ExtractionConfig,
    LabelingConfig,
    PipelineConfig,
    SimilarityConfig,
)
from .corpus import Corpus, CorpusGenerator, Sentence, generate_corpus
from .errors import ReproError
from .evaluation import GroundTruth, cleaning_metrics, detection_metrics
from .experiments import (
    Pipeline,
    PipelineArtifacts,
    experiment_config,
    experiment_names,
    run_experiment,
)
from .extraction import SemanticIterativeExtractor
from .kb import IsAPair, KnowledgeBase, RollbackEngine
from .labeling import DPLabel, EvidenceIndex, SeedLabeler
from .learning import DPDetector
from .runtime import NULL_CONTEXT, RunContext, Tracer
from .service import CheckpointStore, IngestPolicy, IngestSession
from .world import World, WorldBuilder, paper_world, toy_world

__version__ = "1.0.0"

__all__ = [
    "ConceptProfile",
    "Corpus",
    "CorpusConfig",
    "CorpusGenerator",
    "DPCleaner",
    "DPDetector",
    "DPLabel",
    "DetectorConfig",
    "EvidenceIndex",
    "ExtractionConfig",
    "CheckpointStore",
    "GroundTruth",
    "IngestPolicy",
    "IngestSession",
    "IsAPair",
    "KnowledgeBase",
    "LabelingConfig",
    "MutualExclusionCleaner",
    "NULL_CONTEXT",
    "PRDualRankCleaner",
    "Pipeline",
    "PipelineArtifacts",
    "PipelineConfig",
    "RWRankCleaner",
    "ReproError",
    "RollbackEngine",
    "RunContext",
    "Tracer",
    "SeedLabeler",
    "SemanticIterativeExtractor",
    "Sentence",
    "SimilarityConfig",
    "TypeCheckingCleaner",
    "World",
    "WorldBuilder",
    "cleaning_metrics",
    "detection_metrics",
    "experiment_config",
    "experiment_names",
    "generate_corpus",
    "paper_world",
    "run_experiment",
    "toy_world",
    "__version__",
]
