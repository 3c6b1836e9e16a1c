"""Semantic-based iterative extraction substrate."""

from .engine import (
    BatchExtraction,
    ExtractionResult,
    IncrementalExtractor,
    SemanticIterativeExtractor,
)
from .index import EvidenceIndex, ResolutionWorklist
from .trigger import POLICIES, Resolution, resolve

__all__ = [
    "BatchExtraction",
    "EvidenceIndex",
    "ExtractionResult",
    "IncrementalExtractor",
    "POLICIES",
    "Resolution",
    "ResolutionWorklist",
    "SemanticIterativeExtractor",
    "resolve",
]
