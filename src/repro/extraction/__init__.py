"""Semantic-based iterative extraction substrate."""

from .engine import (
    BatchExtraction,
    ExtractionResult,
    IncrementalExtractor,
    SemanticIterativeExtractor,
)
from .index import CandidateIndex, ResolutionWorklist
from .trigger import POLICIES, Resolution, resolve

__all__ = [
    "BatchExtraction",
    "CandidateIndex",
    "ExtractionResult",
    "IncrementalExtractor",
    "POLICIES",
    "Resolution",
    "ResolutionWorklist",
    "SemanticIterativeExtractor",
    "resolve",
]
