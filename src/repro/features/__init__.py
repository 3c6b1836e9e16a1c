"""The paper's four DP features and design-matrix helpers."""

from .distribution import normalize_counts
from .extractor import FEATURE_NAMES, FeatureExtractor, FeatureVector
from .matrix import ConceptMatrix

__all__ = [
    "ConceptMatrix",
    "FEATURE_NAMES",
    "FeatureExtractor",
    "FeatureVector",
    "normalize_counts",
]
