"""The per-KB exclusion index and the builders of the detector's inputs."""

from .cache import AnalysisCache

__all__ = ["AnalysisCache"]
