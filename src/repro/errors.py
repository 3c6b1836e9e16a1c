"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised deliberately by this library derive from
:class:`ReproError`, so callers can catch library failures without
accidentally swallowing programming errors such as :class:`TypeError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class WorldError(ReproError):
    """Raised when a ground-truth world is malformed or misused."""


class UnknownConceptError(WorldError):
    """Raised when a concept name does not exist in the world."""

    def __init__(self, concept: str) -> None:
        super().__init__(f"unknown concept: {concept!r}")
        self.concept = concept


class UnknownInstanceError(WorldError):
    """Raised when an instance name does not exist in the world."""

    def __init__(self, instance: str) -> None:
        super().__init__(f"unknown instance: {instance!r}")
        self.instance = instance


class CorpusError(ReproError):
    """Raised when corpus generation or parsing fails."""


class ExtractionError(ReproError):
    """Raised when the iterative extraction engine is misused."""


class KnowledgeBaseError(ReproError):
    """Raised on invalid knowledge-base operations (e.g. double removal)."""


class LearningError(ReproError):
    """Raised when a DP detector cannot be trained or applied."""


class NotFittedError(LearningError):
    """Raised when predict/transform is called before fit."""

    def __init__(self, what: str) -> None:
        super().__init__(f"{what} must be fitted before use")
        self.what = what


class ExperimentError(ReproError):
    """Raised when an experiment runner is misconfigured or unknown."""


class ServiceError(ReproError):
    """Raised on invalid streaming-service state (journal, checkpoint)."""
