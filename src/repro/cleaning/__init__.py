"""Cleaning strategies: DP-based cleaning plus the §5.3 baselines."""

from .base import BaseCleaner, CleaningResult
from .baselines import (
    MutualExclusionCleaner,
    PRDualRankCleaner,
    RWRankCleaner,
    TypeCheckingCleaner,
)
from .dp_cleaner import DPCleaner, RoundStats
from .intentional import SentenceCheck, check_extraction

__all__ = [
    "BaseCleaner",
    "CleaningResult",
    "DPCleaner",
    "MutualExclusionCleaner",
    "PRDualRankCleaner",
    "RWRankCleaner",
    "RoundStats",
    "SentenceCheck",
    "TypeCheckingCleaner",
    "check_extraction",
]
