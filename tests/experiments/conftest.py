"""Shared fixtures for experiment tests.

The experiments run on the session-wide ``small_pipeline`` (see
``tests/conftest.py``); the analysed artefacts are session-scoped and
read-only.
"""

from __future__ import annotations

import pytest


@pytest.fixture(scope="session")
def small_artifacts(small_pipeline):
    return small_pipeline.analyze(fit_detector=False)
