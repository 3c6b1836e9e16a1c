"""The repository benchmark's per-layer wrappers observe without changing.

``perfbench/layers.py`` times the program from outside: it patches each
layer's public entry points for one traced pass, including
``Pipeline.detect_fn``, whose returned detection callbacks it wraps in a
timing proxy.  These tests hold the program to that contract: a session
with cleaning runs under the installed wrappers, every cleaning round
refreshes detection through the proxy exactly once, and the session ends
byte-identical to an unwrapped one.  The wrappers patch methods by reading
the class ``__dict__``, so the methods that pause the cyclic collector
(``repro.runtime.collector_paused``) must stay plain functions there, and
the collector must be back on after either session.
"""

from __future__ import annotations

import gc
import importlib.util
import inspect
from pathlib import Path

import pytest

from repro.cleaning import DPCleaner
from repro.experiments.pipeline import Pipeline
from repro.kb.serialize import save_kb
from repro.service import IngestPolicy, IngestSession

from .conftest import make_pipeline

LAYERS = Path(__file__).resolve().parents[2] / "perfbench" / "layers.py"
#: The methods decorated with ``collector_paused``.
PAUSED = [
    (Pipeline, "extract"),
    (Pipeline, "analyze"),
    (DPCleaner, "clean"),
    (IngestSession, "ingest"),
    (IngestSession, "_restore"),
]
POLICY = IngestPolicy(
    staleness_threshold=600, drift_threshold=0.08, min_new_pairs=10
)


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _session_bytes(batches, path):
    session = make_pipeline().session(policy=POLICY)
    for batch in batches[:-1]:
        session.ingest(batch)
    session.ingest(batches[-1], force_clean=True)
    save_kb(session.kb, path)
    return session, path.read_bytes()


@pytest.fixture(scope="module")
def wrapped_run(service_corpus, tmp_path_factory):
    layers = _layers()
    tracer = layers.LayerTracer()
    detect_fn = Pipeline.__dict__["detect_fn"]
    batches = list(service_corpus.batches(400))
    layers.install_repro_wrappers(tracer)
    try:
        session, data = _session_bytes(
            batches, tmp_path_factory.mktemp("wrapped") / "kb.jsonl"
        )
    finally:
        tracer.uninstall()
    assert Pipeline.__dict__["detect_fn"] is detect_fn
    assert gc.isenabled()
    return tracer, session, data, batches


class TestWrappingContract:
    def test_detect_fn_is_a_plain_function_on_the_class(self):
        assert inspect.isfunction(Pipeline.__dict__["detect_fn"])

    @pytest.mark.parametrize(
        "owner, attr", PAUSED, ids=[f"{o.__name__}.{a}" for o, a in PAUSED]
    )
    def test_paused_methods_are_plain_functions_on_the_class(
        self, owner, attr
    ):
        method = owner.__dict__[attr]
        assert inspect.isfunction(method)
        assert method.__name__ == attr

    def test_one_detection_refresh_per_cleaning_round(self, wrapped_run):
        tracer, session, _data, _batches = wrapped_run
        rounds = sum(
            report.cleaning.rounds
            for report in session.reports
            if report.cleaning is not None
        )
        assert session.cleanings >= 1 and rounds >= 1
        assert tracer.counts["cleaning.rounds"] == rounds
        assert tracer.calls["analysis.refresh"] == rounds

    def test_wrapped_session_matches_unwrapped(self, wrapped_run, tmp_path):
        _tracer, _session, wrapped, batches = wrapped_run
        _, unwrapped = _session_bytes(batches, tmp_path / "kb.jsonl")
        assert gc.isenabled()
        assert wrapped == unwrapped
