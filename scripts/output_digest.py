#!/usr/bin/env python
"""Print SHA-256 digests of the program's outputs at bench scale.

One JSON line per run, for one seed:

* ``table3``, ``table4``, ``figure5b`` — the ``data`` of
  ``run_table3``, ``run_table4`` and ``run_figure5b``, each on a fresh
  pipeline;
* ``session_kb``, ``session_reports`` — the ``save_kb`` bytes and the
  batch reports of a default-policy ingest session (``IngestPolicy()``)
  over the corpus cut into the benchmark's batches.

The world and corpus are the benchmark's (``perfbench/workloads.py``):
the scale-1.0 paper world of seed 11 and a 6 000-sentence corpus the
seed draws, in 13 batches.  The package is the one on ``PYTHONPATH``,
so a change that should keep outputs bit-identical prints the same line
as a checkout of its parent::

    PYTHONPATH=src python scripts/output_digest.py --seed 11
    PYTHONPATH=../parent/src python scripts/output_digest.py --seed 11

BLAS runs on one thread, so the digests do not depend on the host's core
count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

WORLD_SEED = 11
SCALE = 1.0
SENTENCES = 6000
BATCHES = 13


def _digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def _json_digest(value) -> str:
    return _digest(json.dumps(value, sort_keys=True).encode())


def digests(seed: int) -> dict[str, str]:
    """The output digests of one seed."""
    from repro.experiments.figure5 import run_figure5b
    from repro.experiments.pipeline import Pipeline, experiment_config
    from repro.experiments.table3 import run_table3
    from repro.experiments.table4 import run_table4
    from repro.kb.serialize import save_kb
    from repro.service import IngestPolicy
    from repro.world import paper_world

    preset = paper_world(seed=WORLD_SEED, scale=SCALE)

    def pipeline() -> Pipeline:
        config = experiment_config(
            num_sentences=SENTENCES, seed=seed, profiles=preset.profiles
        )
        return Pipeline(preset=preset, config=config)

    result = {"seed": seed}
    for name, run in (
        ("table3", run_table3),
        ("table4", run_table4),
        ("figure5b", run_figure5b),
    ):
        result[name] = _json_digest(run(pipeline()).data)
    session_pipeline = pipeline()
    session = session_pipeline.session(policy=IngestPolicy())
    for batch in session_pipeline.corpus().shards(BATCHES):
        session.ingest(batch)
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "kb.jsonl"
        save_kb(session.kb, path)
        result["session_kb"] = _digest(path.read_bytes())
    result["session_reports"] = _json_digest(
        [report.to_dict() for report in session.reports]
    )
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args(argv)
    # Before numpy loads: the thread count is read once.
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    print(json.dumps(digests(args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
