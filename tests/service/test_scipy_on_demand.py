"""No session loads scipy: the package runs on numpy's BLAS alone.

scipy ships its own OpenBLAS runtime beside numpy's, about 14 MB
resident and 0.3 s to load.  The KPCA fit (``np.linalg.eigh``) and the
walk kernel (an ordered ``np.bincount`` per step) need only numpy, so
run a durability-only session on the service world in a fresh
interpreter — cleaning off, a checkpoint, then a cold resume in a new
pipeline — and then force one cleaning pass, which both fits KPCA and
ranks, checkpoint and resume once more from the stored detector basis,
and require that neither ``scipy.linalg`` nor ``scipy.sparse`` was
imported at either point.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

from .conftest import SCALE, SEED, SENTENCES

_SESSION = """
import json, sys
from pathlib import Path
from repro.experiments.pipeline import Pipeline, experiment_config
from repro.service.policy import IngestPolicy
from repro.world import paper_world

root = Path(sys.argv[1])
scale, sentences, seed = float(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4])


def make_pipeline():
    preset = paper_world(seed=seed, scale=scale)
    config = experiment_config(
        num_sentences=sentences, seed=seed, profiles=preset.profiles
    )
    return Pipeline(preset=preset, config=config)


def scipy_loaded():
    return sorted(
        name for name in sys.modules
        if name.startswith(("scipy.linalg", "scipy.sparse"))
    )


pipeline = make_pipeline()
session = pipeline.session(
    policy=IngestPolicy.never(), checkpoint_dir=root, checkpoint_every=2
)
for batch in pipeline.corpus().batches(300):
    session.ingest(batch)
session.checkpoint()
resumed = make_pipeline().session(
    policy=IngestPolicy.never(), checkpoint_dir=root, resume=True
)
durable = scipy_loaded()
batches = (session.batches_ingested, resumed.batches_ingested)
resumed.ingest([], force_clean=True)
resumed.checkpoint()
# A cold resume that rebuilds the stored detector basis.
rebuilt = make_pipeline().session(
    policy=IngestPolicy.never(), checkpoint_dir=root, resume=True
)
forced = scipy_loaded()
import scipy.sparse  # the probe's positive control
print(json.dumps({
    "batches": batches,
    "cleanings": (resumed.cleanings, rebuilt.cleanings),
    "durable": durable,
    "forced": forced,
    "control": scipy_loaded(),
}))
"""


def test_durability_only_session_never_loads_scipy(tmp_path):
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    process = subprocess.run(
        [sys.executable, "-c", _SESSION, str(tmp_path / "state"),
         str(SCALE), str(SENTENCES), str(SEED)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert process.returncode == 0, process.stderr
    result = json.loads(process.stdout)
    ingested, resumed = result["batches"]
    assert ingested >= 2 and resumed == ingested
    assert result["durable"] == []
    # One forced pass fits KPCA and solves RWR, still on numpy alone.
    assert result["cleanings"] == [1, 1]
    assert result["forced"] == []
    assert "scipy.sparse" in result["control"]
