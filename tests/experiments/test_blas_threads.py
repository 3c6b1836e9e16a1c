"""Table 3 and cleaned sessions do not depend on how many threads BLAS uses.

The detector's kernels, KPCA and the multitask solver run on numpy's
BLAS, whose reductions may split differently across threads.  Run
``run_table3``, and a short session that cleans after every batch and
snapshots it, on the small experiment world in two interpreters, one
with BLAS pinned to 1 thread and one with 2, and require identical data
and identical bytes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

_BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
)

# The world and corpus of tests/conftest.py::small_pipeline.
_TABLE3 = """
import json
from repro.experiments.pipeline import Pipeline, experiment_config
from repro.experiments.table3 import run_table3
from repro.world import paper_world

preset = paper_world(seed=11, scale=1.0)
config = experiment_config(
    num_sentences=6000, seed=11, profiles=preset.profiles
)
data = run_table3(Pipeline(preset=preset, config=config)).data
print(json.dumps(data, sort_keys=True))
"""


# Three batches of the same corpus, each cleaned (a fresh detector basis
# per pass) and snapshotted; prints the SHA-256 of the saved KB and of
# every file in the checkpoint directory.
_SESSION = """
import hashlib, json, sys
from pathlib import Path
from repro.experiments.pipeline import Pipeline, experiment_config
from repro.kb.serialize import save_kb
from repro.world import paper_world

root = Path(sys.argv[1])
preset = paper_world(seed=11, scale=1.0)
config = experiment_config(
    num_sentences=6000, seed=11, profiles=preset.profiles
)
pipeline = Pipeline(preset=preset, config=config)
session = pipeline.session(checkpoint_dir=root / "state", checkpoint_every=1)
for batch in pipeline.corpus().shards(13)[:3]:
    session.ingest(batch, force_clean=True)
save_kb(session.kb, root / "kb.jsonl")
print(json.dumps({
    "cleanings": session.cleanings,
    "removed": len(session.kb.removed_pairs()),
    "files": {
        str(path.relative_to(root)): hashlib.sha256(
            path.read_bytes()
        ).hexdigest()
        for path in sorted(root.rglob("*")) if path.is_file()
    },
}))
"""


def _start(
    threads: int, script: str = _TABLE3, *args: str
) -> subprocess.Popen:
    env = dict(os.environ)
    env.update(dict.fromkeys(_BLAS_THREAD_VARS, str(threads)))
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    return subprocess.Popen(
        [sys.executable, "-c", script, *args],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def test_table3_identical_at_one_and_two_blas_threads():
    # Both interpreters run at once: the suite pays for one.
    runs = {threads: _start(threads) for threads in (1, 2)}
    data = {}
    try:
        for threads, process in runs.items():
            out, err = process.communicate(timeout=120)
            assert process.returncode == 0, f"{threads} thread(s):\n{err}"
            data[threads] = json.loads(out)
    finally:
        for process in runs.values():
            if process.poll() is None:
                process.kill()
                process.wait()
    assert data[1]["DP Cleaning"]["removed"] > 0
    assert data[1] == data[2]


def test_cleaned_session_bytes_identical_at_one_and_two_blas_threads(
    tmp_path,
):
    roots = {threads: tmp_path / f"threads-{threads}" for threads in (1, 2)}
    runs = {
        threads: _start(threads, _SESSION, str(root))
        for threads, root in roots.items()
    }
    data = {}
    try:
        for threads, process in runs.items():
            out, err = process.communicate(timeout=120)
            assert process.returncode == 0, f"{threads} thread(s):\n{err}"
            data[threads] = json.loads(out)
    finally:
        for process in runs.values():
            if process.poll() is None:
                process.kill()
                process.wait()
    assert data[1]["cleanings"] == 3
    assert data[1]["removed"] > 0
    files = data[1]["files"]
    assert "kb.jsonl" in files
    assert any(name.endswith("state.json") for name in files)
    assert data[1] == data[2]
