"""Table 3 does not depend on how many threads BLAS uses.

The detector's kernels, KPCA and the multitask solver run on NumPy/SciPy
BLAS, whose reductions may split differently across threads.  Run
``run_table3`` on the small experiment world in two interpreters, one
with BLAS pinned to 1 thread and one with 2, and require identical data.
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


def _start(threads: int) -> subprocess.Popen:
    env = dict(os.environ)
    env.update(dict.fromkeys(_BLAS_THREAD_VARS, str(threads)))
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    return subprocess.Popen(
        [sys.executable, "-c", _TABLE3],
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
