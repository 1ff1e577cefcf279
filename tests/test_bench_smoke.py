"""A short run of each benchmark workload: it must exit cleanly, fail no
operation and report correct.  Seed 0 is the seed the pinned digests are
recorded for, so a library change that alters any output the benchmark
sees fails here."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["words_stream", "coset_ladder", "tree_walk"])
def test_a_short_benchmark_run_is_correct(workload):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0", "--seconds", "0.2"]
    done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, done.stdout[-2000:]
