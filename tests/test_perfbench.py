"""Smoke test of the benchmark: each workload, untraced and traced, runs
for a fraction of a second and must check every output it produced.  A
library change that makes an item raise or answer wrongly fails here,
not only in a full benchmark run."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["census", "identity", "witness"])
def test_short_run_is_correct(workload, trace):
    done = subprocess.run(
        [
            sys.executable,
            str(ROOT / "perfbench" / "run.py"),
            "--workload",
            workload,
            "--seconds",
            "0.2",
            "--trace",
            trace,
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True, done.stderr
    assert result["failed"] == 0
    assert result["attempted"] > 0
