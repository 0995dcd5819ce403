"""The benchmark's counters and output digests repeat exactly for a seed.

Run from the root of a checkout (about a minute):

    python3 -m pytest perfbench -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "workload.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "ready"
    return json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counters_and_digest_repeat(workload):
    first, second = traced_run(workload, 3), traced_run(workload, 3)
    assert first["correct"] and second["correct"]
    assert first["counters"] == second["counters"]
    assert first["digest"] == second["digest"]
    assert first["counters"]["ops"] > 0
