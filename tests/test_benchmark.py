"""The benchmark keeps running against the package: its gf_verify workload,
untraced and traced, wraps genfunc names (``enumerate_parking_sorted``,
``xy_table``, ``boundary_sets``, ``xpara``, ``ypara``,
``rank_parking_sorted``) and reads the counters they feed."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("trace", ["0", "1"])
def test_gf_verify_workload_runs(trace):
    argv = [sys.executable, "kmnbench/run.py", "--workload", "gf_verify", "--seconds", "1",
            "--trace", trace]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
