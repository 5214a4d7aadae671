"""The benchmark keeps running against the package, on each of its three
workloads, untraced and traced, for one second of the workload's own time
(a whole round at least).  Its rank_ladder workload calls ``rank_of`` on
m + n up to 1.6e6, untraced, and the four layers of the public route
(``stabilize``, ``sort_config``, ``park_sort``, ``rank_parking_sorted``)
with their guards, traced.  Its gf_verify workload wraps genfunc names
(``enumerate_parking_sorted``, ``xy_table``, ``boundary_sets``, ``xpara``,
``ypara``, ``rank_parking_sorted``) and reads the counters they feed; its
traced rank_cli workload rebinds ``cli.rank_of``, ``cli.rank_greedy``,
``cli.from_json_dict`` and ``cli.json``."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_workload(workload: str, trace: str) -> None:
    argv = [sys.executable, "kmnbench/run.py", "--workload", workload, "--seconds", "1",
            "--trace", trace]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result


@pytest.mark.parametrize("trace", ["0", "1"])
def test_rank_ladder_workload_runs(trace):
    run_workload("rank_ladder", trace)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_gf_verify_workload_runs(trace):
    run_workload("gf_verify", trace)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_rank_cli_workload_runs(trace):
    run_workload("rank_cli", trace)
