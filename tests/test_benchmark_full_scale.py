"""Every benchmark workload runs correctly at the size its benchmark runs it.

perfbench's own smoke tests run shrunken instances, which do not show faults
that appear only at a workload's real size. These runs take about 2.5–3.5 s
each on a 2-core machine.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    WORKLOADS = [w["name"] for w in json.load(fh)["workloads"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_full_scale_run_is_correct(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    if workload == "pp_graph" and trace:
        # the graph step tapes gamma^(0..t_m) only: t_m + 1 = 6 blocks of
        # 1000 users x 100 item columns in float64, 4.58 MB
        assert result["metrics"]["exposure.tape_mb"]["value"] <= 4.6, proc.stdout
        # the objective runs in place and gamma^(t_m) is freed before the
        # backward: 10.24 MB measured, 11.52 before either
        assert result["metrics"]["exposure.phi_peak_mb"]["value"] <= 10.6, proc.stdout
