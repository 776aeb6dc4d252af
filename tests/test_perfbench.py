"""The benchmark's own correctness checks, at its tiny size.

Each case runs ``perfbench/run.py`` in a fresh process, as the benchmark
does, untraced and traced: the tracer wraps the program's public
functions and reads conv shapes as rows x cols x channels, so a change of
layout that breaks it shows here, not only in a benchmark run.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["unet_a2mdu", "hytec_distill",
                                      "cli_pipeline"])
def test_tiny_run_is_correct(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--size", "tiny", "--seconds", "0",
         "--seed", "3", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, result
    assert result["failed"] == 0, result
