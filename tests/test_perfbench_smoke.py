"""Smoke tests of the benchmark harness: short seeded walk and gluing runs check
their outputs, and a traced smoothing run sees the surgeries."""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(workload, trace=0):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    return result


def test_walk_workload_runs_and_checks_out():
    result = _run("walk")
    assert result["failed"] == 0
    assert result["attempted"] > 0


def test_gluing_workload_runs_and_checks_out():
    # the harness checks the published matrices B3-B6 and glued-string homology;
    # every G call completes, those at 16, 20 and 30 crossings included
    result = _run("gluing")
    assert result["attempted"] > 0
    assert result["failed"] == 0


def test_traced_smoothing_sees_every_surgery():
    # the tracer wraps the surgery functions by name; F and L call them per crossing
    result = _run("smoothing", trace=1)
    assert result["failed"] == 0
    assert result["metrics"]["surgery.calls"]["value"] > 0
