"""Smoke test of the benchmark's own output gate (``perfbench/run.py``).

One traced ``design_sweep`` iteration checks every output digest the
benchmark pins, with the span tracer patched over the cache, routing and
kernel, so a change that breaks either fails here first.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import randelsim

ROOT = Path(__file__).resolve().parents[1]


def test_traced_design_sweep_passes_the_output_gate():
    src = Path(randelsim.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", "design_sweep", "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=120, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
