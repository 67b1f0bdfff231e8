"""Smoke test of the benchmark's own output gate (``perfbench/run.py``).

One traced iteration of each workload checks every output digest the
benchmark pins, with the span tracer patched over the cache, routing and
kernel, so a change that breaks either fails here first. The first eight
pinned seeds of each workload are also recomputed in-process, so a change
that moves a byte of the benchmark's output fails here too.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import randelsim
from randelsim.kernel import Kernel

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


@pytest.fixture(scope="module")
def pinned():
    return json.loads((PERFBENCH / "digests.json").read_text())


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("workload", ["design_sweep", "flood_filter"])
def test_workload_matches_its_pinned_digest(workloads, pinned, workload,
                                            seed):
    doc = workloads.scenario(workload, seed)
    it = workloads.iterate(workload, doc, workloads.SetupClock())
    assert it.digest() == pinned[workload][str(seed)]


@pytest.mark.parametrize("workload", ["design_sweep", "flood_filter"])
def test_traced_workload_passes_the_output_gate(workload):
    src = Path(randelsim.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=120, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True


@pytest.mark.parametrize("workload, events", [("flood_filter", 24_442),
                                              ("design_sweep", 33_083)])
def test_workload_processes_its_pinned_event_count(workloads, monkeypatch,
                                                   workload, events):
    # the kernel events of one iteration at seed 1; a change that adds or
    # removes an event, on any path, edits this count on purpose
    processed = []
    run_until = Kernel.run_until

    def counted(kernel, t_end):
        processed.append(run_until(kernel, t_end))
        return processed[-1]

    monkeypatch.setattr(Kernel, "run_until", counted)
    workloads.iterate(workload, workloads.scenario(workload, 1),
                      workloads.SetupClock())
    assert sum(processed) == events


@pytest.mark.parametrize("hash_seed", ["0", "4242"])
def test_output_does_not_depend_on_string_hashing(pinned, hash_seed):
    # one seed-1 design_sweep iteration in a process with its own hash seed
    src = Path(randelsim.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": hash_seed}
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload",
         "design_sweep", "--seed", "1", "--digest-only"],
        capture_output=True, text=True, timeout=120, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [pinned["design_sweep"]["1"]]
