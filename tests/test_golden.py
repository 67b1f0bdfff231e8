"""Bit-exact behaviour gate: preset outputs against the pinned digests.

The digests live in ``perfbench/digests.json`` under ``"presets"``, keyed
``<preset>/<design>/<seed>``. Each is the digest of a benchmark iteration
made of the one report and its CSV text, ``Iteration(...).digest()`` in
``perfbench/workloads.py``, so this gate and the benchmark's share one
definition. An intended change of output is re-pinned with
``perfbench/run.py --pin``.
"""

import json
from pathlib import Path

import pytest

from randelsim import load_preset, run_scenario

DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"
PINNED = json.loads(DIGESTS.read_text())["presets"]


def test_every_preset_design_and_seed_is_pinned():
    assert len(PINNED) == 4 * 4 * 3


@pytest.mark.parametrize("key", sorted(PINNED))
def test_preset_output_matches_pinned_digest(workloads, key):
    name, design, seed = key.split("/")
    config = load_preset(name).with_overrides(design=design)
    report = run_scenario(config, seed=int(seed))
    it = workloads.Iteration(0.0, 0.0, [report], [report.to_csv()])
    assert it.digest() == PINNED[key]
