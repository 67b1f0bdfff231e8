"""Bit-exact behaviour gate: preset outputs against the pinned digests.

The digests live in ``perfbench/digests.json`` under ``"presets"``, keyed
``<preset>/<design>/<seed>``. Each is the sha256 over the report's
canonical-JSON aggregates, a NUL byte, its CSV text and a NUL byte. An
intended change of output is re-pinned with ``perfbench/run.py --pin``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from randelsim import load_preset, run_scenario

DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"
PINNED = json.loads(DIGESTS.read_text())["presets"]


def report_digest(report) -> str:
    h = hashlib.sha256()
    h.update(json.dumps(report.aggregates, sort_keys=True,
                        separators=(",", ":")).encode())
    h.update(b"\x00")
    h.update(report.to_csv().encode())
    h.update(b"\x00")
    return h.hexdigest()


def test_every_preset_design_and_seed_is_pinned():
    assert len(PINNED) == 4 * 4 * 3


@pytest.mark.parametrize("key", sorted(PINNED))
def test_preset_output_matches_pinned_digest(key):
    name, design, seed = key.split("/")
    config = load_preset(name).with_overrides(design=design)
    report = run_scenario(config, seed=int(seed))
    assert report_digest(report) == PINNED[key]
