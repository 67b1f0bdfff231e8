"""Smoke test of the benchmark's span tracer (``perfbench/tracer.py``).

The tracer patches names by looking each one up in its owner's ``__dict__``,
so renaming a traced method breaks a traced benchmark run; this test fails
first.
"""

import importlib.util
import sys
from pathlib import Path

from randelsim import load_preset, run_scenario

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_traced_run_counts_events_and_restores_every_name():
    tracer = load_tracer_module().Tracer()
    names = [(owner, attr) for owner, attr, _ in tracer._patches()]
    originals = [owner.__dict__[attr] for owner, attr in names]
    with tracer.installed():
        assert all(owner.__dict__[attr] is not original
                   for (owner, attr), original in zip(names, originals))
        report = run_scenario(load_preset("disaster"), seed=1)
    assert tracer.layer_metrics(len(report.rows))["kernel.events"] > 0
    assert all(owner.__dict__[attr] is original
               for (owner, attr), original in zip(names, originals))
