"""Generated valid scenarios, run end to end through ``randelsim run``.

The strategy is built from ``ScenarioConfig``'s own dataclass fields. Each
number draws from its field's ``min``, ``min + 1`` and a few small values;
each nested dataclass is drawn the same way, and each field with a default
is either drawn or left out. Fields whose valid values no type or ``min``
states (names, enumerations, link parameters, outages) draw from
``FIELD_VALUES``, and ``scenario_docs`` applies the rules that span fields.
Every valid scenario must run (exit 0); the only other outcome is a
validation error (exit 2), here for a scenario over the lowered attempt
budget. A run failure (exit 1) is a bug.
"""

import json
import tempfile
import types
import typing
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from randelsim import scenario as scenario_module
from randelsim.backhaul import BackhaulProfile
from randelsim.cli import main
from randelsim.harness import run_scenario
from randelsim.ric import (DEFAULT_XAPP_DELAYS, XAPP_DELAY_MAX_MS,
                           XAPP_DELAY_MIN_MS)
from randelsim.scenario import (DESIGNS, PrewarmSpec, ProbationaryPolicy,
                                ScenarioConfig, load_scenario)
from randelsim.ue import ARRIVAL_KINDS, BEHAVIORS, ArrivalSpec, UeCohortSpec

# the runs stay short: a scenario that may make more attempts exits 2
MAX_ATTEMPTS = 1000
SMALL = (0, 1, 2, 10, 100, 1000, 5000)
NETWORKS = ("net-serving", "net-home", "net-far")
SLICES = ("default", "edge", "probation")
SERVICES = ("data", "voice", "messaging")


def numbers(tp: type, minimum) -> st.SearchStrategy:
    low = 0 if minimum is None else minimum
    values = sorted({low, low + 1, *(v for v in SMALL if v >= low)})
    return st.sampled_from([tp(v) for v in values])


@st.composite
def outages(draw) -> list[list[int]]:
    """Sorted, disjoint intervals; [0, 10**6] covers every drawn horizon."""
    ends = draw(st.lists(st.sampled_from((0, 1, 10, 100, 1000, 5000, 10**6)),
                         max_size=4, unique=True))
    ends = sorted(ends)[:len(ends) // 2 * 2]
    return [ends[i:i + 2] for i in range(0, len(ends), 2)]


FIELD_VALUES = {
    (ScenarioConfig, "name"): st.just("generated"),
    (ScenarioConfig, "design"): st.sampled_from(DESIGNS),
    (ScenarioConfig, "serving_network"): st.sampled_from(NETWORKS[:2]),
    (ScenarioConfig, "message_bytes"): st.dictionaries(
        st.sampled_from(("default", "REG_REQUEST", "AUTH_CHALLENGE")),
        numbers(int, 1), max_size=2),
    (ScenarioConfig, "xapp_delays_ms"): st.dictionaries(
        st.sampled_from(tuple(DEFAULT_XAPP_DELAYS)),
        st.sampled_from((XAPP_DELAY_MIN_MS, XAPP_DELAY_MIN_MS + 1,
                         XAPP_DELAY_MAX_MS)), max_size=2),
    # cohort names are given in scenario_docs, and prewarm entries there
    (UeCohortSpec, "cohort"): st.just(""),
    (PrewarmSpec, "cohort"): st.just(""),
    (UeCohortSpec, "count"): st.integers(1, 5),
    (UeCohortSpec, "behavior"): st.sampled_from(BEHAVIORS),
    (UeCohortSpec, "home_network"): st.sampled_from((None, *NETWORKS)),
    (UeCohortSpec, "slice_id"): st.sampled_from(SLICES),
    (UeCohortSpec, "service"): st.sampled_from((None, *SERVICES)),
    (UeCohortSpec, "allowed_slices"): st.lists(
        st.sampled_from(SLICES), min_size=1, max_size=2, unique=True),
    (UeCohortSpec, "authorized_services"): st.lists(
        st.sampled_from(SERVICES), max_size=2, unique=True),
    (ArrivalSpec, "kind"): st.sampled_from(ARRIVAL_KINDS),
    (ProbationaryPolicy, "slice_id"): st.sampled_from(SLICES),
    (ProbationaryPolicy, "services"): st.lists(
        st.sampled_from(SERVICES), max_size=2, unique=True),
    (BackhaulProfile, "bandwidth_bps"): st.sampled_from(
        (1, 2, 100_000, 10_000_000)),
    (BackhaulProfile, "loss_probability"): st.sampled_from((0.0, 0.1, 1.0)),
    (BackhaulProfile, "outages"): outages(),
}


def values(tp, minimum=None) -> st.SearchStrategy:
    """Values of the type ``tp``, as a scenario document spells them."""
    if is_dataclass(tp):
        return documents(tp)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (types.UnionType, typing.Union):  # X | None
        return st.none() | values(args[0], minimum)
    if origin is list:
        return st.lists(values(args[0], minimum), min_size=1, max_size=3)
    if tp is bool:
        return st.booleans()
    return numbers(tp, minimum)


def documents(cls: type) -> st.SearchStrategy:
    """A document of ``cls``; a field with a default may be left out."""
    hints = typing.get_type_hints(cls)
    required, optional = {}, {}
    for f in fields(cls):
        strategy = FIELD_VALUES.get((cls, f.name))
        if strategy is None:
            strategy = values(hints[f.name], f.metadata.get("min"))
        has_default = (f.default is not MISSING
                       or f.default_factory is not MISSING)
        (optional if has_default else required)[f.name] = strategy
    return st.fixed_dictionaries(required, optional=optional)


@st.composite
def scenario_docs(draw) -> dict:
    doc = draw(documents(ScenarioConfig))
    names = [f"c{i}" for i in range(len(doc["ues"]))]
    for name, cohort in zip(names, doc["ues"]):
        cohort["cohort"] = name
        arrival = cohort["arrival"]
        if arrival["kind"] in ("poisson", "flood"):
            # these kinds need a rate above 0
            arrival["rate_per_s"] = max(arrival.get("rate_per_s", 0.0), 1.0)
    # each cohort is prewarmed at most once
    prewarm = doc.get("prewarm", [])
    del prewarm[len(names):]
    for entry, name in zip(prewarm, draw(st.permutations(names))):
        entry["cohort"] = name
    for link in (doc["backhaul"], doc.get("home_backhaul")):
        if link is not None:
            # jitter may not exceed the base latency
            link["jitter_ms"] = min(link.get("jitter_ms", 0),
                                    link["base_latency_ms"])
    radio = doc.get("radio_latency_ms", 2)
    if doc.get("request_timeout_ms", 10_000) <= radio:
        # a request must be able to reach the RAN before it times out
        doc["request_timeout_ms"] = radio + 1
    return doc


@settings(max_examples=100, deadline=None)
@given(scenario_docs())
def test_valid_scenario_runs_within_its_bound(doc):
    with tempfile.TemporaryDirectory() as tmp, \
            pytest.MonkeyPatch.context() as mp:
        mp.setattr(scenario_module, "MAX_ATTEMPTS", MAX_ATTEMPTS)
        scenario, out = Path(tmp) / "scenario.json", Path(tmp) / "out.csv"
        scenario.write_text(json.dumps(doc))
        code = main(["run", "--scenario", str(scenario), "--out", str(out)])
        event(f"exit {code}")
        assert code in (0, 2)  # run, or rejected by validation
        if code == 2:
            assert not out.exists()
            return
        config = load_scenario(scenario)
        report = run_scenario(config)
        written = out.read_text()
    # a second run in the same process writes the same bytes
    assert report.to_csv() == written
    attempts = report.aggregates["attempts"]
    assert len(written.splitlines()) - 1 == len(report.rows) == attempts
    assert attempts <= config.attempt_bound()
    assert report.aggregates == report.recompute_aggregates()
