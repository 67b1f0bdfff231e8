"""Generated valid scenarios, run end to end through ``randelsim run``.

The strategy is built from ``ScenarioConfig``'s own dataclass fields. Each
number draws from its field's ``min``, ``min + 1`` and a few small values;
each nested dataclass is drawn the same way, and each field with a default
is either drawn or left out. Fields whose valid values no type or ``min``
states (names, enumerations, link parameters, outages) draw from
``FIELD_VALUES``, and ``scenario_docs`` applies the rules that span fields.
Every valid scenario must run (exit 0); the only other outcome is a
validation error (exit 2), here for a scenario over the lowered attempt
budget. A run failure (exit 1) is a bug. Every row of a run obeys the laws
its design implies (``broken_laws``), no device is filtered by a blacklist
it was never put on (``filtered_unblacklisted``), and the kernel's work
stays within ``STEPS_PER_ATTEMPT`` steps per unit of ``attempt_bound()``.
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
from randelsim.kernel import Kernel
from randelsim.metrics import OutcomeRow
from randelsim.ric import (DEFAULT_XAPP_DELAYS, XAPP_DELAY_MAX_MS,
                           XAPP_DELAY_MIN_MS)
from randelsim.scenario import (DESIGNS, PrewarmSpec, ProbationaryPolicy,
                                ScenarioConfig, load_scenario)
from randelsim.simulation import Simulation
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


# How many outages past every drawn horizon the serving link gets: no run
# reaches them, and no link operation may take longer for them. Parsing
# 10,000 costs a run about 0.1 s, so few runs draw them.
PAST_HORIZON_OUTAGES = (0,) * 17 + (1, 10, 10_000)


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


def corrupt_sensor_on_probation(draw, doc: dict) -> None:
    """Make the first cohort sensors with a corrupt key that probation
    admits in an outage at the start. Their deferred authentication fails
    once the link is back, and their later periods meet the blacklist."""
    doc["design"] = "logic-replication"  # the one with probation
    doc["ues"][0].update(behavior="periodic-sensor", corrupt_key=True,
                         arrival={"kind": "fixed", "time_ms": 0},
                         period_ms=draw(st.sampled_from((1000, 2000))))
    # the deferred authentication gets an answer once the outage ends
    doc.pop("home_backhaul", None)
    doc.pop("core_hop_latency_ms", None)
    doc["backhaul"] = {
        "base_latency_ms": draw(st.sampled_from((0, 10))),
        "bandwidth_bps": 10_000_000,
        "outages": [[0, draw(st.sampled_from((1000, 5000)))]]}


def steer_to_the_ran(draw, doc: dict, names: list[str]) -> None:
    """Make the paths the RAN decides reachable in ``doc``.

    The design has a cache, probation is on where it is deployed, and the
    link may be down for the whole run, as the delegated and probationary
    paths need. Each cohort's policy admits its request. The radio latency
    and request timeout are the defaults, which an answer fits, and the
    horizon fits every drawn arrival and its answer. The first cohort's
    devices are prewarmed or unknown roamers; the roamers hold the right
    key or are ``corrupt_sensor_on_probation``. The other cohorts may be
    prewarmed.
    """
    doc["design"] = draw(st.sampled_from(("logic-replication",
                                          "decision-cache")))
    doc.setdefault("probationary", {})["enabled"] = True
    if draw(st.booleans()):
        doc["backhaul"]["outages"] = [[0, 10**6]]
    doc.pop("radio_latency_ms", None)
    doc.pop("request_timeout_ms", None)
    doc["horizon_ms"] = max(doc["horizon_ms"], 10_000)
    for cohort in doc["ues"]:
        # eligible devices take the express path, others the delegated one
        cohort["express_eligible"] = draw(st.booleans())
        slices = cohort.setdefault("allowed_slices", ["default"])
        if cohort.get("slice_id", "default") not in slices:
            slices.append(cohort.get("slice_id", "default"))
        services = cohort.setdefault("authorized_services", ["data"])
        if cohort.get("service") not in (None, *services):
            services.append(cohort["service"])
    first = doc["ues"][0]
    first["corrupt_key"] = False
    if first["behavior"] == "attacker-flood":
        first["behavior"] = "interactive"
    warm = {name for name in names[1:] if draw(st.booleans())}
    if draw(st.booleans()):
        warm.add(names[0])
    else:
        first["home_network"] = "net-far"  # never the serving network
        if not draw(st.booleans()):
            corrupt_sensor_on_probation(draw, doc)
    # a 20 ms entry is live when a request at 0 is routed, and expires
    # during its local challenge
    doc["prewarm"] = [
        {"cohort": name, "ttl_ms": draw(st.sampled_from((3_600_000, 20)))}
        for name in names if name in warm]


@st.composite
def scenario_docs(draw, steered: bool = False) -> dict:
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
    if steered:
        steer_to_the_ran(draw, doc, names)
    for link in (doc["backhaul"], doc.get("home_backhaul")):
        if link is not None:
            # jitter may not exceed the base latency
            link["jitter_ms"] = min(link.get("jitter_ms", 0),
                                    link["base_latency_ms"])
    radio = doc.get("radio_latency_ms", 2)
    if doc.get("request_timeout_ms", 10_000) <= radio:
        # a request must be able to reach the RAN before it times out
        doc["request_timeout_ms"] = radio + 1
    start = 2 * 10**6
    doc["backhaul"]["outages"] = doc["backhaul"].get("outages", []) + [
        [start + 2 * i, start + 2 * i + 1]
        for i in range(draw(st.sampled_from(PAST_HORIZON_OUTAGES)))]
    if draw(st.booleans()):
        # a utilization window as long as the whole run
        doc.setdefault("thresholds", {})["utilization_window_ms"] = draw(
            st.integers(1, doc["horizon_ms"]))
    return doc


# The most kernel steps one unit of attempt_bound() takes: the event that
# starts it (an arrival, a re-authentication, a poll or a probe), the radio
# hop to the RAN, the longest flow and the request timeout. The longest
# flow is a local challenge (3 steps) whose entry expired by its end, then
# a full registration (20 steps).
STEPS_PER_ATTEMPT = 1 + 1 + 3 + 20 + 1


def counted_steps(kernel: Kernel) -> list[int]:
    """Count the steps ``kernel`` runs, queued or inline, into the list."""
    steps = [0]
    advance, run_until = kernel.advance, kernel.run_until

    def counting_advance(delay: int) -> bool:
        inline = advance(delay)
        steps[0] += inline
        return inline

    def counting_run_until(t_end: int) -> int:
        processed = run_until(t_end)
        steps[0] += processed
        return processed

    kernel.advance, kernel.run_until = counting_advance, counting_run_until
    return steps


def path_delays(config: ScenarioConfig) -> dict[str, int]:
    """The xApp delays of each path decided at the RAN: the sum over the
    deployed xApps that serve it."""
    deployed = config.deployed_xapps()

    def delay(name: str) -> int:
        if name not in deployed:
            return 0
        return config.xapp_delays_ms.get(name, DEFAULT_XAPP_DELAYS[name])

    routing = delay("routing")
    return {"express": routing + delay("decision-cache"),
            "delegated": (routing + delay("state-auth")
                          + delay("session-establish")),
            "probationary": routing + delay("probationary")}


def broken_laws(config: ScenarioConfig, row: OutcomeRow) -> list[str]:
    """The laws of the run's design that ``row`` breaks."""
    design, radio = config.design, config.radio_latency_ms
    timeout, delays = config.request_timeout_ms, path_delays(config)
    latency, path = row.latency_ms, row.path
    success = row.outcome == "success"
    broken = []
    if design in ("baseline", "colocated") and path != "standard":
        broken.append("only the core decides")
    if design == "colocated" and row.backhaul_msgs:
        broken.append("a colocated core uses no backhaul")
    if design == "decision-cache" and path in ("delegated", "probationary"):
        broken.append("a decision cache only replays")
    # refused where it is routed, or routed again where a local challenge
    # whose entry expired ends
    refused_at = {radio} | {radio + delays[p] + 2 * radio
                            for p in ("express", "delegated")}
    if path == "reject" and (latency not in refused_at or row.backhaul_msgs):
        broken.append("a refusal ends where it is routed, with no backhaul")
    if success and path in ("express", "delegated") and (
            latency != delays[path] + 4 * radio):
        broken.append("a local admission takes its xApps and 4 radio hops")
    if success and path == "probationary" and (
            latency != delays[path] + 2 * radio):
        broken.append("a probationary admission takes its xApp and 2 hops")
    if row.outcome == "timeout" and latency > timeout:
        broken.append("a timeout ends by the request timeout")
    if row.outcome != "timeout" and latency >= timeout:
        broken.append("an answer comes before the request timeout")
    return broken


# the outcomes of a deferred authentication that terminate the device
DEFERRED_FAILURES = ("mac-failure", "sync-failure", "subscriber-not-found")


def filtered_unblacklisted(config: ScenarioConfig,
                           rows: list[OutcomeRow]) -> list[OutcomeRow]:
    """Where the DoS filter is not deployed, only the blacklist filters, and
    a device is blacklisted only when its deferred authentication fails:
    the ``filtered`` rows that no failed ``deferred`` row of the same device
    comes before."""
    if "dos-filter" in config.deployed_xapps():
        return []
    failed, broken = set(), []
    for row in rows:
        if row.request_type == "deferred" and row.outcome in DEFERRED_FAILURES:
            failed.add(row.ue_id)
        elif row.outcome == "filtered" and row.ue_id not in failed:
            broken.append(row)
    return broken


def check_run(doc: dict) -> None:
    """Run ``doc`` through the CLI and again in process, and check both."""
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
        sim = Simulation(config)
        steps = counted_steps(sim.kernel)
        report = sim.run()
        written = out.read_text()
    # a second run in the same process writes the same bytes
    assert report.to_csv() == written
    attempts = report.aggregates["attempts"]
    assert len(written.splitlines()) - 1 == len(report.rows) == attempts
    assert attempts <= config.attempt_bound()
    assert steps[0] <= STEPS_PER_ATTEMPT * config.attempt_bound()
    assert report.aggregates == report.recompute_aggregates()
    broken = [(row, law) for row in report.rows
              for law in broken_laws(config, row)]
    assert not broken, broken[:5]
    unblacklisted = filtered_unblacklisted(config, report.rows)
    assert not unblacklisted, unblacklisted[:5]
    if any(what == "terminated" for _, _, what, _ in sim.ric.access_log):
        event("terminates a device")


@settings(max_examples=100, deadline=None)
@given(scenario_docs())
def test_valid_scenario_runs_within_its_bound(doc):
    check_run(doc)


@settings(max_examples=50, deadline=None)
@given(scenario_docs(steered=True))
def test_runs_the_ran_decides_keep_the_laws(doc):
    check_run(doc)
