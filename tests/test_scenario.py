import ast
import copy
import json
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randelsim import scenario as scenario_module
from randelsim import simulation
from randelsim.cli import main
from randelsim.harness import compare_designs
from randelsim.ric import DESIGN_XAPPS
from randelsim.scenario import (DESIGNS, MAX_JSON_INT, MESSAGE_TYPES,
                                ScenarioError, config_from_dict, load_preset,
                                load_scenario, preset_names, preset_path)


def minimal_doc(**overrides) -> dict:
    doc = {
        "name": "tiny",
        "seed": 1,
        "horizon_ms": 10_000,
        "design": "baseline",
        "backhaul": {"base_latency_ms": 20, "bandwidth_bps": 1_000_000},
        "ues": [{"cohort": "a", "count": 2, "behavior": "interactive",
                 "arrival": {"kind": "fixed", "time_ms": 100}}],
    }
    doc.update(overrides)
    return doc


def set_path(doc: dict, path: str, value) -> None:
    """Set the value at a dotted path such as ``ues[0].arrival.kind``."""
    *parents, key = [int(p[1:-1]) if p.startswith("[") else p
                     for p in path.replace("[", ".[").split(".")]
    target = doc
    for name in parents:
        target = target[name] if isinstance(name, int) \
            else target.setdefault(name, {})
    target[key] = value


class TestConfigFromDict:
    def test_minimal_document_loads(self):
        cfg = config_from_dict(minimal_doc())
        assert cfg.name == "tiny"
        assert cfg.design == "baseline"
        assert cfg.backhaul.base_latency_ms == 20
        assert cfg.ues[0].count == 2
        assert cfg.cache_ttl_ms == 3_600_000  # default entry lifetime

    def test_missing_field_named_in_error(self):
        doc = minimal_doc()
        del doc["horizon_ms"]
        with pytest.raises(ScenarioError, match="horizon_ms"):
            config_from_dict(doc)

    def test_unknown_design_rejected(self):
        with pytest.raises(ScenarioError, match="design"):
            config_from_dict(minimal_doc(design="hybrid"))

    def test_negative_ttl_names_field(self):
        with pytest.raises(ScenarioError, match="cache_ttl_ms"):
            config_from_dict(minimal_doc(cache_ttl_ms=-5))

    def test_overlapping_outages_rejected(self):
        doc = minimal_doc()
        doc["backhaul"]["outages"] = [[0, 100], [50, 200]]
        with pytest.raises(ScenarioError, match="outages"):
            config_from_dict(doc)

    def test_duplicate_cohort_rejected(self):
        doc = minimal_doc()
        doc["ues"].append(dict(doc["ues"][0]))
        with pytest.raises(ScenarioError, match="cohort"):
            config_from_dict(doc)

    def test_prewarm_must_name_known_cohort(self):
        doc = minimal_doc(prewarm=[{"cohort": "ghost"}])
        with pytest.raises(ScenarioError, match="cohort"):
            config_from_dict(doc)

    def test_unknown_behavior_rejected(self):
        doc = minimal_doc()
        doc["ues"][0]["behavior"] = "sleepy"
        with pytest.raises(ScenarioError, match="behavior") as info:
            config_from_dict(doc)
        assert info.value.fieldname == "ues[0].behavior"

    def test_zero_count_rejected(self):
        doc = minimal_doc()
        doc["ues"][0]["count"] = 0
        with pytest.raises(ScenarioError, match="count"):
            config_from_dict(doc)

    def test_overrides_replace_design_and_seed(self):
        cfg = config_from_dict(minimal_doc())
        out = cfg.with_overrides(design="colocated", seed=99)
        assert (out.design, out.seed) == ("colocated", 99)
        assert cfg.design == "baseline"  # original untouched

    @pytest.mark.parametrize("path, value, named", [
        ("dos_fitler", True, "dos_fitler"),
        ("thresholds.probe_intervl_ms", 500, "thresholds.probe_intervl_ms"),
        ("ues[0].arrival.rate_per_s", "abc", "ues[0].arrival.rate_per_s"),
        ("ues[0].arrival.kind", "flood", "ues[0].arrival.rate_per_s"),
        ("ues[0].arrival.kind", "trickle", "ues[0].arrival.kind"),
        # a burst is a fixed cohort; one with a tail is two cohorts
        ("ues[0].arrival.kind", "burst", "ues[0].arrival.kind"),
        ("ues[0].arrival.tail_rate_per_s", 5.0,
         "ues[0].arrival.tail_rate_per_s"),
        ("ues[0].arrival.time_ms", -1, "ues[0].arrival.time_ms"),
        ("backhaul.bandwidth_bps", 0, "backhaul.bandwidth_bps"),
        ("backhaul.loss_probability", 1.5, "backhaul.loss_probability"),
        ("backhaul.outages", [[100, 50]], "backhaul.outages"),
        ("backhaul.outages", [[100]], "backhaul.outages[0]"),
        ("home_backhaul.jitter_ms", -1, "home_backhaul.jitter_ms"),
        # jitter beyond the base latency could deliver before the send
        ("backhaul.jitter_ms", 21, "backhaul.jitter_ms"),
        ("home_backhaul.jitter_ms", 6, "home_backhaul.jitter_ms"),
        ("serving_network", "", "serving_network"),
        ("cache_ttl_ms", 1.5, "cache_ttl_ms"),
        ("cache_capacity", True, "cache_capacity"),
        ("dos_filter", 1, "dos_filter"),
        ("ues[0].allowed_slices", "default", "ues[0].allowed_slices"),
        ("ues[0].allowed_slices", [], "ues[0].allowed_slices"),
        ("ues[0].period_ms", 0, "ues[0].period_ms"),
        ("ues[0].qos_class", "gold", "ues[0].qos_class"),
        # no rule reads a QoS class, so a scenario cannot set one
        ("ues[0].qos_class", "best-effort", "ues[0].qos_class"),
        ("ues", [], "ues"),
        # otherwise every attempt times out before it reaches the RAN
        ("request_timeout_ms", 2, "request_timeout_ms"),
        ("backhaul.base_latency_ms", -1, "backhaul.base_latency_ms"),
        ("message_bytes", [1], "message_bytes"),
        ("xapp_delays_ms", [], "xapp_delays_ms"),
        ("message_bytes.default", -1, "message_bytes.default"),
        ("message_bytes.REG_REQEST", 100_000, "message_bytes.REG_REQEST"),
        # a later entry for a cohort would override the earlier one
        ("prewarm", [{"cohort": "a"}, {"cohort": "a", "ttl_ms": 1000}],
         "prewarm[1].cohort"),
        ("xapp_delays_ms.nonexistent", 20, "xapp_delays_ms.nonexistent"),
        ("thresholds.bandwidth_free_fraction", float("nan"),
         "thresholds.bandwidth_free_fraction"),
        # past 2**53 - 1; a float field would overflow converting it
        pytest.param("ues[0].arrival.rate_per_s", 10**400,
                     "ues[0].arrival.rate_per_s", id="huge-int-in-float-field"),
    ])
    def test_bad_value_names_its_field(self, path, value, named):
        doc = minimal_doc(home_backhaul={"base_latency_ms": 5,
                                         "bandwidth_bps": 1000})
        set_path(doc, path, value)
        with pytest.raises(ScenarioError) as info:
            config_from_dict(doc)
        assert info.value.fieldname == named

    def test_missing_nested_field_named(self):
        doc = minimal_doc()
        del doc["ues"][0]["arrival"]["kind"]
        with pytest.raises(ScenarioError) as info:
            config_from_dict(doc)
        assert info.value.fieldname == "ues[0].arrival.kind"

    def test_json_types_map_onto_fields(self):
        doc = minimal_doc(probationary={"services": ["messaging", "voice"]})
        doc["ues"][0]["arrival"] = {"kind": "poisson", "rate_per_s": 25}
        doc["backhaul"]["outages"] = [[0, 100]]
        cfg = config_from_dict(doc)
        rate = cfg.ues[0].arrival.rate_per_s
        assert (type(rate), rate) == (float, 25.0)
        assert cfg.probationary.services == ("messaging", "voice")
        assert cfg.backhaul.outages == [(0, 100)]
        assert cfg.ues[0].home_network is None

    def test_replace_runs_the_cross_field_checks(self):
        cfg = config_from_dict(minimal_doc())
        with pytest.raises(ScenarioError, match="design"):
            replace(cfg, design="hybrid")
        with pytest.raises(ScenarioError, match="design"):
            cfg.with_overrides(design="hybrid")

    def test_deployed_xapps_leave_out_those_turned_off(self):
        off = config_from_dict(minimal_doc(design="logic-replication"))
        assert off.deployed_xapps() == (
            "routing", "decision-cache", "backhaul-assessor", "state-auth",
            "session-establish")
        on = replace(off, dos_filter=True)
        on.probationary.enabled = True
        assert on.deployed_xapps() == DESIGN_XAPPS["logic-replication"]
        assert replace(off, design="baseline").deployed_xapps() == ()

    def test_message_size_fallback(self):
        cfg = config_from_dict(minimal_doc(message_bytes={"AUTH_CHALLENGE": 640}))
        assert cfg.message_size("AUTH_CHALLENGE") == 640
        assert cfg.message_size("REG_REQUEST") == 512

    def test_message_types_are_the_messages_a_run_carries(self):
        # read from the source: no preset sends AUTH_FAILURE, AUTH_REJECT or
        # SESSION_REJECT
        tree = ast.parse(Path(simulation.__file__).read_text())
        sent = [node.args[1].value for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "_cross"]
        assert sorted(set(sent)) == sorted(MESSAGE_TYPES)


class TestLoadScenario:
    def test_round_trip_through_file(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(minimal_doc()))
        assert load_scenario(path).name == "tiny"

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n "name": "x",\n broken\n}')
        with pytest.raises(ScenarioError, match="line 3"):
            load_scenario(path)

    @pytest.mark.parametrize("once, twice, named", [
        pytest.param('"seed": 1', '"seed": 1, "seed": 2', "seed", id="seed"),
        pytest.param('"dos_window_ms": 5',
                     '"dos_window_ms": 5, "dos_window_ms": 6',
                     "thresholds.dos_window_ms", id="nested"),
        pytest.param('"default": 64', '"default": 64, "default": 64',
                     "message_bytes.default", id="map-same-value"),
        pytest.param('"count": 2', '"count": 3, "count": 2', "ues[0].count",
                     id="in-list"),
    ])
    def test_repeated_key_rejected_and_named(self, tmp_path, once, twice,
                                             named):
        doc = json.dumps(minimal_doc(thresholds={"dos_window_ms": 5},
                                     message_bytes={"default": 64}))
        path = tmp_path / "repeated.json"
        path.write_text(doc)
        load_scenario(path)  # each key once
        path.write_text(doc.replace(once, twice))
        with pytest.raises(ScenarioError) as exc:
            load_scenario(path)
        assert exc.value.fieldname == named

    def test_non_object_top_level_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ScenarioError):
            load_scenario(path)


def _nodes(value, path=()):
    """Every (path, value) in a JSON document, the root first."""
    yield path, value
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _nodes(child, path + (key,))


PRESET_DOCS = {name: json.loads(preset_path(name).read_text())
               for name in preset_names()}
ODD_VALUES = [0, -1, 1, 2.5, "x", True, None, [], {}]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_one_mutation_is_rejected_or_runs(data):
    doc = copy.deepcopy(PRESET_DOCS[data.draw(st.sampled_from(
        sorted(PRESET_DOCS)))])
    nodes = list(_nodes(doc))
    value = data.draw(st.sampled_from(ODD_VALUES))
    if data.draw(st.booleans()):
        path, _ = data.draw(st.sampled_from(nodes[1:]))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    else:
        _, target = data.draw(st.sampled_from(
            [n for n in nodes if isinstance(n[1], dict)]))
        target["unknown_key"] = value
    with tempfile.TemporaryDirectory() as tmp, \
            pytest.MonkeyPatch.context() as mp:
        # every preset fits this budget, so the runs stay short
        mp.setattr(scenario_module, "MAX_ATTEMPTS", 2000)
        scenario = Path(tmp) / "scenario.json"
        scenario.write_text(json.dumps(doc))
        code = main(["run", "--scenario", str(scenario),
                     "--out", str(Path(tmp) / "out.csv")])
    assert code in (0, 2)  # run, or rejected by validation; never a failure


class TestRunBudget:
    @pytest.mark.parametrize("name", ["disaster", "flash_crowd", "ntn", "zta"])
    def test_bound_covers_every_preset_run(self, name):
        cfg = load_preset(name)
        for seed in (1, 2, 3):
            for design, report in compare_designs(cfg, seed).reports.items():
                bound = cfg.with_overrides(design=design).attempt_bound()
                assert bound >= len(report.rows), (design, seed)

    @pytest.mark.parametrize("workload", ["design_sweep", "flood_filter"])
    def test_bound_covers_both_benchmark_workloads(self, workloads, workload):
        doc = workloads.scenario(workload, 1)
        it = workloads.iterate(workload, doc, workloads.SetupClock())
        cfg = config_from_dict(workloads.scenario(workload, 1))
        for report in it.reports:
            bounded = cfg.with_overrides(design=report.design)
            assert bounded.attempt_bound() >= len(report.rows)

    def test_bound_at_the_limit_is_accepted(self, monkeypatch):
        cfg = config_from_dict(minimal_doc(reauth_interval_ms=1000))
        # 2 devices: 2 registrations and 2 * 10 re-authentications
        assert cfg.attempt_bound() == 22
        monkeypatch.setattr(scenario_module, "MAX_ATTEMPTS", 22)
        replace(cfg)
        monkeypatch.setattr(scenario_module, "MAX_ATTEMPTS", 21)
        with pytest.raises(ScenarioError) as info:
            replace(cfg)
        assert info.value.fieldname == "reauth_interval_ms"

    @pytest.mark.parametrize("horizon, cohort, field", [
        (10_000, {"count": MAX_JSON_INT}, "ues[0].count"),
        (MAX_JSON_INT, {"count": 1}, "reauth_interval_ms"),
        (MAX_JSON_INT, {"behavior": "periodic-sensor", "period_ms": 1},
         "ues[0].period_ms"),
        (10_000, {"behavior": "attacker-flood", "count": 2_000_000,
                  "arrival": {"kind": "flood", "rate_per_s": 1000}},
         "ues[0].count"),
    ])
    def test_rejects_before_building_and_names_the_dominant_field(
            self, horizon, cohort, field):
        doc = minimal_doc(horizon_ms=horizon)
        doc["ues"][0].update(cohort)
        with pytest.raises(ScenarioError) as info:
            config_from_dict(doc)
        assert info.value.fieldname == field

    def test_probation_polls_count_only_where_they_can_run(self,
                                                           monkeypatch):
        roamers = {"cohort": "r", "count": 10, "behavior": "roamer",
                   "home_network": "net-home",
                   "arrival": {"kind": "fixed", "time_ms": 0}}
        doc = minimal_doc(ues=[roamers], probationary={"enabled": True},
                          thresholds={"probe_interval_ms": 1})
        # baseline runs neither the probationary xApp nor the assessor
        assert config_from_dict(doc).attempt_bound() == 10
        monkeypatch.setattr(scenario_module, "MAX_ATTEMPTS", 2000)
        with pytest.raises(ScenarioError) as info:
            config_from_dict(dict(doc, design="logic-replication"))
        assert info.value.fieldname == "thresholds.probe_interval_ms"


class TestPresets:
    def test_four_presets_bundled(self):
        assert preset_names() == ["disaster", "flash_crowd", "ntn", "zta"]

    @pytest.mark.parametrize("name", ["disaster", "flash_crowd", "ntn", "zta"])
    def test_each_preset_loads_and_validates(self, name):
        cfg = load_preset(name)
        assert cfg.design in DESIGNS
        assert cfg.horizon_ms > 0
        assert cfg.ues

    def test_unknown_preset_rejected(self):
        with pytest.raises(ScenarioError):
            load_preset("apocalypse")
