import copy
import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randelsim.scenario import (DESIGNS, ScenarioError, config_from_dict,
                                load_preset, load_scenario, preset_names,
                                preset_path)
from randelsim.simulation import Simulation


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
        with pytest.raises(ScenarioError, match="behavior"):
            config_from_dict(doc)

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
        ("ues[0].arrival.time_ms", -1, "ues[0].arrival.time_ms"),
        ("backhaul.bandwidth_bps", 0, "backhaul.bandwidth_bps"),
        ("backhaul.loss_probability", 1.5, "backhaul.loss_probability"),
        ("backhaul.outages", [[100, 50]], "backhaul.outages"),
        ("backhaul.outages", [[100]], "backhaul.outages[0]"),
        ("home_backhaul.jitter_ms", -1, "home_backhaul.jitter_ms"),
        ("cache_ttl_ms", 1.5, "cache_ttl_ms"),
        ("cache_capacity", True, "cache_capacity"),
        ("dos_filter", 1, "dos_filter"),
        ("ues[0].allowed_slices", "default", "ues[0].allowed_slices"),
        ("ues[0].allowed_slices", [], "ues[0].allowed_slices"),
        ("ues[0].qos_class", "gold", "ues[0].qos_class"),
        ("ues", [], "ues"),
        ("message_bytes.default", -1, "message_bytes.default"),
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

    def test_message_size_fallback(self):
        cfg = config_from_dict(minimal_doc(message_bytes={"AUTH_CHALLENGE": 640}))
        assert cfg.message_size("AUTH_CHALLENGE") == 640
        assert cfg.message_size("REG_REQUEST") == 512


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
def test_one_mutation_is_rejected_or_constructs(data):
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
    try:
        cfg = config_from_dict(doc)
    except ScenarioError:
        return
    Simulation(cfg)


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
