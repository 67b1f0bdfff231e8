import csv
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import randelsim
from randelsim.cli import main
from randelsim.harness import COMPARE_COLUMNS, compare_designs
from randelsim.metrics import CSV_COLUMNS
from randelsim.scenario import DESIGNS, load_preset, preset_path
from test_acceptance import TRANSPARENCY_DOC
from test_scenario import set_path


def small_scenario(tmp_path, **overrides):
    doc = {
        "name": "cli-test",
        "seed": 3,
        "horizon_ms": 20_000,
        "design": "baseline",
        "backhaul": {"base_latency_ms": 30, "bandwidth_bps": 1_000_000},
        "ues": [{"cohort": "a", "count": 3, "behavior": "interactive",
                 "arrival": {"kind": "fixed", "time_ms": 100},
                 "express_eligible": True}],
        "prewarm": [{"cohort": "a"}],
    }
    doc.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return path


class TestRun:
    def test_writes_csv_with_fixed_header(self, tmp_path, capsys):
        scenario = small_scenario(tmp_path)
        out = tmp_path / "out.csv"
        assert main(["run", "--scenario", str(scenario),
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 4  # header + one row per device
        assert "success=" in capsys.readouterr().out

    def test_design_and_seed_overrides_land_in_rows(self, tmp_path):
        scenario = small_scenario(tmp_path)
        out = tmp_path / "out.csv"
        main(["run", "--scenario", str(scenario), "--design", "decision-cache",
              "--seed", "77", "--out", str(out)])
        row = out.read_text().splitlines()[1].split(",")
        assert row[1] == "decision-cache"
        assert row[2] == "77"
        assert row[5] == "express"  # prewarmed and eligible

    def test_repeat_runs_bit_identical(self, tmp_path):
        scenario = small_scenario(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["run", "--scenario", str(scenario), "--out", str(a)])
        main(["run", "--scenario", str(scenario), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_preset_name_resolves(self, tmp_path):
        out = tmp_path / "zta.csv"
        assert main(["run", "--scenario", "zta", "--out", str(out)]) == 0
        assert out.exists()


class TestCompare:
    def test_emits_per_design_and_summary_files(self, tmp_path, capsys):
        scenario = small_scenario(tmp_path)
        out_dir = tmp_path / "cmp"
        assert main(["compare", "--scenario", str(scenario),
                     "--out", str(out_dir)]) == 0
        for design in DESIGNS:
            assert (out_dir / f"cli-test-{design}.csv").exists()
        table = (out_dir / "cli-test-comparison.csv").read_text().splitlines()
        assert table[0] == ",".join(COMPARE_COLUMNS)
        assert len(table) == 1 + len(DESIGNS)
        assert capsys.readouterr().out.splitlines()[0] == table[0]


class TestExitCodes:
    def test_validation_error_is_2(self, tmp_path, capsys):
        scenario = small_scenario(tmp_path, design="nope")
        out = tmp_path / "out.csv"
        assert main(["run", "--scenario", str(scenario),
                     "--out", str(out)]) == 2
        assert "design" in capsys.readouterr().err

    def test_missing_scenario_is_2(self, tmp_path, capsys):
        assert main(["run", "--scenario", "no-such-preset",
                     "--out", str(tmp_path / "x.csv")]) == 2

    def test_scenario_directory_is_2(self, tmp_path, capsys):
        assert main(["run", "--scenario", str(tmp_path),
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert "validation error: <file>: " in capsys.readouterr().err

    def test_undecodable_scenario_is_2(self, tmp_path, capsys):
        scenario = small_scenario(tmp_path)
        scenario.write_bytes(b"\xff\xfe" + scenario.read_bytes())
        assert main(["run", "--scenario", str(scenario),
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert "validation error: <file>: " in capsys.readouterr().err

    @pytest.mark.parametrize("malformed", ["huge-seed", "deep-nesting"])
    def test_json_the_decoder_refuses_is_2(self, tmp_path, capsys, malformed):
        if malformed == "huge-seed":
            # past the interpreter's digit limit for converting a str to int
            text = preset_path("zta").read_text().replace(
                '"seed": 5', '"seed": ' + "7" * 5000)
        else:  # past the decoder's recursion limit
            text = "[" * 100_000 + "]" * 100_000
        scenario = tmp_path / "scenario.json"
        scenario.write_text(text)
        assert main(["run", "--scenario", str(scenario),
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert "validation error: <file>: " in capsys.readouterr().err

    def test_run_failure_is_1(self, tmp_path, capsys):
        scenario = small_scenario(tmp_path)
        # output path inside a missing directory fails after validation
        assert main(["run", "--scenario", str(scenario),
                     "--out", str(tmp_path / "no" / "dir" / "x.csv")]) == 1

    @pytest.mark.parametrize("path, value", [
        ("thresholds.probe_interval_ms", 0),
        ("cache_capacity", 0),
        ("xapp_delays_ms.routing", 5),
        ("radio_latency_ms", -1),
        ("core_hop_latency_ms", -1),
        ("request_timeout_ms", 0),
        ("thresholds.utilization_window_ms", 0),
        ("reauth_interval_ms", 0),
        ("reauth_interval_ms", -5),
        ("ues[0].arrival.time_ms", -1),
        ("message_bytes.default", -100_000),
        ("message_bytes.REG_REQEST", 100_000),  # sizes no message
        ("ues[0].qos_class", "gold"),
        ("ues[0].allowed_slices", []),
        ("dos_fitler", True),
        ("xapp_delays_ms.nonexistent", 20),
        # the assessor and the filter carry no delay of their own
        ("xapp_delays_ms.dos-filter", 20),
        ("xapp_delays_ms.backhaul-assessor", 20),
        ("request_timeout_ms", 2),  # zta's radio latency
        pytest.param("backhaul.bandwidth_bps", 10**400,
                     id="backhaul.bandwidth_bps-10**400"),
        pytest.param("backhaul.jitter_ms", 10**400,
                     id="backhaul.jitter_ms-10**400"),
        pytest.param("message_bytes.default", 10**400,
                     id="message_bytes.default-10**400"),
        ("backhaul.jitter_ms", 52),  # zta's base latency is 50 ms
        ("home_backhaul.jitter_ms", 52),
        ("serving_network", ""),
    ])
    def test_bad_zta_value_is_2_and_named(self, tmp_path, path, value):
        doc = json.loads(preset_path("zta").read_text())
        if path.startswith("home_backhaul."):
            doc["home_backhaul"] = dict(doc["backhaul"])  # zta has none
        set_path(doc, path, value)
        scenario = tmp_path / "zta.json"
        scenario.write_text(json.dumps(doc))
        src = Path(randelsim.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        # a subprocess with a timeout, so a scenario that hangs the run fails
        proc = subprocess.run(
            [sys.executable, "-m", "randelsim.cli", "run",
             "--scenario", str(scenario), "--out", str(tmp_path / "x.csv")],
            capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 2, proc.stderr
        assert path in proc.stderr

    @pytest.mark.parametrize("path", ["name", "ues[0].cohort"])
    @pytest.mark.parametrize("value", [
        "x,y", 'x"y', "c,1\nz", "sub/x", "../escaped", "..\\escaped", "",
    ], ids=["comma", "quote", "newline", "slash", "dotdot", "backslash",
            "empty"])
    def test_name_that_breaks_the_csv_or_a_path_is_2(self, tmp_path, capsys,
                                                    path, value):
        doc = json.loads(small_scenario(tmp_path).read_text())
        set_path(doc, path, value)
        scenario = tmp_path / "bad.json"
        scenario.write_text(json.dumps(doc))
        out = tmp_path / "runs" / "out"
        assert main(["compare", "--scenario", str(scenario),
                     "--out", str(out)]) == 2
        assert f"validation error: {path}: must be nonempty" in \
            capsys.readouterr().err
        # nothing was run or written, inside --out or outside it
        assert not (tmp_path / "runs").exists()

    def test_endless_reauthentication_is_2_within_a_second(self, tmp_path,
                                                           capsys):
        # about 1.8M re-authentications fit in zta's 60 s horizon
        doc = json.loads(preset_path("zta").read_text())
        doc.update(design="colocated", radio_latency_ms=0,
                   core_hop_latency_ms=0, reauth_interval_ms=1)
        scenario = tmp_path / "zta.json"
        scenario.write_text(json.dumps(doc))
        argv = ["run", "--scenario", str(scenario),
                "--out", str(tmp_path / "x.csv")]
        src = Path(randelsim.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        # a subprocess with a timeout first, so a run that hangs fails
        proc = subprocess.run([sys.executable, "-m", "randelsim.cli", *argv],
                              capture_output=True, text=True, timeout=60,
                              env=env)
        assert proc.returncode == 2, proc.stderr
        assert "reauth_interval_ms" in proc.stderr
        # the rejection itself, timed without an interpreter's start-up
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1.0
        assert "reauth_interval_ms" in capsys.readouterr().err

    def test_presets_list(self, capsys):
        assert main(["presets", "list"]) == 0
        assert capsys.readouterr().out.split() == ["disaster", "flash_crowd",
                                                   "ntn", "zta"]


class TestXappDelays:
    """A scenario document's ``xapp_delays_ms``, through ``randelsim run``."""

    @pytest.mark.parametrize("delay", [5, 1001])
    def test_delay_outside_the_budget_is_2_and_named(self, tmp_path, capsys,
                                                     delay):
        scenario = small_scenario(tmp_path, xapp_delays_ms={"routing": delay})
        out = tmp_path / "x.csv"
        assert main(["run", "--scenario", str(scenario),
                     "--out", str(out)]) == 2
        assert ("validation error: xapp_delays_ms.routing: processing_delay "
                f"{delay} outside [10, 1000] ms") in capsys.readouterr().err
        assert not out.exists()

    def test_routing_delay_is_criterion_9s_latency_delta(self, tmp_path):
        doc = dict(TRANSPARENCY_DOC, xapp_delays_ms={"routing": 30})
        scenario = tmp_path / "transparent.json"
        scenario.write_text(json.dumps(doc))
        rows = {}
        for design in ("baseline", "logic-replication"):
            out = tmp_path / f"{design}.csv"
            assert main(["run", "--scenario", str(scenario), "--design",
                         design, "--out", str(out)]) == 0
            rows[design] = list(csv.DictReader(out.open()))
        base, repl = rows["baseline"], rows["logic-replication"]
        assert [(r["ue_id"], r["path"]) for r in base] == [
            (r["ue_id"], r["path"]) for r in repl]
        assert {int(b["latency_ms"]) - int(a["latency_ms"])
                for a, b in zip(base, repl)} == {30}


class TestHarness:
    def test_compare_runs_all_designs_same_workload(self):
        cfg = load_preset("disaster")
        comparison = compare_designs(cfg)
        assert sorted(comparison.reports) == sorted(DESIGNS)
        rows = comparison.table_rows()
        assert [r["design"] for r in rows] == list(DESIGNS)
        baseline = comparison.reports["baseline"]
        colocated = comparison.reports["colocated"]
        assert {r.ue_id for r in baseline.rows} == {r.ue_id
                                                   for r in colocated.rows}
