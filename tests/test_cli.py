import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import randelsim
from randelsim.cli import main
from randelsim.harness import COMPARE_COLUMNS, compare_designs
from randelsim.metrics import CSV_COLUMNS
from randelsim.scenario import DESIGNS, load_preset, preset_path
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
        ("ues[0].qos_class", "gold"),
        ("ues[0].allowed_slices", []),
        ("dos_fitler", True),
        ("xapp_delays_ms.nonexistent", 20),
        ("request_timeout_ms", 2),  # zta's radio latency
        pytest.param("backhaul.bandwidth_bps", 10**400,
                     id="backhaul.bandwidth_bps-10**400"),
        pytest.param("backhaul.jitter_ms", 10**400,
                     id="backhaul.jitter_ms-10**400"),
        pytest.param("message_bytes.default", 10**400,
                     id="message_bytes.default-10**400"),
    ])
    def test_bad_zta_value_is_2_and_named(self, tmp_path, path, value):
        doc = json.loads(preset_path("zta").read_text())
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

    def test_presets_list(self, capsys):
        assert main(["presets", "list"]) == 0
        assert capsys.readouterr().out.split() == ["disaster", "flash_crowd",
                                                   "ntn", "zta"]


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
