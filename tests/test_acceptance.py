"""Acceptance suite: one pass/fail line is printed per criterion.

Each test exercises an end-to-end property of the delegation designs at desk
scale. Expected numbers are either exact by construction or frozen from the
arithmetic oracles spelled out inline.
"""

import contextlib
import random
import statistics
from dataclasses import replace

import pytest

from randelsim import crypto
from randelsim.crypto import RootSecret, SequenceState, SyncFailure, UsimState
from randelsim.harness import compare_designs
from randelsim.ric import DecisionCacheEntry, InvalidBudget, TtlCache, XAppDescriptor
from randelsim.scenario import DESIGNS, config_from_dict, load_preset
from randelsim.simulation import Simulation
from randelsim.ue import UeDevice, UeProfile

HOUR_TTL = 3_600_000
PRESETS = ("disaster", "flash_crowd", "ntn", "zta")


@contextlib.contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


@pytest.fixture(scope="module")
def disaster_comparison():
    return compare_designs(load_preset("disaster"))


@pytest.fixture(scope="module")
def preset_reports():
    return {name: Simulation(load_preset(name)).run() for name in PRESETS}


def population_config(seed: int):
    return config_from_dict({
        "name": "population",
        "seed": seed,
        "horizon_ms": 30_000,
        "design": "baseline",
        "backhaul": {"base_latency_ms": 20, "bandwidth_bps": 1_000_000},
        "ues": [
            {"cohort": "subs", "count": 100, "behavior": "interactive",
             "arrival": {"kind": "poisson", "time_ms": 0, "rate_per_s": 50}},
            {"cohort": "attackers", "count": 20, "behavior": "attacker-flood",
             "arrival": {"kind": "flood", "time_ms": 0, "rate_per_s": 20}},
        ],
    })


def test_01_mutual_auth_correctness():
    with criterion(1, "mutual-auth"):
        for seed in (1, 2, 3):
            sim = Simulation(population_config(seed))
            report = sim.run()
            succeeded = {r.ue_id for r in report.rows
                         if r.outcome == "success"}
            assert len(succeeded) == 100  # every real subscriber got through
            for ue_id in succeeded:
                device = sim.devices[ue_id]
                cid = device.identity.cached_id
                # both sides finished with the same anchor and session keys
                assert sim.serving.seaf_hierarchies[cid] == device.hierarchy
            attacker_rows = [r for r in report.rows if r.cohort == "attackers"]
            assert attacker_rows
            assert all(r.outcome != "success" for r in attacker_rows)


def test_02_anchor_only_delegation():
    with criterion(2, "anchor-only-delegation"):
        rng = random.Random(2024)
        for _ in range(100):
            root = RootSecret(rng.randbytes(32))
            cid = rng.randbytes(32)
            av = crypto.generate_av(root, SequenceState(), "net-x", rng)
            core = crypto.build_hierarchy(av.k_derived, "net-x", cid)
            # a holder of the anchor alone reaches the same session keys
            edge = crypto.derive_session_keys(core.k_seaf, cid)
            assert (edge.k_amf, edge.k_nas, edge.k_up, edge.k_rrc) == (
                core.k_amf, core.k_nas, core.k_up, core.k_rrc)


def test_03_outage_availability_ordering(disaster_comparison):
    with criterion(3, "outage-availability"):
        expected = {
            "baseline": {"express": 0.0, "cached": 0.0,
                         "fresh": 0.0, "roamer": 0.0},
            "decision-cache": {"express": 1.0, "cached": 0.0,
                               "fresh": 0.0, "roamer": 0.0},
            "logic-replication": {"express": 1.0, "cached": 1.0,
                                  "fresh": 0.0, "roamer": 1.0},
            "colocated": {"express": 1.0, "cached": 1.0,
                          "fresh": 1.0, "roamer": 0.0},
        }
        for design, rates in expected.items():
            report = disaster_comparison.reports[design]
            got = report.aggregates["success_rate_by_cohort"]
            assert got == rates, design


def test_04_zero_backhaul_guarantee(preset_reports, disaster_comparison):
    with criterion(4, "zero-backhaul"):
        reports = list(preset_reports.values()) \
            + list(disaster_comparison.reports.values())
        checked = 0
        for report in reports:
            for row in report.rows:
                local = row.path in ("express", "delegated", "probationary")
                if local or row.outcome == "filtered":
                    assert row.backhaul_msgs == 0
                    assert row.backhaul_bytes == 0
                    checked += 1
        assert checked > 0


def test_05_latency_ordering(preset_reports):
    with criterion(5, "latency-ordering"):
        cfg = load_preset("ntn")
        rows = preset_reports["ntn"].rows
        reg = [r for r in rows if r.request_type == "registration"
               and r.outcome == "success"]
        express = [r.latency_ms for r in reg if r.path == "express"]
        standard = [r.latency_ms for r in reg if r.path == "standard"]
        assert express and standard
        p50_express = statistics.median(express)
        p50_standard = statistics.median(standard)
        assert p50_express < p50_standard
        # oracle arithmetic at L = 600 ms one-way, 512 B at 2 MB/s (1 ms):
        #   express  = 1 radio in + routing 10 + cache 15 + 3 radio = 33
        #   standard = routing 10 + 6 radio + 6*(600+1) + 7 hops = 3635
        L = cfg.backhaul.base_latency_ms
        xapp = 25
        oracle_express = 2 + 25 + 6
        oracle_standard = 10 + 12 + 6 * (L + 1) + 7
        assert abs(p50_express - oracle_express) <= 1
        gap = p50_standard - p50_express
        assert gap >= 2 * L - xapp
        assert abs(gap - (oracle_standard - oracle_express)) <= 1


def test_06_replay_resistance():
    with criterion(6, "replay-resistance"):
        for seed in range(10):
            rng = random.Random(seed)
            root = RootSecret(rng.randbytes(32))
            usim = UsimState(k=root)
            av = crypto.generate_av(root, SequenceState(), "net-a", rng)
            crypto.ue_verify_and_respond(usim, av.rand, av.autn)
            # (a) the same vector pushed at the device again is stale
            sessions = 0
            try:
                crypto.ue_verify_and_respond(usim, av.rand, av.autn)
                sessions += 1
            except SyncFailure:
                pass
            assert sessions == 0
            # (b) a recorded express transcript fails against a fresh nonce
            cid = rng.randbytes(32)
            k_seaf = rng.randbytes(32)
            captured_mac = crypto.express_response_mac(
                k_seaf, cid, b"\x00" * 8 + rng.randbytes(8))
            fresh_nonce = b"\x00" * 7 + b"\x01" + rng.randbytes(8)
            assert captured_mac != crypto.express_response_mac(
                k_seaf, cid, fresh_nonce)


def test_07_dos_mitigation_ordering():
    with criterion(7, "dos-mitigation"):
        base = load_preset("flash_crowd")
        budget = base.thresholds.dos_unknown_per_window
        for seed in (11, 12, 13, 14, 15):
            on = Simulation(base, seed=seed).run()
            off = Simulation(replace(base, dos_filter=False), seed=seed).run()
            legit_on = on.success_rate("legit")
            assert legit_on >= 0.95
            leaked = [r for r in on.rows
                      if r.cohort == "attackers" and r.backhaul_msgs > 0]
            assert len(leaked) <= budget
            assert off.success_rate("legit") < legit_on
            assert off.link_bytes_total > on.link_bytes_total


def test_08_probationary_lifecycle():
    with criterion(8, "probationary-lifecycle"):
        cfg = config_from_dict({
            "name": "roamer-outage",
            "seed": 42,
            "horizon_ms": 60_000,
            "design": "logic-replication",
            "backhaul": {"base_latency_ms": 50, "bandwidth_bps": 1_000_000,
                         "outages": [[0, 4000]]},
            "probationary": {"enabled": True, "slice_id": "probation",
                             "services": ["messaging"]},
            "ues": [{"cohort": "r", "count": 1, "behavior": "roamer",
                     "home_network": "net-home", "slice_id": "default",
                     "authorized_services": ["data", "voice"],
                     "arrival": {"kind": "fixed", "time_ms": 1000}}],
        })
        sim = Simulation(cfg)
        report = sim.run()
        device = next(iter(sim.devices.values()))
        cid = device.identity.cached_id

        first = report.rows[0]
        assert (first.path, first.outcome) == ("probationary", "success")
        events = [e for _, _, e, _ in sim.ric.access_log]
        assert events.index("probationary-admit") < events.index("upgraded")
        admit_detail = next(d for _, _, e, d in sim.ric.access_log
                            if e == "probationary-admit")
        assert admit_detail == "probation:messaging"
        # after the deferred auth the session carries the real subscription
        assert device.session_slice == "default"
        assert device.session_services == frozenset({"data", "voice"})
        assert sim.ric.cache.contains(cid)


def test_09_transparency():
    with criterion(9, "transparency"):
        doc = {
            "name": "transparent",
            "seed": 21,
            "horizon_ms": 30_000,
            "design": "baseline",
            "backhaul": {"base_latency_ms": 20, "bandwidth_bps": 10_000_000},
            "ues": [{"cohort": "c", "count": 20, "behavior": "interactive",
                     "arrival": {"kind": "poisson", "time_ms": 0,
                                 "rate_per_s": 5}}],
        }
        base = Simulation(config_from_dict(doc)).run()
        doc["design"] = "logic-replication"
        repl = Simulation(config_from_dict(doc)).run()
        assert ([(r.ue_id, r.outcome, r.path) for r in base.rows]
                == [(r.ue_id, r.outcome, r.path) for r in repl.rows])
        deltas = {b.latency_ms - a.latency_ms
                  for a, b in zip(base.rows, repl.rows)}
        assert deltas == {10}  # exactly the routing xApp budget


def test_10_ttl_semantics():
    with criterion(10, "ttl-semantics"):
        cache = TtlCache()
        cache.store(DecisionCacheEntry(
            cached_id=b"\x01" * 32, k_seaf=b"\x02" * 32,
            control_plane_decisions={"registration": {}},
            data_plane_decisions={}, ttl=HOUR_TTL, created_at=0))
        hit = cache.lookup(b"\x01" * 32, "registration", HOUR_TTL - 1)
        assert isinstance(hit, DecisionCacheEntry)
        miss = cache.lookup(b"\x01" * 32, "registration", HOUR_TTL)
        assert not isinstance(miss, DecisionCacheEntry)


def test_11_xapp_budget():
    with criterion(11, "xapp-budget"):
        for design in DESIGNS:
            cfg = load_preset("disaster").with_overrides(design=design)
            sim = Simulation(cfg)
            for xapp in sim.ric.xapps.values():
                assert 10 <= xapp.processing_delay <= 1000
        for bad in (5, 9, 1001, 1500):
            with pytest.raises(InvalidBudget):
                XAppDescriptor("bad", bad)
        cfg = load_preset("ntn")
        cfg.xapp_delays_ms["routing"] = 5
        with pytest.raises(InvalidBudget):
            Simulation(cfg)


def test_12_determinism():
    with criterion(12, "determinism"):
        for name in PRESETS:
            cfg = load_preset(name)
            first = Simulation(cfg).run().to_csv()
            second = Simulation(cfg).run().to_csv()
            assert first == second, name


def test_13_security_audit(disaster_comparison):
    with criterion(13, "security-audit"):
        reports = disaster_comparison.reports
        assert reports["baseline"].audit_flags == []
        assert reports["colocated"].audit_flags == ["root-secret-at-edge"]
        for design in ("decision-cache", "logic-replication"):
            assert set(reports[design].audit_flags) <= {"k-seaf-at-edge"}
        from randelsim.ric import (BackhaulHealth, RegistrationRequest,
                                   StateCacheEntry, audit_type_for_root_secret)
        for tp in (DecisionCacheEntry, StateCacheEntry, BackhaulHealth,
                   XAppDescriptor, RegistrationRequest):
            assert audit_type_for_root_secret(tp) == []
