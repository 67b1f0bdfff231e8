import gc
import weakref

import pytest

from randelsim.scenario import (DESIGNS, config_from_dict, load_preset,
                                preset_names)
from randelsim.simulation import (BACKHAUL_MSGS_FULL_REG, BACKHAUL_MSGS_REAUTH,
                                  CORE_HOPS_FULL_REG, RADIO_HOPS_FULL_REG,
                                  Simulation)

# Shared link parameters for the arithmetic oracles below: 512 B at 1 MB/s
# serializes in 1 ms, so each backhaul crossing costs 50 + 1 = 51 ms.
LINK = {"base_latency_ms": 50, "bandwidth_bps": 1_000_000}


def make_config(design="baseline", horizon=30_000, cohorts=None, **extra):
    doc = {
        "name": "scripted",
        "seed": 42,
        "horizon_ms": horizon,
        "design": design,
        "backhaul": dict(LINK, **extra.pop("backhaul", {})),
        "ues": cohorts or [one_ue()],
    }
    doc.update(extra)
    return config_from_dict(doc)


def one_ue(**overrides):
    spec = {"cohort": "solo", "count": 1, "behavior": "interactive",
            "arrival": {"kind": "fixed", "time_ms": 0}}
    spec.update(overrides)
    return spec


class TestStandardFlowOracle:
    def test_full_registration_latency_arithmetic(self):
        # 6 radio hops at 2 ms, 6 crossings at 51 ms, 7 core hops at 1 ms
        report = Simulation(make_config()).run()
        (row,) = report.rows
        expected = (RADIO_HOPS_FULL_REG * 2
                    + BACKHAUL_MSGS_FULL_REG * 51
                    + CORE_HOPS_FULL_REG * 1)
        assert row.outcome == "success"
        assert row.path == "standard"
        assert row.latency_ms == expected == 325

    def test_full_registration_message_budget(self):
        report = Simulation(make_config()).run()
        (row,) = report.rows
        assert row.backhaul_msgs == BACKHAUL_MSGS_FULL_REG
        assert row.backhaul_bytes == BACKHAUL_MSGS_FULL_REG * 512
        assert report.link_bytes_total == row.backhaul_bytes

    def test_reauth_message_budget(self):
        sim = Simulation(make_config(horizon=90_000))
        report = sim.run()
        reg, reauth = report.rows
        assert (reg.request_type, reauth.request_type) == ("registration",
                                                           "reauth")
        assert reauth.backhaul_msgs == BACKHAUL_MSGS_REAUTH

    def test_reauth_cadence_over_150s(self):
        # one registration at t=0, then re-auths at ~60 s and ~120 s
        report = Simulation(make_config(horizon=150_000)).run()
        assert [r.request_type for r in report.rows] == ["registration",
                                                         "reauth", "reauth"]
        assert all(r.outcome == "success" for r in report.rows)

    def test_both_sides_agree_on_anchor(self):
        sim = Simulation(make_config())
        sim.run()
        device = next(iter(sim.devices.values()))
        cid = device.identity.cached_id
        assert sim.serving.seaf_hierarchies[cid] == device.hierarchy

    def test_session_established_in_core(self):
        sim = Simulation(make_config())
        sim.run()
        device = next(iter(sim.devices.values()))
        session = sim.serving.sessions[device.identity.cached_id]
        assert session.slice_id == "default"
        assert device.session_slice == "default"


class TestFailureModes:
    def test_outage_times_request_out_without_session(self):
        cfg = make_config(backhaul={"outages": [[0, 30_000]]},
                          request_timeout_ms=3000)
        sim = Simulation(cfg)
        report = sim.run()
        (row,) = report.rows
        assert row.outcome == "timeout"
        assert row.latency_ms == 3000
        assert not sim.serving.sessions
        # the send was attempted, so the wire still carried the bytes
        assert report.link_bytes_total == 512

    def test_straggler_finalized_at_horizon(self):
        cfg = make_config(horizon=300,
                          cohorts=[one_ue(arrival={"kind": "fixed",
                                                   "time_ms": 100})])
        report = Simulation(cfg).run()
        (row,) = report.rows
        assert row.outcome == "timeout"

    def test_corrupt_device_key_is_mac_failure(self):
        cfg = make_config(cohorts=[one_ue(corrupt_key=True)])
        report = Simulation(cfg).run()
        (row,) = report.rows
        assert row.outcome == "mac-failure"

    def test_unprovisioned_device_not_found(self):
        cfg = make_config(cohorts=[{
            "cohort": "atk", "count": 1, "behavior": "attacker-flood",
            "arrival": {"kind": "flood", "time_ms": 0, "rate_per_s": 1}}])
        report = Simulation(cfg).run()
        (row,) = report.rows
        assert row.outcome == "subscriber-not-found"

    def test_disallowed_slice_policy_denied(self):
        cfg = make_config(cohorts=[one_ue(slice_id="secret",
                                          allowed_slices=["default"])])
        report = Simulation(cfg).run()
        (row,) = report.rows
        assert row.outcome == "policy-denied"


class TestColocated:
    def test_zero_backhaul_and_root_secret_flag(self):
        report = Simulation(make_config(design="colocated")).run()
        (row,) = report.rows
        assert row.outcome == "success"
        assert row.backhaul_msgs == 0
        assert report.link_bytes_total == 0
        assert report.audit_flags == ["root-secret-at-edge"]


class TestExpressPath:
    def prewarmed_config(self, design="decision-cache", **extra):
        return make_config(
            design=design,
            cohorts=[one_ue(express_eligible=True)],
            prewarm=[{"cohort": "solo"}],
            **extra)

    def test_express_is_local_and_fast(self):
        # 1 radio in, routing 10 + decision-cache 15, 3 radio hops
        report = Simulation(self.prewarmed_config(horizon=10_000)).run()
        (row,) = report.rows
        assert (row.outcome, row.path) == ("success", "express")
        assert row.latency_ms == 2 + 25 + 3 * 2 == 33
        assert row.backhaul_msgs == 0
        assert report.link_bytes_total == 0

    def test_express_survives_total_outage(self):
        cfg = self.prewarmed_config(horizon=10_000,
                                    backhaul={"outages": [[0, 10_000]]})
        report = Simulation(cfg).run()
        (row,) = report.rows
        assert (row.outcome, row.path) == ("success", "express")

    def test_anchor_only_flag_reported(self):
        report = Simulation(self.prewarmed_config(horizon=10_000)).run()
        assert report.audit_flags == ["k-seaf-at-edge"]

    def test_cache_capture_enables_later_express(self):
        # no prewarm: the first attempt goes standard, its success seeds the
        # cache, and the re-auth then rides the express path
        cfg = make_config(design="decision-cache", horizon=70_000,
                          cohorts=[one_ue(express_eligible=True)])
        report = Simulation(cfg).run()
        reg, reauth = report.rows
        assert (reg.path, reauth.path) == ("standard", "express")
        assert reauth.backhaul_msgs == 0

    def test_expired_entry_falls_back_to_standard(self):
        cfg = self.prewarmed_config(horizon=10_000)
        cfg.prewarm[0].ttl_ms = 1  # dead before the device arrives
        report = Simulation(cfg).run()
        (row,) = report.rows
        assert (row.outcome, row.path) == ("success", "standard")


class TestDelegatedPath:
    def outage_config(self, **cohort_overrides):
        return make_config(
            design="logic-replication", horizon=10_000,
            backhaul={"outages": [[0, 10_000]]},
            cohorts=[one_ue(**cohort_overrides)],
            prewarm=[{"cohort": "solo"}])

    def test_state_cache_carries_through_outage(self):
        report = Simulation(self.outage_config()).run()
        (row,) = report.rows
        assert (row.outcome, row.path) == ("success", "delegated")
        assert row.backhaul_msgs == 0
        # routing 10 + state-auth 20 + session-establish 20, 4 radio hops
        assert row.latency_ms == 50 + 4 * 2 == 58

    def test_snapshot_policy_still_enforced(self):
        report = Simulation(self.outage_config(service="drone-control")).run()
        (row,) = report.rows
        assert (row.outcome, row.path) == ("policy-denied", "delegated")

    def test_local_session_from_ran_pool(self):
        sim = Simulation(self.outage_config())
        sim.run()
        (session,) = sim.ran_sessions.values()
        assert session.locally_granted
        assert session.assigned_address >= 16_000_000


class TestRanCache:
    @pytest.mark.parametrize("design", ["decision-cache", "logic-replication"])
    def test_one_entry_per_device(self, design):
        cfg = load_preset("disaster").with_overrides(design=design)
        sim = Simulation(cfg)
        sim.run()
        lines = sim.ric.dump_caches(cfg.horizon_ms)
        assert lines
        cids = [line.split()[1] for line in lines]
        assert len(cids) == len(set(cids))
        kind = "state" if design == "logic-replication" else "decision"
        assert {line.split()[0] for line in lines} == {kind}


class TestProbationary:
    def roamer_config(self, corrupt=False, outage_end=4000):
        return make_config(
            design="logic-replication", horizon=60_000,
            backhaul={"outages": [[0, outage_end]]},
            probationary={"enabled": True, "slice_id": "probation",
                          "services": ["messaging"]},
            cohorts=[one_ue(behavior="roamer", home_network="net-home",
                            corrupt_key=corrupt,
                            arrival={"kind": "fixed", "time_ms": 1000})])

    def test_unknown_roamer_admitted_then_upgraded(self):
        sim = Simulation(self.roamer_config())
        report = sim.run()
        first = report.rows[0]
        assert (first.path, first.outcome) == ("probationary", "success")
        assert first.backhaul_msgs == 0
        events = [e for _, _, e, _ in sim.ric.access_log]
        assert "probationary-admit" in events
        assert "upgraded" in events
        device = next(iter(sim.devices.values()))
        assert device.session_slice == "default"  # off the probation slice
        deferred = [r for r in report.rows if r.request_type == "deferred"]
        assert deferred and deferred[0].outcome == "success"

    def test_probation_slice_until_core_answers(self):
        sim = Simulation(self.roamer_config(outage_end=60_000))
        sim.run()
        device = next(iter(sim.devices.values()))
        assert device.session_slice == "probation"
        assert device.session_services == frozenset({"messaging"})
        events = [e for _, _, e, _ in sim.ric.access_log]
        assert "upgraded" not in events

    def test_failed_deferred_auth_terminates_and_blacklists(self):
        sim = Simulation(self.roamer_config(corrupt=True))
        report = sim.run()
        device = next(iter(sim.devices.values()))
        assert device.identity.cached_id in sim.ric.blacklist
        assert device.session_slice is None
        events = [e for _, _, e, _ in sim.ric.access_log]
        assert "terminated" in events
        deferred = [r for r in report.rows if r.request_type == "deferred"]
        assert deferred[0].outcome == "mac-failure"

    def test_probationary_off_means_reject(self):
        cfg = self.roamer_config()
        cfg.probationary.enabled = False
        report = Simulation(cfg).run()
        first = report.rows[0]
        assert (first.path, first.outcome) == ("reject", "rejected")


class TestAccounting:
    def test_row_bytes_match_link_counter(self):
        cfg = make_config(horizon=40_000,
                          cohorts=[one_ue(count=8,
                                          arrival={"kind": "poisson",
                                                   "rate_per_s": 2})])
        sim = Simulation(cfg)
        report = sim.run()
        assert sum(r.backhaul_bytes for r in report.rows) == report.link_bytes_total
        assert sum(r.backhaul_msgs for r in report.rows) == report.link_msgs_total

    def test_identical_seed_identical_csv(self):
        cfg = make_config(horizon=40_000,
                          cohorts=[one_ue(count=8,
                                          arrival={"kind": "poisson",
                                                   "rate_per_s": 2})])
        assert Simulation(cfg).run().to_csv() == Simulation(cfg).run().to_csv()

    def test_aggregates_recompute_consistently(self):
        report = Simulation(make_config()).run()
        assert report.aggregates == report.recompute_aggregates()
        assert report.aggregates["success_rate_by_cohort"]["solo"] == 1.0


class TestLifetime:
    @pytest.mark.parametrize("design", DESIGNS)
    @pytest.mark.parametrize("preset", preset_names())
    def test_finished_run_freed_by_reference_counting(self, preset, design):
        # no reference cycles: dropping the last reference frees the run
        # without help from the cyclic collector
        gc.disable()
        try:
            sim = Simulation(load_preset(preset).with_overrides(design=design))
            sim.run()
            ref = weakref.ref(sim)
            del sim
            assert ref() is None
        finally:
            gc.enable()
