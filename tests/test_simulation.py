import dataclasses
import gc
import tracemalloc
import weakref

import pytest

from randelsim import crypto, simulation
from randelsim.harness import compare_designs, run_scenario
from randelsim.kernel import Kernel
from randelsim.scenario import (DESIGNS, config_from_dict, load_preset,
                                preset_names)
from randelsim.ric import (DEFAULT_XAPP_DELAYS, BackhaulAssessor,
                           DecisionCacheEntry, Ric)
from randelsim.simulation import Attempt, Population, Simulation
from randelsim.ue import UeCohortSpec, UeDevice, cohort_arrival_times

# Frozen flow constants, verified by the instrumented single-UE oracle
# trace: a full registration crosses the backhaul 6 times with 7
# core-internal hops and 6 radio hops; a re-authentication uses 4/4/4. A
# roamer's vector is fetched from its home network in 2 messages.
BACKHAUL_MSGS_FULL_REG = 6
BACKHAUL_MSGS_REAUTH = 4
CORE_HOPS_FULL_REG = 7
CORE_HOPS_REAUTH = 4
RADIO_HOPS_FULL_REG = 6
RADIO_HOPS_REAUTH = 4
HOME_MSGS_REFERRAL = 2

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
        assert report.aggregates["total_backhaul_bytes"] == row.backhaul_bytes

    def test_reauth_message_budget(self):
        sim = Simulation(make_config(horizon=90_000))
        report = sim.run()
        reg, reauth = report.rows
        assert (reg.request_type, reauth.request_type) == ("registration",
                                                           "reauth")
        assert reauth.backhaul_msgs == BACKHAUL_MSGS_REAUTH
        expected = (RADIO_HOPS_REAUTH * 2
                    + BACKHAUL_MSGS_REAUTH * 51
                    + CORE_HOPS_REAUTH * 1)
        assert reauth.latency_ms == expected == 216

    def test_roamer_registration_refers_to_its_home(self):
        # the UDM hops go to the home network over the home link instead:
        # two core hops become two home-link crossings at 51 ms each
        cfg = make_config(cohorts=[one_ue(behavior="roamer",
                                          home_network="net-home")])
        (row,) = Simulation(cfg).run().rows
        expected = (RADIO_HOPS_FULL_REG * 2
                    + BACKHAUL_MSGS_FULL_REG * 51
                    + (CORE_HOPS_FULL_REG - HOME_MSGS_REFERRAL) * 1
                    + HOME_MSGS_REFERRAL * 51)
        assert row.outcome == "success"
        assert row.latency_ms == expected == 425
        # only the primary link's crossings count as backhaul
        assert row.backhaul_msgs == BACKHAUL_MSGS_FULL_REG

    def test_reauth_cadence_over_150s(self):
        # one registration at t=0, then re-auths at ~60 s and ~120 s
        report = Simulation(make_config(horizon=150_000)).run()
        assert [r.request_type for r in report.rows] == ["registration",
                                                         "reauth", "reauth"]
        assert all(r.outcome == "success" for r in report.rows)

    def test_both_sides_agree_on_anchor(self):
        sim = Simulation(make_config())
        sim.run()
        (device,) = sim.cohorts["solo"]
        cid = device.identity.cached_id
        assert sim.serving.seaf_hierarchies[cid] == device.hierarchy

    def test_session_established_in_core(self):
        sim = Simulation(make_config())
        sim.run()
        (device,) = sim.cohorts["solo"]
        assert device.session_slice == "default"
        assert device.session_services == frozenset({"data"})


class TestFailureModes:
    def test_outage_times_request_out_without_session(self):
        cfg = make_config(backhaul={"outages": [[0, 30_000]]},
                          request_timeout_ms=3000)
        sim = Simulation(cfg)
        report = sim.run()
        (row,) = report.rows
        assert row.outcome == "timeout"
        assert row.latency_ms == 3000
        (device,) = sim.cohorts["solo"]
        assert device.session_slice is None
        assert device.session_services == frozenset()
        # the send was attempted, so its attempt still counts the bytes
        assert (row.backhaul_msgs, row.backhaul_bytes) == (1, 512)
        assert report.aggregates["total_backhaul_bytes"] == 512

    def test_failed_reauth_tears_session_down(self):
        # registered at t=0, the re-auth at ~60 s meets an outage
        cfg = make_config(horizon=90_000, request_timeout_ms=3000,
                          backhaul={"outages": [[30_000, 90_000]]})
        sim = Simulation(cfg)
        reg, reauth = sim.run().rows
        assert reg.outcome == "success"
        assert (reauth.request_type, reauth.outcome) == ("reauth", "timeout")
        (device,) = sim.cohorts["solo"]
        assert device.session_slice is None
        assert device.session_services == frozenset()

    def test_straggler_finalized_at_horizon(self):
        # a registration takes 325 ms, so all three are open at 300 ms;
        # cohorts are listed out of start order
        starts = {"late": 150, "early": 50, "middle": 100}
        cfg = make_config(horizon=300, cohorts=[
            one_ue(cohort=name, arrival={"kind": "fixed", "time_ms": t})
            for name, t in starts.items()])
        report = Simulation(cfg).run()
        assert [r.cohort for r in report.rows] == ["early", "middle", "late"]
        for row in report.rows:
            assert row.outcome == "timeout"
            assert row.latency_ms == 300 - starts[row.cohort]

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

    def test_attacker_claiming_a_roamers_home_not_found(self):
        # its home network is one a home core is built for: it is looked up
        # there, among the roamer's records, and is not found
        cfg = make_config(cohorts=[
            one_ue(cohort="roam", behavior="roamer", home_network="net-home"),
            {"cohort": "atk", "count": 1, "behavior": "attacker-flood",
             "home_network": "net-home",
             "arrival": {"kind": "flood", "time_ms": 0, "rate_per_s": 1}}])
        sim = Simulation(cfg)
        outcomes = {row.cohort: row.outcome for row in sim.run().rows}
        assert outcomes == {"roam": "success", "atk": "subscriber-not-found"}
        assert list(sim.home_cores) == ["net-home"]

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
        assert report.aggregates["total_backhaul_bytes"] == 0
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
        assert report.aggregates["total_backhaul_bytes"] == 0

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

    def test_prf_calls_per_attempt(self, monkeypatch):
        # one device, so attempts never overlap: the PRF calls made since
        # the previous attempt ended all belong to the attempt that ends next
        cfg = make_config(design="decision-cache", horizon=200_000,
                          reauth_interval_ms=30_000,
                          cohorts=[one_ue(express_eligible=True)])
        sim = Simulation(cfg)
        calls, ends = 0, []
        finalize = sim._finalize

        def counting(prf):
            def counted(*args):
                nonlocal calls
                calls += 1
                return prf(*args)
            return counted

        def marking_finalize(att, outcome):
            ends.append(calls)
            finalize(att, outcome)

        monkeypatch.setattr(crypto, "prf", counting(crypto.prf))
        # a call resumed from a key's held states is a PRF call too
        monkeypatch.setattr(crypto.HmacKey, "prf",
                            counting(crypto.HmacKey.prf))
        sim._finalize = marking_finalize
        report = sim.run()
        per_attempt = [b - a for a, b in zip([0] + ends, ends)]
        paths = [row.path for row in report.rows]
        assert paths == ["standard"] + ["express"] * 6
        assert all(row.outcome == "success" for row in report.rows)
        # AV (3), device answer (2), network K_SEAF (1), device chain (2)
        assert per_attempt[0] <= 8
        # the first challenge derives K_NAS on both sides, later ones reuse it
        assert all(n <= 2 for n in per_attempt[2:])

    @pytest.mark.parametrize("design", ["decision-cache", "logic-replication"])
    def test_prewarm_caches_no_decision_the_core_denies(self, design):
        # the core refuses the service: nothing is cached, and the attempt
        # goes to the core, which denies it as it does under the baseline
        sim = Simulation(make_config(
            design=design, horizon=10_000,
            cohorts=[one_ue(behavior="periodic-sensor", express_eligible=True,
                            service="video", authorized_services=["data"])],
            prewarm=[{"cohort": "solo"}]))
        assert len(sim.ric.cache) == 0 and not sim.ric.known_ids
        (row,) = sim.run().rows
        assert (row.outcome, row.path) == ("policy-denied", "standard")
        (device,) = sim.cohorts["solo"]
        assert device.session_slice is None

    @pytest.mark.parametrize("design", ["decision-cache", "logic-replication"])
    def test_express_grant_is_the_cores_services(self, design):
        sim = Simulation(make_config(
            design=design, horizon=10_000,
            cohorts=[one_ue(behavior="periodic-sensor", express_eligible=True,
                            slice_id="edge", allowed_slices=["edge"],
                            authorized_services=["edge-data"])],
            prewarm=[{"cohort": "solo"}]))
        (row,) = sim.run().rows
        assert (row.outcome, row.path) == ("success", "express")
        (device,) = sim.cohorts["solo"]
        assert (device.session_slice, device.session_services) == (
            "edge", frozenset({"edge-data"}))

    def test_expired_entry_falls_back_to_standard(self):
        cfg = self.prewarmed_config(horizon=10_000)
        cfg.prewarm[0].ttl_ms = 1  # dead before the device arrives
        report = Simulation(cfg).run()
        (row,) = report.rows
        assert (row.outcome, row.path) == ("success", "standard")

    @pytest.mark.parametrize("extra, expected", [
        # routed again at 31 ms: a full registration, routing included
        ({}, ("success", "standard", 31 + 10 + 325 - 2, 6)),
        # routed again into the outage: refused where the challenge ended
        ({"backhaul": {"outages": [[0, 10_000]]}},
         ("rejected", "reject", 31, 0)),
        # the filter screens the attempt once, not again when it is routed
        ({"dos_filter": True, "thresholds": {"dos_retry_limit": 1}},
         ("success", "standard", 31 + 10 + 325 - 2, 6)),
    ])
    def test_entry_expiring_mid_challenge_is_routed_again(self, extra,
                                                          expected):
        # live at the 2 ms route, expired by the end of the 31 ms challenge
        cfg = self.prewarmed_config(horizon=10_000, **extra)
        cfg.prewarm[0].ttl_ms = 20
        report = Simulation(cfg).run()
        (row,) = report.rows
        assert (row.outcome, row.path, row.latency_ms,
                row.backhaul_msgs) == expected


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

    def test_local_session_from_cached_grant(self):
        sim = Simulation(self.outage_config(
            authorized_services=["data", "voice"]))
        (row,) = sim.run().rows
        assert (row.outcome, row.path) == ("success", "delegated")
        # the session is the core's cached grant: its slice and services
        (device,) = sim.cohorts["solo"]
        assert device.session_slice == "default"
        assert device.session_services == frozenset({"data", "voice"})

    @pytest.mark.parametrize("express, expected", [
        # routing 10 + state-auth 20 + session-establish 20, 3 radio hops
        (False, ("rejected", "reject", 2 + 50 + 2 * 2)),
        # routing 10 + decision-cache 15, 3 radio hops
        (True, ("rejected", "reject", 2 + 25 + 2 * 2)),
    ])
    def test_entry_expiring_mid_challenge_admits_no_one(self, express,
                                                        expected):
        # live at the 2 ms route, expired by the end of the challenge: the
        # attempt is routed again, into the outage, and refused
        cfg = self.outage_config(express_eligible=express)
        cfg.prewarm[0].ttl_ms = 30
        sim = Simulation(cfg)
        (row,) = sim.run().rows
        assert (row.outcome, row.path, row.latency_ms) == expected
        (device,) = sim.cohorts["solo"]
        assert device.session_slice is None


class TestRanCache:
    @pytest.mark.parametrize("design", ["decision-cache", "logic-replication"])
    def test_one_entry_per_device(self, design):
        cfg = load_preset("disaster").with_overrides(design=design)
        sim = Simulation(cfg)
        sim.run()
        entries = sim.ric.cache._entries
        assert entries
        profiles = {device.identity.cached_id: device.profile
                    for members in sim.cohorts.values() for device in members}
        assert all(cid == entry.cached_id and cid in profiles
                   for cid, entry in entries.items())
        assert {type(entry) for entry in entries.values()} == {
            DecisionCacheEntry}
        # each entry carries the core's grant: the device's slice and the
        # services its subscription authorizes
        assert all(
            (entry.slice_grant, entry.service_grant)
            == (profiles[cid].slice_id,
                frozenset(profiles[cid].authorized_services))
            for cid, entry in entries.items())


class TestProbationary:
    def sensor_kernel_events(self, horizon_ms):
        # a foreign-home sensor re-admitted every 2 s through a whole-run
        # outage; its deferred auth never starts, so only the polls remain
        cfg = make_config(
            design="logic-replication", horizon=horizon_ms,
            backhaul={"outages": [[0, horizon_ms]]},
            probationary={"enabled": True},
            cohorts=[one_ue(behavior="periodic-sensor", period_ms=2000,
                            home_network="net-home")])
        sim = Simulation(cfg)
        processed = []
        run_until = sim.kernel.run_until
        sim.kernel.run_until = lambda t: processed.append(run_until(t))
        report = sim.run()
        assert {r.path for r in report.rows} == {"probationary"}
        (events,) = processed
        return events

    def test_re_admission_keeps_one_deferred_poll(self):
        # kernel events grow linearly with the horizon: doubling it adds
        # twice what the previous doubling added, not four times
        e60, e120, e240 = (self.sensor_kernel_events(s * 1000)
                           for s in (60, 120, 240))
        assert e240 - e120 <= 2 * (e120 - e60) + 2

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
        (device,) = sim.cohorts["solo"]
        assert device.session_slice == "default"  # off the probation slice
        deferred = [r for r in report.rows if r.request_type == "deferred"]
        assert deferred and deferred[0].outcome == "success"

    def test_probation_slice_until_core_answers(self):
        sim = Simulation(self.roamer_config(outage_end=60_000))
        sim.run()
        (device,) = sim.cohorts["solo"]
        assert device.session_slice == "probation"
        assert device.session_services == frozenset({"messaging"})
        events = [e for _, _, e, _ in sim.ric.access_log]
        assert "upgraded" not in events

    def test_failed_deferred_auth_terminates_and_blacklists(self):
        sim = Simulation(self.roamer_config(corrupt=True))
        report = sim.run()
        (device,) = sim.cohorts["solo"]
        assert device.identity.cached_id in sim.ric.blacklist
        assert device.session_slice is None
        events = [e for _, _, e, _ in sim.ric.access_log]
        assert "terminated" in events
        deferred = [r for r in report.rows if r.request_type == "deferred"]
        assert deferred[0].outcome == "mac-failure"

    def test_failed_deferred_auth_terminates_when_it_ends(self):
        # the deferred auth starts at the 4,034 ms poll and fails when its
        # answer comes back; the session ends then, not at a later check
        sim = Simulation(self.roamer_config(corrupt=True))
        report = sim.run()
        (deferred,) = [r for r in report.rows if r.request_type == "deferred"]
        ended = 4034 + deferred.latency_ms
        assert [(t, e, d) for t, _, e, d in sim.ric.access_log
                if e == "terminated"] == [(ended, "terminated", "mac-failure")]
        assert ended == 4307

    def test_ordinary_registration_ends_probation(self):
        # admitted at t=0 in an outage; the deferred auth started at ~2 s
        # loses a message and is open until ~3.5 s, while the sensor's own
        # registration at 3 s succeeds on the standard path
        cfg = make_config(
            design="logic-replication", horizon=12_000,
            request_timeout_ms=1500,
            backhaul={"outages": [[0, 2000], [2100, 2200]]},
            probationary={"enabled": True},
            cohorts=[one_ue(behavior="periodic-sensor", period_ms=3000,
                            home_network="net-home")])
        sim = Simulation(cfg)
        report = sim.run()
        assert [(r.request_type, r.path, r.outcome) for r in report.rows] == [
            ("registration", "probationary", "success"),
            ("registration", "standard", "success"),
            ("deferred", "standard", "timeout"),
            ("registration", "standard", "success"),
            ("registration", "standard", "success")]
        # the device is on its own slice, so no deferred auth follows
        (device,) = sim.cohorts["solo"]
        assert device.session_slice == "default"
        # the registration that moved it off probation is in the audit log
        assert [(e, d) for _, _, e, d in sim.ric.access_log] == [
            ("probationary-admit", "probation:messaging"),
            ("upgraded", "default:data")]

    def test_probationary_off_means_reject(self):
        cfg = self.roamer_config()
        cfg.probationary.enabled = False
        report = Simulation(cfg).run()
        first = report.rows[0]
        assert (first.path, first.outcome) == ("reject", "rejected")


class TestRefusedAttempts:
    """A refused attempt ends where it is routed, one radio hop in: no
    xApp delay is charged (unlike the express fallback's re-route) and
    nothing crosses the backhaul."""

    @staticmethod
    def sensor_config():
        # known and express-eligible; its second attempt, 500 ms after the
        # first, exceeds a retry limit of 1 per 1,000 ms window
        return make_config(
            design="decision-cache", horizon=1000, dos_filter=True,
            thresholds={"dos_retry_limit": 1},
            cohorts=[one_ue(behavior="periodic-sensor", period_ms=500,
                            express_eligible=True)],
            prewarm=[{"cohort": "solo"}])

    @pytest.mark.parametrize("make, blacklisted, outcome", [
        # the DoS filter drops an unknown id over the unknown-rate limit
        (lambda: make_config(design="decision-cache", dos_filter=True,
                             thresholds={"dos_unknown_per_window": 0}),
         False, "filtered"),
        # the DoS filter drops an id over its per-id retry limit
        (sensor_config, False, "filtered"),
        # a terminated probationer's id is blacklisted
        (lambda: make_config(design="decision-cache"), True, "filtered"),
        # outage, no cache entry, no probation: no path
        (lambda: make_config(design="decision-cache",
                             backhaul={"outages": [[0, 30_000]]}),
         False, "rejected"),
    ], ids=["unknown-rate", "retry-limit", "blacklisted", "no-path"])
    def test_refused_row(self, make, blacklisted, outcome):
        cfg = make()
        sim = Simulation(cfg)
        if blacklisted:
            (device,) = sim.cohorts["solo"]
            sim.ric.blacklist.add(device.identity.cached_id)
        row = sim.run().rows[-1]
        assert (row.outcome, row.path, row.latency_ms, row.backhaul_msgs,
                row.backhaul_bytes) == (outcome, "reject",
                                        cfg.radio_latency_ms, 0, 0)

    def test_retry_limit_passes_the_first_attempt(self):
        first, second = Simulation(self.sensor_config()).run().rows
        assert (first.outcome, first.path) == ("success", "express")
        assert (second.outcome, second.path) == ("filtered", "reject")


class TestAccounting:
    @pytest.mark.parametrize("design", DESIGNS)
    def test_attempts_count_every_send_on_the_link(self, design):
        cfg = make_config(design=design, horizon=40_000, cohorts=[
            one_ue(count=8, express_eligible=True,
                   arrival={"kind": "poisson", "rate_per_s": 2}),
            one_ue(cohort="roam", behavior="roamer", home_network="net-home")],
            backhaul={"outages": [[1000, 2500]]}, prewarm=[{"cohort": "solo"}])
        sim = Simulation(cfg)
        sent = []
        transmit = sim.link.transmit

        def counted(size, at):
            sent.append(size)
            return transmit(size, at)

        sim.link.transmit = counted
        agg = sim.run().aggregates
        assert (agg["total_backhaul_msgs"], agg["total_backhaul_bytes"]) == (
            len(sent), sum(sent))

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


class TestDeployedXapps:
    @pytest.mark.parametrize("probationary", (False, True))
    @pytest.mark.parametrize("dos_filter", (False, True))
    @pytest.mark.parametrize("design", DESIGNS)
    def test_ric_runs_what_the_config_deploys(self, design, dos_filter,
                                              probationary):
        cfg = make_config(design=design, dos_filter=dos_filter,
                          probationary={"enabled": probationary})
        ric = Simulation(cfg).ric
        deployed = cfg.deployed_xapps()
        assert tuple(ric.xapps) == tuple(name for name in deployed
                                         if name in DEFAULT_XAPP_DELAYS)
        assert (ric.assessor is not None) == ("backhaul-assessor" in deployed)
        assert (ric.cache is not None) == ("decision-cache" in deployed)
        assert (ric.dos_filter is not None) == ("dos-filter" in deployed)


class TestXappDelays:
    # for each xApp with a delay: a config whose first attempt passes it,
    # and that attempt's path
    ATTEMPTS = {
        "routing": (lambda: make_config(design="decision-cache"), "standard"),
        "decision-cache": (
            lambda: TestExpressPath().prewarmed_config(horizon=10_000),
            "express"),
        "state-auth": (lambda: TestDelegatedPath().outage_config(),
                       "delegated"),
        "session-establish": (lambda: TestDelegatedPath().outage_config(),
                              "delegated"),
        "probationary": (lambda: TestProbationary().roamer_config(),
                         "probationary"),
    }

    def test_every_xapp_with_a_delay_is_on_a_path(self):
        assert set(DEFAULT_XAPP_DELAYS) == set(self.ATTEMPTS)

    @pytest.mark.parametrize("xapp", DEFAULT_XAPP_DELAYS)
    def test_one_ms_more_delay_is_one_ms_more_latency(self, xapp):
        make, path = self.ATTEMPTS[xapp]
        latencies = []
        for extra in (0, 1):
            cfg = make()
            cfg.xapp_delays_ms[xapp] = DEFAULT_XAPP_DELAYS[xapp] + extra
            first = Simulation(cfg).run().rows[0]
            assert first.path == path
            latencies.append(first.latency_ms)
        assert latencies[1] == latencies[0] + 1


class TestLinkHealth:
    """Routing and the deferred-auth poll read the assessor's last probe.

    The run probes at t=0 before any arrival and then once per probe
    interval, so every reader finds a probe at most an interval old.
    """

    @pytest.fixture
    def ages(self, monkeypatch):
        """How old the last probe was at each route and each poll."""
        probed, ages = {}, {"route": [], "poll": []}
        assess = BackhaulAssessor.assess
        route = Ric.route_registration
        poll = Simulation._poll_deferred

        def recorded_assess(assessor, now):
            probed[assessor] = now
            return assess(assessor, now)

        def checked_route(ric, cached_id, express_eligible, roaming, now):
            ages["route"].append(now - probed[ric.assessor])
            return route(ric, cached_id, express_eligible, roaming, now)

        def checked_poll(sim, device, *rest):
            ages["poll"].append(sim.kernel.now - probed[sim.ric.assessor])
            return poll(sim, device, *rest)

        monkeypatch.setattr(BackhaulAssessor, "assess", recorded_assess)
        monkeypatch.setattr(Ric, "route_registration", checked_route)
        monkeypatch.setattr(Simulation, "_poll_deferred", checked_poll)
        return ages

    @staticmethod
    def assert_within(ages, interval):
        assert all(0 <= age <= interval
                   for age in ages["route"] + ages["poll"])

    @pytest.mark.parametrize("seed", (1, 2, 3))
    @pytest.mark.parametrize("design", DESIGNS)
    @pytest.mark.parametrize("preset", preset_names())
    def test_presets_read_a_probe_at_most_an_interval_old(self, ages, preset,
                                                          design, seed):
        cfg = load_preset(preset).with_overrides(design=design)
        Simulation(cfg.with_overrides(seed=seed)).run()
        self.assert_within(ages, cfg.thresholds.probe_interval_ms)
        routed = "routing" in cfg.deployed_xapps()
        assert bool(ages["route"]) == routed

    @pytest.mark.parametrize("workload", ("flood_filter", "design_sweep"))
    def test_workloads_read_a_probe_at_most_an_interval_old(
            self, ages, workloads, workload):
        doc = workloads.scenario(workload, 1)
        cfg = config_from_dict(workloads.scenario(workload, 1))
        workloads.iterate(workload, doc, workloads.SetupClock())
        self.assert_within(ages, cfg.thresholds.probe_interval_ms)
        assert ages["route"]
        # design_sweep's roamers arrive in its outage, so its polls run
        assert bool(ages["poll"]) == (workload == "design_sweep")


class TestLinkSendLog:
    @pytest.mark.parametrize("design", DESIGNS)
    def test_only_an_assessed_link_keeps_sends(self, design):
        cfg = make_config(design=design, horizon=20_000, cohorts=[
            one_ue(count=4, arrival={"kind": "poisson", "rate_per_s": 2}),
            one_ue(cohort="roam", behavior="roamer", home_network="net-home")])
        sim = Simulation(cfg)
        link, window, kept = sim.link, cfg.thresholds.utilization_window_ms, []
        transmit = link.transmit

        def checked(size, at):
            delivery = transmit(size, at)
            assert all(at - window <= t for t, _ in link._send_log)
            kept.append(len(link._send_log))
            return delivery

        home_sent = []
        home_transmit = sim.home_link.transmit

        def home_checked(size, at):
            home_sent.append(size)
            return home_transmit(size, at)

        link.transmit = checked
        sim.home_link.transmit = home_checked
        sim.run()
        assert home_sent and not sim.home_link._send_log
        if sim.ric.assessor is None:
            assert not any(kept) and not link._send_log
        else:
            assert link.utilization_window_ms == window
            assert max(kept) > 1


class TestInlineSteps:
    @staticmethod
    def outputs(preset, design, radio, hop):
        cfg = dataclasses.replace(load_preset(preset), design=design,
                                  radio_latency_ms=radio,
                                  core_hop_latency_ms=hop)
        report = Simulation(cfg.with_overrides(seed=1)).run()
        return report.to_csv(), report.aggregates

    @pytest.mark.parametrize("radio,hop", [(2, 1), (0, 0)])
    @pytest.mark.parametrize("design", DESIGNS)
    @pytest.mark.parametrize("preset", preset_names())
    def test_same_output_as_queueing_every_step(self, monkeypatch, preset,
                                                design, radio, hop):
        inline = self.outputs(preset, design, radio, hop)
        monkeypatch.setattr(Kernel, "advance", lambda self, delay: False)
        queued = self.outputs(preset, design, radio, hop)
        assert inline == queued

    def test_steps_run_inline(self, monkeypatch):
        # the comparison above is not vacuous: some steps do run inline
        advance = Kernel.advance
        taken = []

        def recorded(kernel, delay):
            taken.append(advance(kernel, delay))
            return taken[-1]

        monkeypatch.setattr(Kernel, "advance", recorded)
        self.outputs("flash_crowd", "baseline", 2, 1)
        assert any(taken) and not all(taken)


def flood_config(attackers):
    return make_config(
        design="decision-cache", horizon=10_000, dos_filter=True,
        cohorts=[one_ue(cohort="attackers", count=attackers,
                        behavior="attacker-flood",
                        arrival={"kind": "flood", "time_ms": 0,
                                 "rate_per_s": 2000})])


def drain_arrivals(sim):
    """Every planned ``(time, slot, ue_id)``, taken from the plan the way
    ``_arrive`` takes it, with no attempt started."""
    sim._start_attempt = lambda device, request_type: None
    drained = []
    while sim._arrivals:
        t, seq, device, _ = sim._arrivals[0]
        drained.append((t, seq, device.identity.supi))
        sim._arrive()
        # the queued arrival is never run; dropping it keeps the queue small
        sim.kernel.discard_pending()
    return drained


class TestScale:
    def test_queue_holds_one_pending_arrival(self, monkeypatch):
        # queuing every arrival up front would hold all 5,000 at time 0
        largest = [0]
        for name in ("schedule", "schedule_at"):
            def recording(kernel, *args, _queue=getattr(Kernel, name)):
                result = _queue(kernel, *args)
                largest[0] = max(largest[0], len(kernel._heap))
                return result
            monkeypatch.setattr(Kernel, name, recording)
        Simulation(flood_config(5000)).run()
        assert largest[0] < 200

    def test_arrivals_start_in_time_cohort_device_period_order(
            self, monkeypatch):
        # sensor first arrivals at 0, 500 and 1000 ms with a 1 s period
        # interleave across devices, and meet both fixed cohorts at 1000 ms
        cohorts = [
            one_ue(cohort="sensors", count=3, behavior="periodic-sensor",
                   period_ms=1000,
                   arrival={"kind": "flood", "time_ms": 0, "rate_per_s": 2}),
            one_ue(cohort="early", count=2,
                   arrival={"kind": "fixed", "time_ms": 1000}),
            one_ue(cohort="late", count=2,
                   arrival={"kind": "fixed", "time_ms": 1000}),
        ]
        sim = Simulation(make_config(horizon=3000, cohorts=cohorts))
        starts = []
        start_attempt = Simulation._start_attempt

        def recording(self, device, request_type, *args, **kwargs):
            if request_type == "registration":
                starts.append((self.kernel.now, device.identity.supi))
            return start_attempt(self, device, request_type, *args, **kwargs)

        monkeypatch.setattr(Simulation, "_start_attempt", recording)
        sim.run()
        firsts = {"sensors": [0, 500, 1000], "early": [1000, 1000],
                  "late": [1000, 1000]}
        planned = []  # (time, cohort, device, period, ue_id)
        for c, (cohort, times) in enumerate(firsts.items()):
            for d, first in enumerate(times):
                periods = (range(first, 3000, 1000) if cohort == "sensors"
                           else [first])
                for p, t in enumerate(periods):
                    planned.append((t, c, d, p, f"{cohort}-{d + 1:04d}"))
        assert starts == [(t, ue_id) for t, *_, ue_id in sorted(planned)]

    @pytest.mark.parametrize("design", DESIGNS)
    @pytest.mark.parametrize("preset", preset_names())
    def test_block_reserved_slots_are_the_per_arrival_slots(self, preset,
                                                             design):
        cfg = load_preset(preset).with_overrides(design=design, seed=1)
        sim, reference = Simulation(cfg), Simulation(cfg)
        sim._schedule_arrivals()
        # the reference loop: one reserve() per arrival, in cohort, device
        # and period order
        plan = []
        for spec in cfg.ues:
            rng = reference.kernel.stream(f"arrival/{spec.cohort}")
            times = cohort_arrival_times(spec.arrival, spec.count,
                                         cfg.horizon_ms, rng)
            for device, t0 in zip(reference.cohorts[spec.cohort], times):
                if spec.behavior == "periodic-sensor":
                    for t in range(t0, cfg.horizon_ms, spec.period_ms):
                        plan.append((t, reference.kernel.reserve(), device))
                else:
                    plan.append((t0, reference.kernel.reserve(), device))
        plan.sort()
        assert drain_arrivals(sim) == [(t, seq, d.identity.supi)
                                       for t, seq, d in plan]
        assert sim.kernel.reserve() == reference.kernel.reserve()

    @staticmethod
    def sensor_config(periods):
        """100 sensors with a 1 s period for ``periods`` periods, and a
        2-device fixed cohort."""
        return make_config(horizon=periods * 1000, cohorts=[
            one_ue(cohort="sensors", count=100, behavior="periodic-sensor",
                   period_ms=1000,
                   arrival={"kind": "flood", "time_ms": 0,
                            "rate_per_s": 100}),
            one_ue(cohort="crowd", count=2)])

    @pytest.mark.parametrize("periods", (10, 1000))
    def test_arrival_plan_holds_one_entry_per_stream(self, periods):
        sim = Simulation(self.sensor_config(periods))
        sim._schedule_arrivals()
        # one entry per sensor, and one for the fixed cohort
        assert len(sim._arrivals) == 101
        assert sim.kernel.pending() == 1

    def test_arrival_plan_memory_does_not_grow_with_the_horizon(self):
        retained = []
        for periods in (10, 1000):
            sim = Simulation(self.sensor_config(periods))
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                sim._schedule_arrivals()
                gc.collect()
                retained.append(tracemalloc.get_traced_memory()[0] - before)
            finally:
                tracemalloc.stop()
        # 100 sensors of 1,000 periods each would be 100,000 planned entries
        assert abs(retained[1] - retained[0]) < 2048

    def test_per_device_records_have_no_instance_dict(self):
        sim = Simulation(make_config())
        (device,) = sim.cohorts["solo"]
        identity, usim = device.identity, device.usim
        record = sim.serving.find_by_supi(identity.supi)
        records = [device, device.profile, identity, usim, usim.k,
                   record.sequence]
        assert [type(r) for r in records] == [
            UeDevice, UeCohortSpec, crypto.UeIdentity, crypto.UsimState,
            crypto.RootSecret, crypto.SequenceState]
        assert not any(hasattr(r, "__dict__") for r in records)

    def test_cohort_devices_share_one_profile(self):
        cohorts = [one_ue(cohort="users", count=3),
                   one_ue(cohort="sensors", count=2,
                          behavior="periodic-sensor"),
                   one_ue(cohort="attackers", count=4,
                          behavior="attacker-flood")]
        sim = Simulation(make_config(cohorts=cohorts))
        profiles = []
        for cohort, members in sim.cohorts.items():
            assert all(d.profile is members[0].profile for d in members)
            assert members[0].profile.cohort == cohort
            profiles.append(members[0].profile)
        assert len({id(p) for p in profiles}) == 3
        # the profile is the config's own spec, not a copy of it
        for spec in sim.cfg.ues:
            assert all(d.profile is spec for d in sim.cohorts[spec.cohort])

    def test_flooding_device_retains_under_480_bytes(self):
        cfg = flood_config(5000)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sim = Simulation(cfg)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(sim.cohorts["attackers"]) == 5000
        assert retained / 5000 <= 480


class TestCredentials:
    def test_flooding_devices_hold_no_credentials(self):
        cfg = flood_config(50)
        sim = Simulation(cfg)
        assert all(d.usim is None for d in sim.cohorts["attackers"])
        # building the cohort drew nothing from the junk-key stream: a
        # corrupt cohort after it gets the keys it gets on its own
        corrupt = UeCohortSpec(cohort="corrupt", count=3,
                               behavior="interactive",
                               arrival=cfg.ues[0].arrival, corrupt_key=True)
        alone = Population([corrupt], sim.cfg.seed).cohorts["corrupt"]
        after = Population([*cfg.ues, corrupt], sim.cfg.seed).cohorts
        assert after["attackers"][1:] == (None, None)
        assert ([k.value for k in after["corrupt"].device_keys]
                == [k.value for k in alone.device_keys])

    def test_corrupt_keys_after_a_flood_still_fail_the_mac(self):
        cohorts = [one_ue(cohort="attackers", count=5,
                          behavior="attacker-flood",
                          arrival={"kind": "flood", "time_ms": 0,
                                   "rate_per_s": 100}),
                   one_ue(cohort="corrupt", count=4, corrupt_key=True)]
        sim = Simulation(make_config(cohorts=cohorts))
        for device in sim.cohorts["corrupt"]:
            record = sim.serving.find_by_supi(device.identity.supi)
            assert device.usim.k != record.root_secret
        report = sim.run()
        outcomes = {}
        for row in report.rows:
            outcomes.setdefault(row.cohort, []).append(row.outcome)
        assert outcomes["corrupt"] == ["mac-failure"] * 4
        assert outcomes["attackers"] == ["subscriber-not-found"] * 5

    @staticmethod
    def prewarm_config(design, prewarm=True, outage=False, **cohort):
        """Three devices arriving at 100 ms, prewarmed or not."""
        return make_config(
            design=design, horizon=10_000,
            backhaul={"outages": [[0, 5000]] if outage else []},
            cohorts=[one_ue(count=3, arrival={"kind": "fixed", "time_ms": 100},
                            **cohort)],
            prewarm=[{"cohort": "solo"}] if prewarm else [])

    @pytest.mark.parametrize("design, prewarm, outage, expected", [
        # 1 radio in, routing 10 + decision-cache 15, 2 radio of the challenge
        ("decision-cache", True, False, ("rejected", "express", 31, 0)),
        # routing 10 + state-auth 20 + session-establish 20, same 3 radio
        ("logic-replication", True, True, ("rejected", "delegated", 56, 0)),
        # not prewarmed: the core's challenge fails on the device's MAC check
        ("decision-cache", False, False, ("mac-failure", "standard", None, 3)),
    ], ids=["express", "delegated", "no-prewarm"])
    def test_prewarmed_corrupt_key_fails_the_local_challenge(
            self, design, prewarm, outage, expected):
        cfg = self.prewarm_config(design, prewarm, outage, corrupt_key=True,
                                  express_eligible=design == "decision-cache")
        sim = Simulation(cfg)
        devices = sim.cohorts["solo"]
        if prewarm:
            # the cache keeps the home K's anchor, the device its own
            for device in devices:
                entry = sim.ric.cache.lookup(device.identity.cached_id, 0)
                assert device.hierarchy.k_seaf != entry.keys.k_seaf
        rows = sim.run().rows
        assert len(rows) == 3
        for row in rows:
            assert (row.outcome, row.path, row.backhaul_msgs) == (
                expected[0], expected[1], expected[3])
            # three devices share the link, so a standard latency varies
            assert expected[2] in (None, row.latency_ms)
        assert all(device.session_slice is None for device in devices)


class TestResCheck:
    """The network rejects a RES that does not match its XRES. No scenario
    makes a device answer a valid challenge wrongly, so the device's answer
    is replaced."""

    @pytest.mark.parametrize("design, latency", [
        # 4 radio hops at 2 ms, 4 crossings at 51 ms, 4 core hops at 1 ms
        ("baseline", 4 * 2 + 4 * 51 + 4 * 1),
        ("decision-cache", 10 + 4 * 2 + 4 * 51 + 4 * 1),
    ])
    def test_wrong_res_is_rejected(self, monkeypatch, design, latency):
        respond = UeDevice.respond_to_challenge

        def wrong_res(device, rand, autn):
            res = respond(device, rand, autn)
            return bytes([res[0] ^ 1]) + res[1:]

        monkeypatch.setattr(UeDevice, "respond_to_challenge", wrong_res)
        sim = Simulation(make_config(design=design))
        (row,) = sim.run().rows
        assert (row.outcome, row.path, row.latency_ms,
                row.backhaul_msgs) == ("mac-failure", "standard", latency, 4)
        assert not sim.serving.seaf_hierarchies
        assert not sim.ric.known_ids
        assert sim.ric.cache is None or len(sim.ric.cache) == 0
        (device,) = sim.cohorts["solo"]
        assert device.hierarchy is None and device.session_slice is None


class TestPopulation:
    @pytest.mark.parametrize("seed", (1, 2, 3))
    @pytest.mark.parametrize("preset", preset_names())
    def test_a_shared_population_changes_no_run(self, preset, seed):
        cfg = load_preset(preset)
        comparison = compare_designs(cfg, seed=seed)
        for design in DESIGNS:
            alone = run_scenario(cfg.with_overrides(design=design), seed=seed)
            shared = comparison.reports[design]
            assert shared.to_csv() == alone.to_csv()
            assert shared.aggregates == alone.aggregates

    def test_one_comparison_conceals_each_identity_once(self, workloads,
                                                        monkeypatch):
        concealed = []
        conceal = crypto.conceal_identity

        def counting(supi):
            concealed.append(supi)
            return conceal(supi)

        monkeypatch.setattr(crypto, "conceal_identity", counting)
        cfg = config_from_dict(workloads.scenario("design_sweep", 1))
        compare_designs(cfg)
        assert len(concealed) == 250 + 50 + 15
        # the next comparison builds its own: nothing outlives a call
        compare_designs(cfg)
        assert len(concealed) == 2 * 315

    def test_a_population_for_another_run_is_refused(self):
        cfg = make_config(cohorts=[one_ue(count=3)])
        with pytest.raises(ValueError):
            Simulation(cfg, population=Population(cfg.ues, cfg.seed + 1))
        other = make_config(cohorts=[one_ue(count=4)])
        with pytest.raises(ValueError):
            Simulation(cfg, population=Population(other.ues, cfg.seed))
        # cohorts compare by value, and the run's seed is the one checked
        same = make_config(cohorts=[one_ue(count=3)])
        Simulation(cfg, population=Population(same.ues, cfg.seed))
        Simulation(cfg.with_overrides(seed=7),
                   population=Population(cfg.ues, 7))

    def test_each_home_network_gets_one_core(self, monkeypatch):
        built = []
        core_init = simulation.CoreNetwork.__init__

        def counting(core, network_id, *args, **kwargs):
            built.append(network_id)
            core_init(core, network_id, *args, **kwargs)

        monkeypatch.setattr(simulation.CoreNetwork, "__init__", counting)
        cohorts = [one_ue(cohort=f"roam{i}", behavior="roamer",
                          home_network=home)
                   for i, home in enumerate(("net-home", "net-far",
                                             "net-home"))]
        sim = Simulation(make_config(cohorts=cohorts))
        # the serving core, then one per home network in cohort order
        assert built == ["net-serving", "net-home", "net-far"]
        assert list(sim.home_cores) == ["net-home", "net-far"]
        # each roamer's record is filed in its own home network's core
        for cohort, home in (("roam0", "net-home"), ("roam1", "net-far"),
                             ("roam2", "net-home")):
            (device,) = sim.cohorts[cohort]
            assert sim.home_cores[home].find_by_supi(device.identity.supi)

    def test_corrupt_keys_fail_in_every_design_of_a_comparison(self):
        cohorts = [one_ue(cohort="corrupt", count=4, corrupt_key=True,
                          express_eligible=True),
                   one_ue(cohort="honest", count=4)]
        comparison = compare_designs(make_config(cohorts=cohorts))
        for design, report in comparison.reports.items():
            outcomes = {}
            for row in report.rows:
                outcomes.setdefault(row.cohort, []).append(row.outcome)
            assert outcomes["corrupt"] == ["mac-failure"] * 4, design
            assert outcomes["honest"] == ["success"] * 4, design

    def test_no_run_keeps_its_population(self):
        cfg = make_config(cohorts=[one_ue(count=3)])
        population = Population(cfg.ues, cfg.seed)
        sim = Simulation(cfg, population=population)
        assert not any(isinstance(v, Population) for v in vars(sim).values())
        ref = weakref.ref(population)
        del population
        gc.collect()
        assert ref() is None
        # K stays where it was: in the subscriber records and the USIMs
        for device in sim.cohorts["solo"]:
            record = sim.serving.find_by_supi(device.identity.supi)
            assert device.usim.k is record.root_secret


class TestLifetime:
    @pytest.mark.parametrize("design", DESIGNS)
    def test_finished_attempts_freed(self, design):
        sim = Simulation(load_preset("disaster").with_overrides(design=design))
        report = sim.run()
        assert report.rows
        gc.collect()
        assert not any(isinstance(o, Attempt) for o in gc.get_objects())

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
