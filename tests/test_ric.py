import dataclasses
import inspect
import itertools
import math
import random
import tracemalloc
import typing
from typing import NamedTuple

import pytest
from hypothesis import given, strategies as st

from randelsim.backhaul import BackhaulLink, BackhaulProfile
from randelsim.crypto import SessionKeys
from randelsim.harness import compare_designs
from randelsim.ric import (BackhaulAssessor, BackhaulHealth,
                           DecisionCacheEntry, DosFilter,
                           InvalidBudget, Ric, TtlCache, XAppDescriptor)
from randelsim.scenario import config_from_dict, load_preset, preset_names
from randelsim.simulation import Simulation
from structural_audit import audit_type_for_root_secret

if typing.TYPE_CHECKING:
    # imported for type checkers only: at run time the name is unbound
    from randelsim.crypto import RootSecret

HOUR_TTL = 3_600_000  # the canonical 60:00 m example
# the values of the CSV ``path`` column
PATHS = ("standard", "express", "delegated", "probationary", "reject")


def make_entry(cached_id=b"\x01" * 32, ttl=HOUR_TTL,
               created_at=0) -> DecisionCacheEntry:
    return DecisionCacheEntry(keys=SessionKeys(b"\x02" * 32, cached_id),
                              slice_grant="default", ttl=ttl,
                              created_at=created_at,
                              service_grant=frozenset({"data"}))


class TestXAppBudget:
    def test_in_budget_accepted(self):
        XAppDescriptor("a", 50)

    def test_below_lower_bound_rejected(self):
        with pytest.raises(InvalidBudget):
            XAppDescriptor("a", 5)

    def test_above_upper_bound_rejected(self):
        with pytest.raises(InvalidBudget):
            XAppDescriptor("a", 1500)

    def test_bounds_inclusive(self):
        XAppDescriptor("lo", 10)
        XAppDescriptor("hi", 1000)


class TestTtlCache:
    def test_lookup_on_empty_is_miss(self):
        assert TtlCache(10_000).lookup(b"\x01" * 32, 0) is None

    def test_hit_one_ms_before_expiry(self):
        cache = TtlCache(10_000)
        cache.store(make_entry())
        got = cache.lookup(b"\x01" * 32, HOUR_TTL - 1)
        assert isinstance(got, DecisionCacheEntry)

    def test_expired_exactly_at_ttl(self):
        cache = TtlCache(10_000)
        cache.store(make_entry())
        assert cache.lookup(b"\x01" * 32, HOUR_TTL) is None
        # expired entries are evicted on lookup
        assert not cache.contains(b"\x01" * 32)
        assert len(cache) == 0

    def test_capacity_evicts_earliest_expiry(self):
        cache = TtlCache(2)
        cache.store(make_entry(cached_id=b"\x01" * 32, ttl=100))
        cache.store(make_entry(cached_id=b"\x02" * 32, ttl=300))
        cache.store(make_entry(cached_id=b"\x03" * 32, ttl=200))
        assert not cache.contains(b"\x01" * 32)
        assert cache.contains(b"\x02" * 32)
        assert cache.contains(b"\x03" * 32)

    def test_nonpositive_ttl_rejected(self):
        with pytest.raises(ValueError):
            TtlCache(10_000).store(make_entry(ttl=0))

    @given(st.integers(min_value=1, max_value=5),
           st.lists(st.tuples(st.booleans(), st.integers(0, 7),
                              st.integers(1, 4), st.integers(0, 3)),
                    max_size=60))
    def test_eviction_matches_min_over_entries(self, capacity, ops):
        # reference: the dict plus a full scan for the least
        # (expiry, cached_id), evicting on store and deleting on expired lookup
        cache, model, now = TtlCache(capacity), {}, 0
        for is_store, n, ttl, step in ops:
            cid = bytes([n]) * 32
            now += step
            if is_store:
                cache.store(make_entry(cached_id=cid, ttl=ttl, created_at=now))
                model[cid] = now + ttl
                if len(model) > capacity:
                    del model[min((e, c) for c, e in model.items())[1]]
            else:
                got = cache.lookup(cid, now)
                if cid not in model:
                    assert got is None
                elif now >= model[cid]:
                    assert got is None
                    assert not cache.contains(cid)  # evicted on lookup
                    del model[cid]
                else:
                    assert isinstance(got, DecisionCacheEntry)
            assert {c: e.created_at + e.ttl
                    for c, e in cache._entries.items()} == model
            assert len(cache._expiries) <= 2 * len(model) + 1

    @given(st.integers(min_value=1, max_value=10 * HOUR_TTL),
           st.integers(min_value=0, max_value=20 * HOUR_TTL))
    def test_liveness_boundary_property(self, ttl, now):
        entry = make_entry(ttl=ttl, created_at=0)
        assert entry.live(now) == (now < ttl)


class TestAssessor:
    def make(self, base=20, outages=(), bandwidth=1_000_000):
        profile = BackhaulProfile(base_latency_ms=base, bandwidth_bps=bandwidth,
                                  outages=list(outages))
        link = BackhaulLink(profile, random.Random(0), 1000)
        return link, BackhaulAssessor(link, random.Random(1), 2000)

    def test_steady_probes_converge_to_rtt(self):
        _, assessor = self.make(base=20)  # rtt samples are all 40 ms
        for t in range(0, 10_000, 1000):
            health = assessor.assess(t)
        assert health.reachable
        assert health.measured_rtt == 40

    def test_ewma_matches_arithmetic_oracle(self):
        link, assessor = self.make(base=50)
        assessor.assess(0)  # sample 100
        link.profile.base_latency_ms = 30  # samples of 60 from here on
        h1 = assessor.assess(1000)
        h2 = assessor.assess(2000)
        # oracle: 0.3*60 + 0.7*100 = 88; 0.3*60 + 0.7*88 = 79.6 -> 80
        assert h1.measured_rtt == 88
        assert h2.measured_rtt == 80

    def test_outage_probe_unanswered(self):
        _, assessor = self.make(outages=[(0, 5000)])
        assert assessor.assess(1000).reachable is False
        assert assessor.assess(6000).reachable is True

    def test_idle_link_reports_full_bandwidth(self):
        _, assessor = self.make(bandwidth=123_456)
        assert assessor.assess(0).available_bandwidth == 123_456


class TestDosFilter:
    def test_flood_of_unknowns_mostly_dropped(self):
        f = DosFilter(window_ms=1000, unknown_limit=50, retry_limit=3)
        passed = sum(
            f.check(i.to_bytes(32, "big"), known=False, now=i)
            for i in range(1000))
        assert passed == 50
        assert f.dropped >= 950

    def test_known_device_passes_during_flood(self):
        f = DosFilter(window_ms=1000, unknown_limit=50, retry_limit=3)
        for i in range(200):
            f.check(i.to_bytes(32, "big"), known=False, now=i)
        assert f.check(b"\xaa" * 32, known=True, now=200) is True

    def test_single_unknown_below_threshold_passes(self):
        f = DosFilter(window_ms=1000, unknown_limit=50, retry_limit=3)
        assert f.check(b"\x01" * 32, known=False, now=0) is True

    def test_per_id_retry_limit(self):
        f = DosFilter(window_ms=1000, unknown_limit=50, retry_limit=3)
        cid = b"\x02" * 32
        results = [f.check(cid, known=True, now=t) for t in range(5)]
        assert results == [True, True, True, False, False]

    def test_retry_window_slides(self):
        f = DosFilter(window_ms=1000, unknown_limit=50, retry_limit=1)
        cid = b"\x03" * 32
        assert f.check(cid, known=True, now=0) is True
        assert f.check(cid, known=True, now=500) is False
        assert f.check(cid, known=True, now=1500) is True

    @given(st.integers(1, 10), st.integers(0, 5), st.integers(0, 5),
           st.lists(st.tuples(st.integers(0, 2), st.booleans(),
                              st.integers(0, 3)), max_size=60))
    def test_matches_a_model_over_the_whole_history(
            self, window, unknown_limit, retry_limit, checks):
        # reference: every check ever made, rescanned at each new one. A
        # check dropped by the retry limit does not count toward the unknown
        # limit; one dropped by the unknown limit does
        f = DosFilter(window, unknown_limit, retry_limit)
        history, now, dropped = [], 0, 0  # (time, id, counts as unknown)
        for n, known, step in checks:
            cid, now = bytes([n]) * 32, now + step
            live = [h for h in history if h[0] > now - window]
            retries = 1 + sum(h[1] == cid for h in live)
            counted = not known and retries <= retry_limit
            history.append((now, cid, counted))
            passed = retries <= retry_limit and not (
                counted and 1 + sum(h[2] for h in live) > unknown_limit)
            dropped += not passed
            assert f.check(cid, known, now) == passed
            assert f.dropped == dropped

    def test_state_stays_bounded_over_many_identities(self):
        # 10,000 distinct ids, one check each, more than a window apart:
        # what the filter keeps must not grow with the ids it has seen
        f = DosFilter(window_ms=1000, unknown_limit=50, retry_limit=3)
        ids = [i.to_bytes(32, "big") for i in range(10_000)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            passed = sum(f.check(cid, known=False, now=i * 1001)
                         for i, cid in enumerate(ids))
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert passed == len(ids)
        assert retained < 64 * 1024


def make_ric(outage=False, dos=False, probationary=True) -> Ric:
    outages = [(0, 1_000_000)] if outage else []
    profile = BackhaulProfile(base_latency_ms=20, bandwidth_bps=1_000_000,
                              outages=outages)
    link = BackhaulLink(profile, random.Random(0), 1000)
    assessor = BackhaulAssessor(link, random.Random(1), 2000)
    assessor.assess(0)  # a run probes at t=0, before any registration
    names = ["state-auth"] + (["probationary"] if probationary else [])
    xapps = [XAppDescriptor(name, 20) for name in names]
    return Ric(xapps, 0.1, assessor=assessor, cache=TtlCache(10_000),
               dos_filter=DosFilter(1000, 50, 3) if dos else None)


def make_request(cached_id=b"\x01" * 32, express=False, roaming=False):
    """The device facts routing reads: id, express eligibility, roaming."""
    return cached_id, express, roaming


class TestRouteRegistration:
    def test_express_wins_even_with_backhaul_down(self):
        ric = make_ric(outage=True)
        ric.cache.store(make_entry())
        decision, _, _ = ric.route_registration(*make_request(express=True),
                                                now=10)
        assert decision == "express"

    def test_unknown_device_healthy_backhaul_standard(self):
        ric = make_ric()
        decision, _, _ = ric.route_registration(*make_request(), now=10)
        assert decision == "standard"

    def test_state_cache_during_outage_delegated(self):
        ric = make_ric(outage=True)
        ric.cache.store(make_entry())
        decision, _, _ = ric.route_registration(*make_request(), now=10)
        assert decision == "delegated"

    def test_one_state_entry_serves_express_and_delegated(self):
        ric = make_ric(outage=True)
        ric.cache.store(make_entry())
        express = ric.route_registration(*make_request(express=True),
                                         now=10)
        delegated = ric.route_registration(*make_request(), now=20)
        assert express[0] == "express"
        assert delegated[0] == "delegated"
        assert express[2] is delegated[2]

    def test_live_entry_delegates_where_state_auth_runs(self):
        ric = make_ric(outage=True, probationary=False)
        entry = make_entry()
        ric.cache.store(entry)
        decision, reason, found = ric.route_registration(*make_request(),
                                                         now=10)
        assert (decision, reason) == ("delegated", "state-cache-hit")
        assert found is entry

    def test_unknown_roamer_during_outage_probationary(self):
        ric = make_ric(outage=True)
        decision, _, _ = ric.route_registration(*make_request(roaming=True),
                                                now=10)
        assert decision == "probationary"

    def test_no_path_rejects(self):
        ric = make_ric(outage=True, probationary=False)
        decision, reason, _ = ric.route_registration(*make_request(), now=10)
        assert decision == "reject"
        assert reason == "no-path"

    def test_filter_drop_precedes_everything(self):
        ric = make_ric(dos=True)
        ric.dos_filter.unknown_limit = 0
        decision, reason, _ = ric.route_registration(*make_request(), now=10)
        assert (decision, reason) == ("reject", "filtered")

    @given(st.binary(min_size=32, max_size=32), st.booleans(),
           st.booleans(), st.booleans())
    def test_total_over_randomized_requests(self, cid, express, roaming,
                                            outage):
        ric = make_ric(outage=outage)
        ric.cache.store(make_entry(cached_id=cid))
        request = make_request(cached_id=cid, express=express, roaming=roaming)
        decision, reason, entry = ric.route_registration(*request, now=5)
        assert decision in PATHS
        assert isinstance(reason, str)
        assert (entry is not None) == (decision in ("express", "delegated"))

    @pytest.mark.parametrize("preset", preset_names())
    def test_every_preset_row_takes_a_path(self, preset):
        comparison = compare_designs(load_preset(preset), seed=1)
        for report in comparison.reports.values():
            assert {row.path for row in report.rows} <= set(PATHS)


class Case(NamedTuple):
    """One input of routing: what is deployed, the device and the RAN."""

    state_auth: bool  # logic-replication
    probation: bool
    dos: str  # "off", "pass" or "drop"
    express: bool
    roaming: bool
    known: bool
    blacklisted: bool
    entry: str  # "none", "live" or "expired"
    link: str  # "healthy", "short" of free bandwidth, or "unreachable"


# The routing rule as the designs describe it: the first row whose test
# holds names the path and its reason tag.
ROUTING_TABLE = (
    (lambda c: c.blacklisted, "reject", "blacklisted"),
    (lambda c: c.dos == "drop", "reject", "filtered"),
    (lambda c: c.express and c.entry == "live",
     "express", "decision-cache-hit"),
    (lambda c: c.link == "healthy", "standard", "backhaul-healthy"),
    (lambda c: c.state_auth and c.entry == "live",
     "delegated", "state-cache-hit"),
    (lambda c: c.probation and c.roaming and not c.known,
     "probationary", "unknown-roamer"),
    (lambda c: True, "reject", "no-path"),
)

# (design, probationary xApp on, DoS verdicts): the filter is off, or on
# with a verdict; a filter built with retry_limit=0 drops every check
DEPLOYMENTS = [
    (design, probation, verdicts)
    for design, probations in (("decision-cache", (False,)),
                               ("logic-replication", (False, True)))
    for probation in probations
    for verdicts in (("off",), ("pass", "drop"))
]


def routing_cases(design, probation, verdicts):
    """Every routing input a run of this deployment can build. An id is
    known once its entry is stored, so an id with an entry is known; only a
    failed deferred auth blacklists, and only where probation runs."""
    for verdict, express, roaming, known, blacklisted, entry, link in (
            itertools.product(verdicts, *[(False, True)] * 4,
                              ("none", "live", "expired"),
                              ("healthy", "short", "unreachable"))):
        if (entry != "none" and not known) or (blacklisted
                                               and not probation):
            continue
        yield Case(design == "logic-replication", probation, verdict,
                   express, roaming, known, blacklisted, entry, link)


class TestRoutingTable:
    NOW = 10
    CID = b"\x07" * 32

    def built_ric(self, case: Case, sims: dict) -> Ric:
        """A RIC as a run of the case's deployment builds it."""
        key = (case.state_auth, case.probation, case.dos)
        if key not in sims:
            sims[key] = Simulation(config_from_dict({
                "name": "table", "seed": 0, "horizon_ms": 1000,
                "design": ("logic-replication" if case.state_auth
                           else "decision-cache"),
                "backhaul": {"base_latency_ms": 20,
                             "bandwidth_bps": 1_000_000},
                "ues": [{"cohort": "c", "count": 1,
                         "behavior": "interactive",
                         "arrival": {"kind": "fixed"}}],
                "dos_filter": case.dos != "off",
                "thresholds": {"dos_retry_limit":
                               0 if case.dos == "drop" else 3},
                "probationary": {"enabled": case.probation},
            }))
        return sims[key]._build_ric()

    def route(self, case: Case, sims: dict) -> tuple[str, list[str]]:
        """Route the case: the reason tag it gets, and what disagrees with
        the table or with the contract of ``choose_path``."""
        ric = self.built_ric(case, sims)
        # healthy at exactly the threshold, short one byte/s under it
        threshold = math.ceil(ric.bandwidth_free_fraction
                              * ric.assessor.link.profile.bandwidth_bps)
        ric.assessor.last = BackhaulHealth(
            reachable=case.link != "unreachable", measured_rtt=40,
            available_bandwidth=threshold - (case.link == "short"))
        stored = None
        if case.entry != "none":
            stored = make_entry(cached_id=self.CID, created_at=0,
                                ttl=HOUR_TTL if case.entry == "live"
                                else self.NOW)
            ric.cache.store(stored)
        if case.known:
            ric.known_ids.add(self.CID)
        if case.blacklisted:
            ric.blacklist.add(self.CID)
        lookups = []
        lookup = ric.cache.lookup
        ric.cache.lookup = lambda cid, now: (lookups.append(cid)
                                             or lookup(cid, now))

        path, reason, entry = ric.route_registration(
            self.CID, case.express, case.roaming, self.NOW)

        want = next((p, r) for test, p, r in ROUTING_TABLE if test(case))
        wrong = []
        if (path, reason) != want:
            wrong.append(f"routed {(path, reason)}, table {want}")
        if len(lookups) > 1:
            wrong.append(f"{len(lookups)} cache lookups")
        local = path in ("express", "delegated")
        if entry is not (stored if local else None):
            wrong.append(f"returned entry {entry!r}")
        # an expired entry that routing looked up is evicted
        kept = case.entry == "live" or (case.entry == "expired"
                                        and not lookups)
        if ric.cache.contains(self.CID) != kept:
            wrong.append(f"entry kept: {not kept}")
        return reason, wrong

    def test_route_registration_follows_the_table(self):
        sims, failures, reasons = {}, [], []
        for deployment in DEPLOYMENTS:
            for case in routing_cases(*deployment):
                reason, wrong = self.route(case, sims)
                reasons.append(reason)
                failures.extend(f"{case}: {w}" for w in wrong)
        assert not failures, "\n".join(failures[:10])
        # 576 inputs, and each row of the table decides some of them
        assert len(reasons) == 576
        assert set(reasons) == {r for _, _, r in ROUTING_TABLE}


class TestStructuralAudit:
    def test_an_annotation_that_does_not_resolve_raises(self):
        @dataclasses.dataclass
        class Holder:
            k: "RootSecret"

        with pytest.raises(NameError):
            audit_type_for_root_secret(Holder)

    def test_ran_side_types_cannot_hold_root_secret(self):
        from randelsim.ric import (BackhaulHealth, DecisionCacheEntry,
                                   XAppDescriptor)
        for tp in (DecisionCacheEntry, BackhaulHealth, XAppDescriptor):
            assert audit_type_for_root_secret(tp) == []

    def test_audit_detects_root_secret(self):
        from randelsim.core import SubscriberRecord
        assert audit_type_for_root_secret(SubscriberRecord) != []

    def test_only_the_subscriber_record_reaches_root_key_states(self):
        # K's padded HMAC states are as secret as K
        from randelsim.core import SubscriberRecord
        from randelsim.crypto import HmacKey
        from randelsim.ric import (BackhaulHealth, DecisionCacheEntry,
                                   XAppDescriptor)
        for tp in (DecisionCacheEntry, BackhaulHealth, XAppDescriptor):
            assert audit_type_for_root_secret(tp, target=HmacKey) == []
        assert audit_type_for_root_secret(SubscriberRecord, target=HmacKey) \
            == ["root_secret.hmac_key"]

    def test_no_ran_side_type_reaches_a_population(self):
        # a population holds every subscriber's K
        from randelsim.ric import (BackhaulHealth, DecisionCacheEntry,
                                   XAppDescriptor)
        from randelsim.simulation import Population
        for tp in (DecisionCacheEntry, BackhaulHealth, XAppDescriptor):
            assert audit_type_for_root_secret(tp, target=Population) == []


@pytest.mark.parametrize("cls, names", [
    (TtlCache, ["capacity"]),
    (DosFilter, ["window_ms", "unknown_limit", "retry_limit"]),
    (BackhaulAssessor, ["probe_timeout_ms"]),
    (Ric, ["bandwidth_free_fraction"]),
])
def test_scenario_settings_have_no_second_default(cls, names):
    # each default lives in its scenario field; the constructor takes it
    params = inspect.signature(cls).parameters
    assert all(params[n].default is inspect.Parameter.empty for n in names)
