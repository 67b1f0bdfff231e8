import random

import pytest
from hypothesis import given, strategies as st

from randelsim.backhaul import BackhaulLink, BackhaulProfile
from randelsim.core import SubscriptionPolicy
from randelsim.ric import (AlreadyRegistered, BackhaulAssessor, DecisionCacheEntry,
                           DosFilter, EXPIRED, InvalidBudget, MISS,
                           RegistrationRequest, Ric, RoutingDecision,
                           StateCacheEntry, TtlCache, XAppDescriptor,
                           audit_type_for_root_secret)

HOUR_TTL = 3_600_000  # the canonical 60:00 m example


def make_entry(cached_id=b"\x01" * 32, ttl=HOUR_TTL, created_at=0,
               state=False) -> DecisionCacheEntry:
    cp = {"registration": {"access-control": "allow", "slice-grant": "default"},
          "reauth": {"access-control": "allow"}}
    dp = {"registration": {"traffic-steering": "local-upf"}}
    if state:
        policy = SubscriptionPolicy(allowed_slices=frozenset({"default"}),
                                    authorized_services=frozenset({"data"}))
        return StateCacheEntry(cached_id=cached_id, k_seaf=b"\x02" * 32,
                               control_plane_decisions=cp,
                               data_plane_decisions=dp, ttl=ttl,
                               created_at=created_at,
                               control_plane_state=policy,
                               data_plane_state={}, snapshot_at=created_at)
    return DecisionCacheEntry(cached_id=cached_id, k_seaf=b"\x02" * 32,
                              control_plane_decisions=cp,
                              data_plane_decisions=dp, ttl=ttl,
                              created_at=created_at)


class TestXAppBudget:
    def test_in_budget_accepted(self):
        XAppDescriptor("a", frozenset({"registration"}), 50)

    def test_below_lower_bound_rejected(self):
        with pytest.raises(InvalidBudget):
            XAppDescriptor("a", frozenset(), 5)

    def test_above_upper_bound_rejected(self):
        with pytest.raises(InvalidBudget):
            XAppDescriptor("a", frozenset(), 1500)

    def test_bounds_inclusive(self):
        XAppDescriptor("lo", frozenset(), 10)
        XAppDescriptor("hi", frozenset(), 1000)

    def test_duplicate_name_rejected(self):
        ric = Ric(None, None, None, None, False)
        ric.register_xapp(XAppDescriptor("a", frozenset(), 50))
        with pytest.raises(AlreadyRegistered):
            ric.register_xapp(XAppDescriptor("a", frozenset(), 60))


class TestTtlCache:
    def test_lookup_on_empty_is_miss(self):
        assert TtlCache().lookup(b"\x01" * 32, "registration", 0) is MISS

    def test_hit_one_ms_before_expiry(self):
        cache = TtlCache()
        cache.store(make_entry())
        got = cache.lookup(b"\x01" * 32, "registration", HOUR_TTL - 1)
        assert isinstance(got, DecisionCacheEntry)

    def test_expired_exactly_at_ttl(self):
        cache = TtlCache()
        cache.store(make_entry())
        assert cache.lookup(b"\x01" * 32, "registration", HOUR_TTL) is EXPIRED
        # expired entries are evicted on lookup
        assert cache.lookup(b"\x01" * 32, "registration", HOUR_TTL) is MISS

    def test_unknown_request_type_is_miss(self):
        cache = TtlCache()
        cache.store(make_entry())
        assert cache.lookup(b"\x01" * 32, "handover", 10) is MISS

    def test_capacity_evicts_earliest_expiry(self):
        cache = TtlCache(capacity=2)
        cache.store(make_entry(cached_id=b"\x01" * 32, ttl=100))
        cache.store(make_entry(cached_id=b"\x02" * 32, ttl=300))
        cache.store(make_entry(cached_id=b"\x03" * 32, ttl=200))
        assert not cache.contains(b"\x01" * 32)
        assert cache.contains(b"\x02" * 32)
        assert cache.contains(b"\x03" * 32)

    def test_nonpositive_ttl_rejected(self):
        with pytest.raises(ValueError):
            TtlCache().store(make_entry(ttl=0))

    @given(st.integers(min_value=1, max_value=10 * HOUR_TTL),
           st.integers(min_value=0, max_value=20 * HOUR_TTL))
    def test_liveness_boundary_property(self, ttl, now):
        entry = make_entry(ttl=ttl, created_at=0)
        assert entry.live(now) == (now < ttl)


class TestAssessor:
    def make(self, base=20, outages=(), bandwidth=1_000_000):
        profile = BackhaulProfile(base_latency_ms=base, bandwidth_bps=bandwidth,
                                  outages=list(outages))
        link = BackhaulLink(profile, random.Random(0))
        return link, BackhaulAssessor(link, random.Random(1))

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

    def test_stale_assessment_redone(self):
        _, assessor = self.make()
        first = assessor.current(0)
        later = assessor.current(10_000)  # stale: > 2x probe interval
        assert later.assessed_at == 10_000
        assert first.assessed_at == 0


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
        f = DosFilter()
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


def make_ric(outage=False, decision=True, state=True, dos=False,
             probationary=True) -> Ric:
    outages = [(0, 1_000_000)] if outage else []
    profile = BackhaulProfile(base_latency_ms=20, bandwidth_bps=1_000_000,
                              outages=outages)
    link = BackhaulLink(profile, random.Random(0))
    assessor = BackhaulAssessor(link, random.Random(1))
    return Ric(assessor=assessor,
               decision_cache=TtlCache() if decision else None,
               state_cache=TtlCache() if state else None,
               dos_filter=DosFilter() if dos else None,
               probationary_enabled=probationary)


def make_request(cached_id=b"\x01" * 32, express=False, home="net-serving",
                 request_type="registration") -> RegistrationRequest:
    return RegistrationRequest(cached_id=cached_id, suci="suci-x",
                               request_type=request_type, home_network=home,
                               serving_network="net-serving",
                               express_eligible=express, slice_id="default",
                               service=None)


class TestRouteRegistration:
    def test_express_wins_even_with_backhaul_down(self):
        ric = make_ric(outage=True)
        ric.decision_cache.store(make_entry())
        decision, _, _ = ric.route_registration(make_request(express=True), now=10)
        assert decision is RoutingDecision.EXPRESS

    def test_unknown_device_healthy_backhaul_standard(self):
        ric = make_ric()
        decision, _, _ = ric.route_registration(make_request(), now=10)
        assert decision is RoutingDecision.STANDARD

    def test_state_cache_during_outage_delegated(self):
        ric = make_ric(outage=True)
        ric.state_cache.store(make_entry(state=True))
        decision, _, _ = ric.route_registration(make_request(), now=10)
        assert decision is RoutingDecision.DELEGATED

    def test_unknown_roamer_during_outage_probationary(self):
        ric = make_ric(outage=True)
        decision, _, _ = ric.route_registration(make_request(home="net-far"),
                                                now=10)
        assert decision is RoutingDecision.PROBATIONARY

    def test_no_path_rejects(self):
        ric = make_ric(outage=True, probationary=False)
        decision, reason, _ = ric.route_registration(make_request(), now=10)
        assert decision is RoutingDecision.REJECT
        assert reason == "no-path"

    def test_filter_drop_precedes_everything(self):
        ric = make_ric(dos=True)
        ric.dos_filter.unknown_limit = 0
        decision, reason, _ = ric.route_registration(make_request(), now=10)
        assert (decision, reason) == (RoutingDecision.REJECT, "filtered")

    @given(st.binary(min_size=32, max_size=32), st.booleans(),
           st.sampled_from(["net-serving", "net-far"]),
           st.sampled_from(["registration", "reauth"]),
           st.booleans(), st.booleans())
    def test_total_over_randomized_requests(self, cid, express, home,
                                            request_type, outage, with_state):
        ric = make_ric(outage=outage, state=with_state)
        request = make_request(cached_id=cid, express=express, home=home,
                               request_type=request_type)
        decision, reason, entry = ric.route_registration(request, now=5)
        assert isinstance(decision, RoutingDecision)
        assert isinstance(reason, str)
        assert (entry is not None) == (decision in (RoutingDecision.EXPRESS,
                                                    RoutingDecision.DELEGATED))


class TestStructuralAudit:
    def test_ran_side_types_cannot_hold_root_secret(self):
        from randelsim.ric import (BackhaulHealth, DecisionCacheEntry,
                                   StateCacheEntry, XAppDescriptor)
        for tp in (DecisionCacheEntry, StateCacheEntry, BackhaulHealth,
                   XAppDescriptor):
            assert audit_type_for_root_secret(tp) == []

    def test_audit_detects_root_secret(self):
        from randelsim.core import SubscriberRecord
        assert audit_type_for_root_secret(SubscriberRecord) != []


def test_cache_dump_format():
    cache = TtlCache()
    cache.store(make_entry())
    ric = Ric(None, cache, None, None, False)
    lines = ric.dump_caches(now=1000)
    assert len(lines) == 1
    kind, cid_hex, fp, remaining = lines[0].split()
    assert kind == "decision"
    assert cid_hex == ("01" * 32)
    assert int(remaining) == HOUR_TTL - 1000
