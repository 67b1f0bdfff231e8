import random

import pytest

from randelsim import crypto
from randelsim.crypto import RootSecret, SequenceState, UsimState
from randelsim.ue import (ARRIVAL_KINDS, ArrivalSpec, UeDevice, UeProfile,
                          cohort_arrival_times, sensor_attempt_times)


def make_device(k: bytes = b"\x11" * 32, behavior="interactive") -> UeDevice:
    identity = crypto.conceal_identity("ue-100")
    profile = UeProfile(ue_id="ue-100", cohort="c", behavior=behavior,
                        identity=identity, usim=UsimState(k=RootSecret(k)),
                        home_network="net-serving")
    return UeDevice(profile=profile)


class TestSensorSchedule:
    def test_two_minute_period_over_ten_minutes(self):
        # 600 s horizon at a 120 s period: attempts at 0,120,240,360,480 s
        times = sensor_attempt_times(0, 120_000, 600_000)
        assert times == [0, 120_000, 240_000, 360_000, 480_000]
        assert len(times) == 5

    def test_offset_first_arrival(self):
        assert sensor_attempt_times(5000, 60_000, 130_000) == [5000, 65_000, 125_000]

    def test_bad_period_rejected(self):
        with pytest.raises(ValueError):
            sensor_attempt_times(0, 0, 1000)


class TestArrivals:
    def test_fixed_everyone_at_once(self):
        spec = ArrivalSpec(kind="fixed", time_ms=500)
        assert cohort_arrival_times(spec, 4, 10_000, random.Random(0)) == [500] * 4

    def test_burst_everyone_at_once(self):
        spec = ArrivalSpec(kind="burst", time_ms=2000)
        times = cohort_arrival_times(spec, 8, 10_000, random.Random(0))
        assert times[:6] == [2000] * 6

    def test_poisson_nondecreasing_and_clipped(self):
        spec = ArrivalSpec(kind="poisson", time_ms=0, rate_per_s=100)
        times = cohort_arrival_times(spec, 50, 1000, random.Random(3))
        assert times == sorted(times)
        assert all(t < 1000 for t in times)

    def test_flood_evenly_spaced(self):
        spec = ArrivalSpec(kind="flood", time_ms=0, rate_per_s=1000)
        times = cohort_arrival_times(spec, 10, 60_000, random.Random(0))
        assert times == list(range(10))

    @pytest.mark.parametrize("kind", ARRIVAL_KINDS)
    def test_tiny_rates_stay_inside_the_horizon(self, kind):
        # offsets of 1 / 5e-324 s are infinite before the horizon clips them
        spec = ArrivalSpec(kind=kind, time_ms=100, rate_per_s=5e-324,
                           tail_rate_per_s=5e-324)
        times = cohort_arrival_times(spec, 8, 10_000, random.Random(0))
        assert len(times) == 8
        assert all(type(t) is int and 0 <= t <= 9_999 for t in times)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ArrivalSpec(kind="trickle")

    def test_poisson_requires_rate(self):
        with pytest.raises(ValueError):
            ArrivalSpec(kind="poisson", rate_per_s=0)


class TestUeDevice:
    def test_unknown_behavior_rejected(self):
        with pytest.raises(ValueError):
            make_device(behavior="sleepy")

    def test_answers_valid_challenge(self):
        device = make_device()
        av = crypto.generate_av(RootSecret(b"\x11" * 32), SequenceState(),
                                "net-serving", random.Random(0))
        assert device.respond_to_challenge(av.rand, av.autn) == av.xres

    def test_derives_same_hierarchy_as_network(self):
        device = make_device()
        av = crypto.generate_av(RootSecret(b"\x11" * 32), SequenceState(),
                                "net-serving", random.Random(1))
        mine = device.derive_hierarchy_from_challenge(av.rand, "net-serving")
        theirs = crypto.build_hierarchy(av.k_derived, "net-serving",
                                        device.identity.cached_id)
        assert mine == theirs
        assert device.k_seaf == theirs.k_seaf

    def test_express_response_needs_anchor(self):
        device = make_device()
        assert device.express_response(b"\x00" * 16) is None
        device.k_seaf = b"\x22" * 32
        mac = device.express_response(b"\x00" * 16)
        assert mac == crypto.express_response_mac(
            b"\x22" * 32, device.identity.cached_id, b"\x00" * 16)

    def test_credential_free_device_cannot_answer(self):
        identity = crypto.conceal_identity("ue-attacker")
        profile = UeProfile(ue_id="a", cohort="c", behavior="attacker-flood",
                            identity=identity, usim=None,
                            home_network="net-serving")
        device = UeDevice(profile=profile)
        av = crypto.generate_av(RootSecret(b"\x11" * 32), SequenceState(),
                                "net-serving", random.Random(2))
        with pytest.raises(crypto.MacFailure):
            device.respond_to_challenge(av.rand, av.autn)


def test_flood_cohort_identities_distinct():
    ids = {crypto.conceal_identity(f"atk-{i:04d}").cached_id
           for i in range(1000)}
    assert len(ids) == 1000
