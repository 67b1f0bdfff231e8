import random

import pytest
from hypothesis import example, given, strategies as st

from randelsim import crypto
from randelsim.crypto import RootSecret, SequenceState, UsimState
from randelsim.ue import (ARRIVAL_KINDS, ArrivalSpec, UeCohortSpec, UeDevice,
                          cohort_arrival_times)


def make_spec(behavior="interactive") -> UeCohortSpec:
    return UeCohortSpec(cohort="c", count=1, behavior=behavior,
                        arrival=ArrivalSpec(kind="fixed"))


def make_device(k: bytes = b"\x11" * 32, behavior="interactive") -> UeDevice:
    identity = crypto.conceal_identity("ue-100")
    profile = make_spec(behavior)
    return UeDevice(profile=profile, identity=identity,
                    usim=UsimState(k=RootSecret(k)))


class TestArrivals:
    def test_fixed_everyone_at_once(self):
        spec = ArrivalSpec(kind="fixed", time_ms=500)
        assert list(cohort_arrival_times(spec, 4, 10_000,
                                         random.Random(0))) == [500] * 4

    def test_poisson_nondecreasing_and_clipped(self):
        spec = ArrivalSpec(kind="poisson", time_ms=0, rate_per_s=100)
        times = list(cohort_arrival_times(spec, 50, 1000, random.Random(3)))
        assert times == sorted(times)
        assert all(t < 1000 for t in times)

    def test_flood_evenly_spaced(self):
        spec = ArrivalSpec(kind="flood", time_ms=0, rate_per_s=1000)
        times = list(cohort_arrival_times(spec, 10, 60_000, random.Random(0)))
        assert times == list(range(10))

    @pytest.mark.parametrize("kind", ARRIVAL_KINDS)
    def test_tiny_rates_stay_inside_the_horizon(self, kind):
        # offsets of 1 / 5e-324 s are infinite before the horizon clips them
        spec = ArrivalSpec(kind=kind, time_ms=100, rate_per_s=5e-324)
        times = list(cohort_arrival_times(spec, 8, 10_000, random.Random(0)))
        assert len(times) == 8
        assert all(type(t) is int and 0 <= t <= 9_999 for t in times)

    @given(st.sampled_from(ARRIVAL_KINDS), st.integers(0, 3000),
           st.floats(5e-324, 1e6), st.integers(1, 60), st.integers(1, 3000),
           st.integers(0, 3))
    @example("flood", 100, 5e-324, 8, 10_000, 0)
    @example("poisson", 0, 1e6, 60, 1, 0)
    def test_times_are_the_clamped_offsets(self, kind, time_ms, rate, count,
                                           horizon, seed):
        # the earlier list form: each offset clamped before int(), then
        # every time clipped to the horizon
        rng = random.Random(seed)
        if kind == "fixed":
            times = [time_ms] * count
        elif kind == "flood":
            times = [time_ms + int(min(i * 1000 / rate, horizon))
                     for i in range(count)]
        else:
            times, t = [], float(time_ms)
            for _ in range(count):
                t += rng.expovariate(rate) * 1000
                times.append(int(min(t, horizon)))
        spec = ArrivalSpec(kind=kind, time_ms=time_ms, rate_per_s=rate)
        assert list(cohort_arrival_times(spec, count, horizon,
                                         random.Random(seed))) == [
            min(t, horizon - 1) for t in times]

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

    def test_cohort_requires_an_allowed_slice(self):
        with pytest.raises(ValueError,
                           match="^allowed_slices must be nonempty$"):
            UeCohortSpec(cohort="c", count=1, behavior="interactive",
                         arrival=ArrivalSpec(kind="fixed"), allowed_slices=())

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
        assert device.hierarchy.k_seaf == theirs.k_seaf

    def test_express_response_needs_anchor(self):
        device = make_device()
        assert device.express_response(b"\x00" * 16) is None
        anchor = device.learn_hierarchy(b"\x22" * 32, "net-serving").k_seaf
        mac = device.express_response(b"\x00" * 16)
        assert mac == crypto.express_response_mac(
            anchor, device.identity.cached_id, b"\x00" * 16)

    def test_credential_free_device_cannot_answer(self):
        identity = crypto.conceal_identity("ue-attacker")
        device = UeDevice(profile=make_spec("attacker-flood"),
                          identity=identity, usim=None)
        av = crypto.generate_av(RootSecret(b"\x11" * 32), SequenceState(),
                                "net-serving", random.Random(2))
        with pytest.raises(crypto.MacFailure):
            device.respond_to_challenge(av.rand, av.autn)

    def test_session_opens_once_and_ends(self):
        device = make_device()
        assert device.open_session("probation", frozenset({"messaging"}))
        # a second grant replaces the session, it opens none
        assert not device.open_session("default", frozenset({"data"}))
        assert (device.session_slice, device.session_services) == (
            "default", frozenset({"data"}))
        device.end_session()
        assert (device.session_slice, device.session_services) == (
            None, frozenset())
        assert device.open_session("default", frozenset({"data"}))


def test_flood_cohort_identities_distinct():
    ids = {crypto.conceal_identity(f"atk-{i:04d}").cached_id
           for i in range(1000)}
    assert len(ids) == 1000
