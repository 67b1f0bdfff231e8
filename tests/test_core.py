import pytest

from randelsim import crypto
from randelsim.core import (AuthRequired, CoreNetwork, NfUnavailable,
                            PolicyDenied, SubscriberRecord, SubscriptionPolicy)
from randelsim.crypto import RootSecret, SequenceState


def make_policy(slices=("default",), services=("data",)) -> SubscriptionPolicy:
    return SubscriptionPolicy(allowed_slices=frozenset(slices),
                              authorized_services=frozenset(services))


def make_record(supi: str) -> SubscriberRecord:
    return SubscriberRecord(identity=crypto.conceal_identity(supi),
                            root_secret=RootSecret(b"\x01" * 32),
                            sequence=SequenceState(),
                            subscription=make_policy())


class TestSelectNf:
    def test_single_instance_selected(self):
        core = CoreNetwork("net-a", nf_counts={"AMF": 1})
        assert core.select_nf("AMF").id == "amf1"

    def test_least_loaded_wins(self):
        core = CoreNetwork("net-a", nf_counts={"AMF": 2})
        amf1, amf2 = core.instances["AMF"]
        amf1.load, amf2.load = 3, 1
        assert core.select_nf("AMF") is amf2

    def test_tie_broken_by_lowest_id(self):
        core = CoreNetwork("net-a", nf_counts={"AMF": 3})
        assert core.select_nf("AMF").id == "amf1"

    def test_no_instance_raises(self):
        core = CoreNetwork("net-a", nf_counts={"AMF": 0})
        with pytest.raises(NfUnavailable):
            core.select_nf("AMF")

    def test_pure_under_identical_state(self):
        a = CoreNetwork("net-a")
        b = CoreNetwork("net-a")
        assert a.select_nf("SMF").id == b.select_nf("SMF").id

    def test_load_released_on_resolution(self):
        core = CoreNetwork("net-a", nf_counts={"AMF": 1})
        inst = core.select_nf("AMF")
        assert inst.load == 1
        core.release_nf(inst)
        assert inst.load == 0


class TestSubscribers:
    def test_duplicate_supi_rejected(self):
        core = CoreNetwork("net-a")
        first = make_record("ue-001")
        core.add_subscriber(first)
        with pytest.raises(ValueError, match="duplicate subscriber ue-001"):
            core.add_subscriber(make_record("ue-001"))
        assert core.find_by_supi("ue-001") is first

    def test_lookup_by_supi(self):
        core = CoreNetwork("net-a")
        record = make_record("ue-002")
        core.add_subscriber(record)
        assert core.find_by_supi(record.identity.supi) is record
        assert core.find_by_supi("ue-unknown") is None


class TestEstablishSession:
    def authed_core(self, supi="ue-001"):
        core = CoreNetwork("net-a")
        record = make_record(supi)
        core.add_subscriber(record)
        cid = record.identity.cached_id
        core.seaf_hierarchies[cid] = crypto.build_hierarchy(
            b"\x02" * 32, "net-a", cid)
        return core, record, cid

    def test_allowed_slice_is_admitted(self):
        core, record, cid = self.authed_core()
        core.establish_session(cid, record.subscription, "default", "data")
        # the SMF and UPF it picked are free again
        assert all(nf.load == 0 for kind in ("SMF", "UPF")
                   for nf in core.instances[kind])

    def test_disallowed_slice_policy_denied(self):
        core, record, cid = self.authed_core()
        with pytest.raises(PolicyDenied):
            core.establish_session(cid, record.subscription, "secret-slice",
                                   None)

    def test_unauthorized_service_policy_denied(self):
        core, record, cid = self.authed_core()
        with pytest.raises(PolicyDenied):
            core.establish_session(cid, record.subscription, "default",
                                   "drone-control")

    def test_unauthenticated_rejected(self):
        core = CoreNetwork("net-a")
        record = make_record("ue-009")
        core.add_subscriber(record)
        with pytest.raises(AuthRequired):
            core.establish_session(record.identity.cached_id,
                                   record.subscription, "default", None)
