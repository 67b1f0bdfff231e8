import pytest

from randelsim import crypto
from randelsim.core import CoreNetwork, SubscriberRecord, SubscriptionPolicy
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
        core = CoreNetwork("net-a")
        assert core.select_nf("AMF").id == "amf1"

    def test_least_loaded_wins(self):
        core = CoreNetwork("net-a")
        amf1, amf2 = core.instances["AMF"]
        amf1.load, amf2.load = 3, 1
        assert core.select_nf("AMF") is amf2

    def test_tie_broken_by_lowest_id(self):
        core = CoreNetwork("net-a")
        assert core.select_nf("AMF").id == "amf1"

    def test_pure_under_identical_state(self):
        a = CoreNetwork("net-a")
        b = CoreNetwork("net-a")
        assert a.select_nf("SMF").id == b.select_nf("SMF").id

    def test_load_released_on_resolution(self):
        core = CoreNetwork("net-a")
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
    @pytest.mark.parametrize("slice_id, service, admitted", [
        ("default", "data", True),
        ("default", "drone-control", False),
        ("default", None, True),
        ("secret-slice", "data", False),
        ("secret-slice", "drone-control", False),
        ("secret-slice", None, False),
    ])
    def test_admission_table(self, slice_id, service, admitted):
        assert make_policy().admit(slice_id, service) is admitted

    def test_allowed_slice_is_admitted(self):
        core = CoreNetwork("net-a")
        assert core.establish_session(make_policy(), "default", "data") is True
        # the SMF and UPF it picked are free again
        assert all(nf.load == 0 for kind in ("SMF", "UPF")
                   for nf in core.instances[kind])

    def denied(self, monkeypatch, slice_id, service):
        core = CoreNetwork("net-a")
        picks = []
        monkeypatch.setattr(core, "select_nf", picks.append)
        assert core.establish_session(make_policy(), slice_id,
                                      service) is False
        assert picks == []  # a denied session picks no SMF or UPF

    def test_disallowed_slice_policy_denied(self, monkeypatch):
        self.denied(monkeypatch, "secret-slice", None)

    def test_unauthorized_service_policy_denied(self, monkeypatch):
        self.denied(monkeypatch, "default", "drone-control")
