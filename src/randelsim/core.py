"""Core network: subscriber DB, NF selection, session admission, message log."""

from __future__ import annotations

from dataclasses import dataclass

from .crypto import RootSecret, SequenceState, SessionKeys, UeIdentity


@dataclass(frozen=True)
class SubscriptionPolicy:
    allowed_slices: frozenset[str]
    authorized_services: frozenset[str]

    def admit(self, slice_id: str, service: str | None) -> bool:
        """The one admission rule; only the core runs it."""
        return slice_id in self.allowed_slices and (
            service is None or service in self.authorized_services)


@dataclass(slots=True)
class SubscriberRecord:
    identity: UeIdentity
    root_secret: RootSecret
    sequence: SequenceState
    subscription: SubscriptionPolicy


@dataclass
class NfInstance:
    kind: str
    id: str
    load: int = 0


NF_COUNTS = {"AMF": 2, "AUSF": 2, "UDM": 1, "SMF": 2, "PCF": 1, "UPF": 2,
             "SEAF": 1}


class CoreNetwork:
    """One network's control plane: NF instance set, subscriber DB, the SEAF
    anchors of authenticated devices and a log of the messages it carried."""

    def __init__(self, network_id: str):
        self.network_id = network_id
        self.instances: dict[str, list[NfInstance]] = {
            kind: [NfInstance(kind, f"{kind.lower()}{i + 1}") for i in range(n)]
            for kind, n in NF_COUNTS.items()
        }
        # keyed as the UDM keys, once the SIDF has de-concealed a SUCI
        self._by_supi: dict[str, SubscriberRecord] = {}
        self.seaf_hierarchies: dict[bytes, SessionKeys] = {}
        self.transcript: list[str] = []

    # -- subscribers -------------------------------------------------------

    def add_subscriber(self, record: SubscriberRecord) -> None:
        supi = record.identity.supi
        if supi in self._by_supi:
            raise ValueError(f"duplicate subscriber {supi}")
        self._by_supi[supi] = record

    def find_by_supi(self, supi: str) -> SubscriberRecord | None:
        return self._by_supi.get(supi)

    # -- NF selection ------------------------------------------------------

    def select_nf(self, kind: str) -> NfInstance:
        """Least-loaded instance, ties broken by lowest id."""
        inst = min(self.instances[kind], key=lambda nf: (nf.load, nf.id))
        inst.load += 1
        return inst

    def release_nf(self, inst: NfInstance) -> None:
        if inst.load > 0:
            inst.load -= 1

    # -- sessions ----------------------------------------------------------

    def establish_session(self, policy: SubscriptionPolicy, slice_id: str,
                          service: str | None) -> bool:
        """Whether ``policy`` admits an authenticated device's session.

        The device holds the session that results; the core keeps no record
        of it. The SMF and UPF an admitted session picks are held only for
        the call.
        """
        if not policy.admit(slice_id, service):
            return False
        smf = self.select_nf("SMF")
        upf = self.select_nf("UPF")
        self.release_nf(smf)
        self.release_nf(upf)
        return True

    # -- trace log ---------------------------------------------------------

    def log(self, t: int, src: str, dst: str, msg_type: str, size: int) -> None:
        self.transcript.append(f"{t} {src} {dst} {msg_type} {size}")
