"""Core network: subscriber DB, NF selection, session admission, message log."""

from __future__ import annotations

from dataclasses import dataclass

from .crypto import RootSecret, SequenceState, SessionKeys, UeIdentity


class NfUnavailable(Exception):
    pass


class PolicyDenied(Exception):
    pass


class AuthRequired(Exception):
    pass


@dataclass(frozen=True)
class SubscriptionPolicy:
    allowed_slices: frozenset[str]
    authorized_services: frozenset[str]

    def admit(self, slice_id: str, service: str | None) -> None:
        """The one admission rule; only the core runs it."""
        if slice_id not in self.allowed_slices:
            raise PolicyDenied(f"slice {slice_id!r} not allowed")
        if service is not None and service not in self.authorized_services:
            raise PolicyDenied(f"service {service!r} not authorized")


@dataclass
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


DEFAULT_NF_COUNTS = {"AMF": 2, "AUSF": 2, "UDM": 1, "SMF": 2, "PCF": 1,
                     "UPF": 2, "SEAF": 1}


class CoreNetwork:
    """One network's control plane: NF instance set, subscriber DB, the SEAF
    anchors of authenticated devices and a log of the messages it carried."""

    def __init__(self, network_id: str, nf_counts: dict[str, int] | None = None):
        self.network_id = network_id
        counts = dict(DEFAULT_NF_COUNTS)
        if nf_counts:
            counts.update(nf_counts)
        self.instances: dict[str, list[NfInstance]] = {
            kind: [NfInstance(kind, f"{kind.lower()}{i + 1}") for i in range(n)]
            for kind, n in counts.items()
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
        pool = self.instances.get(kind, [])
        if not pool:
            raise NfUnavailable(f"no {kind} instance available")
        inst = min(pool, key=lambda nf: (nf.load, nf.id))
        inst.load += 1
        return inst

    def release_nf(self, inst: NfInstance) -> None:
        if inst.load > 0:
            inst.load -= 1

    # -- sessions ----------------------------------------------------------

    def establish_session(self, cached_id: bytes, policy: SubscriptionPolicy,
                          slice_id: str, service: str | None) -> None:
        """Admit an authenticated device's session on ``slice_id``.

        The device holds the session that results; the core keeps no record
        of it. The SMF and UPF it picks are held only for the call.
        """
        if cached_id not in self.seaf_hierarchies:
            raise AuthRequired("session establishment before authentication")
        policy.admit(slice_id, service)
        smf = self.select_nf("SMF")
        upf = self.select_nf("UPF")
        self.release_nf(smf)
        self.release_nf(upf)

    # -- trace log ---------------------------------------------------------

    def log(self, t: int, src: str, dst: str, msg_type: str, size: int) -> None:
        self.transcript.append(f"{t} {src} {dst} {msg_type} {size}")
