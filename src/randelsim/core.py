"""Core network functions: subscriber data, NF selection, sessions, transcript."""

from __future__ import annotations

from dataclasses import dataclass, field

from .crypto import KeyHierarchy, RootSecret, SequenceState, UeIdentity


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
    qos_class: str = "best-effort"

    def __post_init__(self):
        if not self.allowed_slices:
            raise ValueError("allowed_slices must be nonempty")
        if self.qos_class not in ("low-latency", "best-effort"):
            raise ValueError("qos_class must be 'low-latency' or 'best-effort'")


@dataclass
class SubscriberRecord:
    identity: UeIdentity
    root_secret: RootSecret
    sequence: SequenceState
    subscription: SubscriptionPolicy
    home_network: str


@dataclass
class SessionRecord:
    cached_id: bytes
    slice_id: str
    assigned_address: int
    upf_id: str
    qos_class: str
    established_at: int
    services: frozenset[str]
    locally_granted: bool = False
    active: bool = True


@dataclass
class NfInstance:
    kind: str
    id: str
    load: int = 0


DEFAULT_NF_COUNTS = {"AMF": 2, "AUSF": 2, "UDM": 1, "SMF": 2, "PCF": 1,
                     "UPF": 2, "SEAF": 1}


class CoreNetwork:
    """One network's control plane: NF instance set, subscriber DB, sessions."""

    def __init__(self, network_id: str, nf_counts: dict[str, int] | None = None,
                 address_base: int = 1):
        self.network_id = network_id
        counts = dict(DEFAULT_NF_COUNTS)
        if nf_counts:
            counts.update(nf_counts)
        self.instances: dict[str, list[NfInstance]] = {
            kind: [NfInstance(kind, f"{kind.lower()}{i + 1}") for i in range(n)]
            for kind, n in counts.items()
        }
        self._by_supi: dict[str, SubscriberRecord] = {}
        self._by_suci: dict[str, SubscriberRecord] = {}
        self._next_address = address_base
        self.sessions: dict[bytes, SessionRecord] = {}
        self.seaf_hierarchies: dict[bytes, KeyHierarchy] = {}
        self.transcript: list[str] = []

    # -- subscribers -------------------------------------------------------

    def add_subscriber(self, record: SubscriberRecord) -> None:
        supi = record.identity.supi
        if supi in self._by_supi:
            raise ValueError(f"duplicate subscriber {supi}")
        self._by_supi[supi] = record
        self._by_suci[record.identity.suci] = record

    def find_by_suci(self, suci: str) -> SubscriberRecord | None:
        return self._by_suci.get(suci)

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

    def next_address(self) -> int:
        addr = self._next_address
        self._next_address += 1
        return addr

    def establish_session(self, cached_id: bytes, policy: SubscriptionPolicy,
                          slice_id: str, service: str | None, now: int) -> SessionRecord:
        if cached_id not in self.seaf_hierarchies:
            raise AuthRequired("session establishment before authentication")
        if slice_id not in policy.allowed_slices:
            raise PolicyDenied(f"slice {slice_id!r} not allowed")
        if service is not None and service not in policy.authorized_services:
            raise PolicyDenied(f"service {service!r} not authorized")
        smf = self.select_nf("SMF")
        upf = self.select_nf("UPF")
        session = SessionRecord(
            cached_id=cached_id,
            slice_id=slice_id,
            assigned_address=self.next_address(),
            upf_id=upf.id,
            qos_class=policy.qos_class,
            established_at=now,
            services=policy.authorized_services,
        )
        self.sessions[cached_id] = session
        self.release_nf(smf)
        self.release_nf(upf)
        return session

    def teardown(self, cached_id: bytes) -> None:
        session = self.sessions.get(cached_id)
        if session is not None:
            session.active = False

    # -- trace log ---------------------------------------------------------

    def log(self, t: int, src: str, dst: str, msg_type: str, size: int) -> None:
        self.transcript.append(f"{t} {src} {dst} {msg_type} {size}")
