"""UE state and workload generation: registrants, sensors, roamers, attackers."""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import crypto
from .crypto import KeyHierarchy, UeIdentity, UsimState

BEHAVIORS = ("interactive", "periodic-sensor", "roamer", "attacker-flood")
ARRIVAL_KINDS = ("fixed", "burst", "poisson", "flood")


@dataclass(frozen=True)
class ArrivalSpec:
    """When a device (or each device of a cohort) first shows up.

    kinds:
      fixed   - every device arrives at time_ms
      burst   - flash crowd: all devices at time_ms, plus optional Poisson
                tail at tail_rate_per_s
      poisson - devices arrive with exponential inter-arrival gaps at
                rate_per_s starting from time_ms
      flood   - count requests evenly spaced at rate_per_s from time_ms
    """

    kind: str
    time_ms: int = field(default=0, metadata={"min": 0})
    rate_per_s: float = field(default=0.0, metadata={"min": 0})
    tail_rate_per_s: float = field(default=0.0, metadata={"min": 0})

    def __post_init__(self):
        if self.kind not in ARRIVAL_KINDS:
            raise ValueError(f"kind {self.kind!r} is not one of {ARRIVAL_KINDS}")
        if self.kind in ("poisson", "flood") and self.rate_per_s <= 0:
            raise ValueError(f"rate_per_s must be > 0 for {self.kind} arrivals")


@dataclass
class UeProfile:
    ue_id: str
    cohort: str
    behavior: str
    identity: UeIdentity
    usim: UsimState | None  # attackers carry junk keys, no subscription
    home_network: str
    express_eligible: bool = False
    slice_id: str = "default"
    service: str | None = None
    period_ms: int = 120_000  # periodic-sensor re-registration period
    corrupt_key: bool = False

    def __post_init__(self):
        if self.behavior not in BEHAVIORS:
            raise ValueError(f"unknown behavior {self.behavior!r}")


@dataclass
class UeDevice:
    """Runtime device state: credentials plus keys learned during a run."""

    profile: UeProfile
    k_seaf: bytes | None = None
    hierarchy: KeyHierarchy | None = None
    session_slice: str | None = None
    session_services: frozenset[str] = frozenset()

    @property
    def identity(self) -> UeIdentity:
        return self.profile.identity

    def respond_to_challenge(self, rand: bytes, autn: crypto.Autn) -> bytes:
        if self.profile.usim is None:
            raise crypto.MacFailure("device has no credentials")
        return crypto.ue_verify_and_respond(self.profile.usim, rand, autn)

    def learn_hierarchy(self, k_ausf: bytes, serving_network: str) -> KeyHierarchy:
        self.hierarchy = crypto.build_hierarchy(k_ausf, serving_network,
                                                self.identity.cached_id)
        self.k_seaf = self.hierarchy.k_seaf
        return self.hierarchy

    def derive_hierarchy_from_challenge(self, rand: bytes,
                                        serving_network: str) -> KeyHierarchy:
        """Device-side chain, computed from its own root secret only."""
        if self.profile.usim is None:
            raise crypto.MacFailure("device has no credentials")
        k_ausf = crypto.derive_key(self.profile.usim.k.value, "AUSF",
                                   serving_network.encode() + rand)
        return self.learn_hierarchy(k_ausf, serving_network)

    def express_response(self, nonce: bytes) -> bytes | None:
        if self.k_seaf is None:
            return None
        return crypto.express_response_mac(self.k_seaf, self.identity.cached_id,
                                           nonce)


def cohort_arrival_times(spec: ArrivalSpec, count: int, horizon_ms: int,
                         rng: random.Random) -> list[int]:
    """One arrival time per device in the cohort, clipped to the horizon.

    Offsets are clamped before ``int()``: a tiny rate makes them infinite.
    """
    times: list[int] = []
    if spec.kind == "fixed":
        times = [spec.time_ms] * count
    elif spec.kind == "burst":
        times = [spec.time_ms] * count
        if spec.tail_rate_per_s > 0:
            t = float(spec.time_ms)
            # tail devices replace the trailing part of the burst
            tail = count // 4
            times = times[: count - tail]
            for _ in range(tail):
                t += rng.expovariate(spec.tail_rate_per_s) * 1000
                times.append(int(min(t, horizon_ms)))
    elif spec.kind == "poisson":
        t = float(spec.time_ms)
        for _ in range(count):
            t += rng.expovariate(spec.rate_per_s) * 1000
            times.append(int(min(t, horizon_ms)))
    elif spec.kind == "flood":
        times = [spec.time_ms
                 + int(min(i * 1000 / spec.rate_per_s, horizon_ms))
                 for i in range(count)]
    return [min(t, horizon_ms - 1) for t in times]


def sensor_attempt_times(first_arrival: int, period_ms: int,
                         horizon_ms: int) -> list[int]:
    """Register, transmit, disconnect, repeat: one attempt per period."""
    if period_ms <= 0:
        raise ValueError("period_ms must be > 0")
    return list(range(first_arrival, horizon_ms, period_ms))
