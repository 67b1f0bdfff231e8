"""UE state and workload generation: registrants, sensors, roamers, attackers."""

from __future__ import annotations

import random
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import repeat

from . import crypto
from .crypto import SessionKeys, UeIdentity, UsimState

BEHAVIORS = ("interactive", "periodic-sensor", "roamer", "attacker-flood")
ARRIVAL_KINDS = ("fixed", "poisson", "flood")


@dataclass(frozen=True)
class ArrivalSpec:
    """When a device (or each device of a cohort) first shows up.

    kinds:
      fixed   - every device arrives at time_ms (a flash crowd)
      poisson - devices arrive with exponential inter-arrival gaps at
                rate_per_s starting from time_ms
      flood   - count requests evenly spaced at rate_per_s from time_ms
    """

    kind: str
    time_ms: int = field(default=0, metadata={"min": 0})
    rate_per_s: float = field(default=0.0, metadata={"min": 0})

    def __post_init__(self):
        if self.kind not in ARRIVAL_KINDS:
            raise ValueError(f"kind {self.kind!r} is not one of {ARRIVAL_KINDS}")
        if self.kind in ("poisson", "flood") and self.rate_per_s <= 0:
            raise ValueError(f"rate_per_s must be > 0 for {self.kind} arrivals")


@dataclass(frozen=True, slots=True)
class UeCohortSpec:
    """One cohort of a scenario; its devices share this object."""

    cohort: str
    count: int = field(metadata={"min": 1})
    behavior: str
    arrival: ArrivalSpec
    express_eligible: bool = False
    home_network: str | None = None  # None means the serving network
    slice_id: str = "default"
    service: str | None = None
    # periodic-sensor re-registration period
    period_ms: int = field(default=120_000, metadata={"min": 1})
    allowed_slices: tuple[str, ...] = ("default",)
    authorized_services: tuple[str, ...] = ("data",)
    corrupt_key: bool = False

    def __post_init__(self):
        if self.behavior not in BEHAVIORS:
            raise ValueError(f"behavior {self.behavior!r} is not one of "
                             f"{BEHAVIORS}")
        if not self.allowed_slices:
            raise ValueError("allowed_slices must be nonempty")


@dataclass(slots=True)
class UeDevice:
    """Runtime device state: credentials plus keys learned during a run."""

    profile: UeCohortSpec
    identity: UeIdentity
    usim: UsimState | None  # attackers: no subscription, no credentials
    hierarchy: SessionKeys | None = None
    session_slice: str | None = None
    session_services: frozenset[str] = frozenset()

    def respond_to_challenge(self, rand: bytes, autn: crypto.Autn) -> bytes:
        if self.usim is None:
            raise crypto.MacFailure("device has no credentials")
        return crypto.ue_verify_and_respond(self.usim, rand, autn)

    def learn_hierarchy(self, k_ausf: bytes, serving_network: str) -> SessionKeys:
        self.hierarchy = crypto.build_hierarchy(k_ausf, serving_network,
                                                self.identity.cached_id)
        return self.hierarchy

    def derive_hierarchy_from_challenge(self, rand: bytes,
                                        serving_network: str) -> SessionKeys:
        """Device-side chain, computed from its own root secret only."""
        if self.usim is None:
            raise crypto.MacFailure("device has no credentials")
        k_ausf = crypto.derive_k_ausf(self.usim.k.hmac_key, serving_network,
                                      rand)
        return self.learn_hierarchy(k_ausf, serving_network)

    def open_session(self, slice_id: str, services: frozenset[str]) -> bool:
        """Hold a session on ``slice_id``; True iff the device held none."""
        opened = self.session_slice is None
        self.session_slice = slice_id
        self.session_services = services
        return opened

    def end_session(self) -> None:
        self.session_slice = None
        self.session_services = frozenset()

    def express_response(self, nonce: bytes) -> bytes | None:
        """MAC under the K_NAS of the current anchor; None without one."""
        if self.hierarchy is None:
            return None
        return crypto.express_mac(self.hierarchy.k_nas, nonce)


def cohort_arrival_times(spec: ArrivalSpec, count: int, horizon_ms: int,
                         rng: random.Random) -> Iterator[int]:
    """One arrival time per device in the cohort, clipped to the horizon.

    Nondecreasing, and drawn as they are read. Only an offset inside the
    horizon reaches ``int()``: a tiny rate makes offsets infinite.
    """
    last = horizon_ms - 1
    t0, rate = spec.time_ms, spec.rate_per_s
    if spec.kind == "fixed":
        return repeat(min(t0, last), count)
    if spec.kind == "flood":  # evenly spaced
        return (t0 + int(x) if (x := i * 1000 / rate) < last - t0 else last
                for i in range(count))

    def poisson():
        t = float(t0)
        for _ in range(count):
            t += rng.expovariate(rate) * 1000
            yield int(t) if t < last else last
    return poisson()
