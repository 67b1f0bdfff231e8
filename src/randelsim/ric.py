"""RAN-side intelligence: caches, xApp registry, link assessment, routing."""

from __future__ import annotations

import dataclasses
import random
import typing
from collections import deque
from dataclasses import dataclass, field
from enum import Enum

from .backhaul import BackhaulLink
from .core import SubscriptionPolicy
from .crypto import RootSecret

XAPP_DELAY_MIN_MS = 10
XAPP_DELAY_MAX_MS = 1000


class AlreadyRegistered(Exception):
    pass


class InvalidBudget(Exception):
    pass


class RoutingDecision(Enum):
    STANDARD = "standard"
    EXPRESS = "express"
    DELEGATED = "delegated"
    PROBATIONARY = "probationary"
    REJECT = "reject"


@dataclass
class DecisionCacheEntry:
    """Cached core decisions for one device; anchor key only, never the root."""

    cached_id: bytes
    k_seaf: bytes
    control_plane_decisions: dict[str, dict[str, str]]
    data_plane_decisions: dict[str, dict[str, str]]
    ttl: int
    created_at: int

    def live(self, now: int) -> bool:
        return now < self.created_at + self.ttl

    def handles(self, request_type: str) -> bool:
        return (request_type in self.control_plane_decisions
                or request_type in self.data_plane_decisions)


@dataclass
class StateCacheEntry(DecisionCacheEntry):
    """Decision cache plus a version-stamped snapshot of core state."""

    control_plane_state: SubscriptionPolicy = None  # type: ignore[assignment]
    data_plane_state: dict[str, str] = field(default_factory=dict)
    snapshot_at: int = 0


class CacheMiss:
    def __repr__(self):
        return "MISS"


class CacheExpired:
    def __repr__(self):
        return "EXPIRED"


MISS = CacheMiss()
EXPIRED = CacheExpired()


class TtlCache:
    """TTL cache keyed by cached_id; earliest-expiry eviction when full."""

    def __init__(self, capacity: int = 10_000):
        if capacity <= 0:
            raise ValueError("capacity must be > 0")
        self.capacity = capacity
        self._entries: dict[bytes, DecisionCacheEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def store(self, entry: DecisionCacheEntry) -> None:
        if entry.ttl <= 0:
            raise ValueError("ttl must be > 0")
        self._entries[entry.cached_id] = entry
        if len(self._entries) > self.capacity:
            victim = min(self._entries.values(),
                         key=lambda e: (e.created_at + e.ttl, e.cached_id))
            del self._entries[victim.cached_id]

    def lookup(self, cached_id: bytes, request_type: str, now: int):
        """Entry iff live and the request type is cached; evicts on expiry."""
        entry = self._entries.get(cached_id)
        if entry is None:
            return MISS
        if not entry.live(now):
            del self._entries[cached_id]
            return EXPIRED
        if not entry.handles(request_type):
            return MISS
        return entry

    def contains(self, cached_id: bytes) -> bool:
        return cached_id in self._entries

    def dump(self, now: int) -> list[str]:
        lines = []
        for e in self._entries.values():
            remaining = max(0, e.created_at + e.ttl - now)
            lines.append(f"{e.cached_id.hex()} {e.k_seaf[:4].hex()} {remaining}")
        return lines


@dataclass(frozen=True)
class XAppDescriptor:
    name: str
    handles: frozenset[str]
    processing_delay: int

    def __post_init__(self):
        if not (XAPP_DELAY_MIN_MS <= self.processing_delay <= XAPP_DELAY_MAX_MS):
            raise InvalidBudget(
                f"processing_delay {self.processing_delay} outside "
                f"[{XAPP_DELAY_MIN_MS}, {XAPP_DELAY_MAX_MS}] ms")


@dataclass(frozen=True)
class BackhaulHealth:
    reachable: bool
    measured_rtt: int
    available_bandwidth: int  # bytes/s estimate
    assessed_at: int


class BackhaulAssessor:
    """Probe-based link assessment: reachability, EWMA RTT, free bandwidth."""

    EWMA_WEIGHT = 0.3  # weight on the newest sample

    def __init__(self, link: BackhaulLink, rng: random.Random,
                 probe_interval_ms: int = 1000, probe_timeout_ms: int = 2000,
                 utilization_window_ms: int = 1000):
        self.link = link
        self._rng = rng
        self.probe_interval_ms = probe_interval_ms
        self.probe_timeout_ms = probe_timeout_ms
        self.utilization_window_ms = utilization_window_ms
        self._ewma_rtt: float | None = None
        self.last: BackhaulHealth | None = None

    def assess(self, now: int) -> BackhaulHealth:
        p = self.link.profile
        jitter = self._rng.randint(-p.jitter_ms, p.jitter_ms) if p.jitter_ms else 0
        rtt_sample = 2 * p.base_latency_ms + jitter
        answered = (not p.in_outage(now)) and rtt_sample <= self.probe_timeout_ms
        if answered:
            if self._ewma_rtt is None:
                self._ewma_rtt = float(rtt_sample)
            else:
                self._ewma_rtt = (self.EWMA_WEIGHT * rtt_sample
                                  + (1 - self.EWMA_WEIGHT) * self._ewma_rtt)
        capacity = p.bandwidth_bps
        used = self.link.utilization(now, self.utilization_window_ms)
        used_per_s = used * 1000 // self.utilization_window_ms
        available = max(0, capacity - used_per_s)
        rtt = int(round(self._ewma_rtt)) if self._ewma_rtt is not None else self.probe_timeout_ms
        self.last = BackhaulHealth(reachable=answered, measured_rtt=rtt,
                                   available_bandwidth=available, assessed_at=now)
        return self.last

    def current(self, now: int) -> BackhaulHealth:
        """Latest assessment; stale assessments are unknown and redone."""
        if self.last is None or now - self.last.assessed_at > 2 * self.probe_interval_ms:
            return self.assess(now)
        return self.last


class DosFilter:
    """Sliding-window triage of registrations before they touch the backhaul."""

    def __init__(self, window_ms: int = 1000, unknown_limit: int = 50,
                 retry_limit: int = 3):
        self.window_ms = window_ms
        self.unknown_limit = unknown_limit
        self.retry_limit = retry_limit
        self._unknown_times: deque[int] = deque()
        self._per_id: dict[bytes, deque[int]] = {}
        self.dropped = 0

    def _evict(self, times: deque[int], now: int) -> None:
        while times and times[0] <= now - self.window_ms:
            times.popleft()

    def check(self, cached_id: bytes, known: bool, now: int) -> bool:
        """True to pass, False to drop. Drops consume zero backhaul."""
        per_id = self._per_id.setdefault(cached_id, deque())
        self._evict(per_id, now)
        per_id.append(now)
        if len(per_id) > self.retry_limit:
            self.dropped += 1
            return False
        if not known:
            self._evict(self._unknown_times, now)
            self._unknown_times.append(now)
            if len(self._unknown_times) > self.unknown_limit:
                self.dropped += 1
                return False
        return True


@dataclass(frozen=True)
class RegistrationRequest:
    cached_id: bytes
    suci: str
    request_type: str  # "registration" | "reauth"
    home_network: str
    serving_network: str
    express_eligible: bool
    slice_id: str
    service: str | None


class Ric:
    """RIC dispatcher: xApp registry, both caches, filter, routing, audit log."""

    def __init__(self, assessor: BackhaulAssessor | None,
                 decision_cache: TtlCache | None, state_cache: TtlCache | None,
                 dos_filter: DosFilter | None, probationary_enabled: bool,
                 bandwidth_free_fraction: float = 0.1):
        self.assessor = assessor
        self.decision_cache = decision_cache
        self.state_cache = state_cache
        self.dos_filter = dos_filter
        self.probationary_enabled = probationary_enabled
        self.bandwidth_free_fraction = bandwidth_free_fraction
        self.xapps: dict[str, XAppDescriptor] = {}
        self.known_ids: set[bytes] = set()
        self.blacklist: set[bytes] = set()
        self.access_log: list[tuple[int, str, str, str]] = []  # (t, id hex8, event, detail)
        self._nonce_counter = 0

    # -- xApps -------------------------------------------------------------

    def register_xapp(self, descriptor: XAppDescriptor) -> str:
        if descriptor.name in self.xapps:
            raise AlreadyRegistered(descriptor.name)
        self.xapps[descriptor.name] = descriptor
        return descriptor.name

    def xapp_delay(self, name: str) -> int:
        return self.xapps[name].processing_delay if name in self.xapps else 0

    # -- routing -----------------------------------------------------------

    def is_known(self, cached_id: bytes) -> bool:
        if cached_id in self.known_ids:
            return True
        for cache in (self.decision_cache, self.state_cache):
            if cache is not None and cache.contains(cached_id):
                return True
        return False

    def route_registration(
            self, request: RegistrationRequest, now: int
    ) -> tuple[RoutingDecision, str, DecisionCacheEntry | None]:
        """Total decision procedure: (decision, reason tag, cache entry).

        The entry is the live cache entry an EXPRESS or DELEGATED decision
        was made on, and None for every other decision.
        """
        known = self.is_known(request.cached_id)
        if request.cached_id in self.blacklist:
            return RoutingDecision.REJECT, "blacklisted", None
        if self.dos_filter is not None:
            if not self.dos_filter.check(request.cached_id, known, now):
                return RoutingDecision.REJECT, "filtered", None
        if request.express_eligible and self.decision_cache is not None:
            entry = self.decision_cache.lookup(request.cached_id,
                                               request.request_type, now)
            if isinstance(entry, DecisionCacheEntry):
                return RoutingDecision.EXPRESS, "decision-cache-hit", entry
        if self.assessor is not None:
            health = self.assessor.current(now)
            threshold = (self.bandwidth_free_fraction
                         * self.assessor.link.profile.bandwidth_bps)
            if health.reachable and health.available_bandwidth >= threshold:
                return RoutingDecision.STANDARD, "backhaul-healthy", None
        if self.state_cache is not None:
            entry = self.state_cache.lookup(request.cached_id,
                                            request.request_type, now)
            if isinstance(entry, StateCacheEntry):
                return RoutingDecision.DELEGATED, "state-cache-hit", entry
        unknown_roamer = (not known
                          and request.home_network != request.serving_network)
        if self.probationary_enabled and unknown_roamer:
            return RoutingDecision.PROBATIONARY, "unknown-roamer", None
        return RoutingDecision.REJECT, "no-path", None

    # -- express challenge -------------------------------------------------

    def next_nonce(self, rng: random.Random) -> bytes:
        self._nonce_counter += 1
        return self._nonce_counter.to_bytes(8, "big") + rng.randbytes(8)

    # -- audit -------------------------------------------------------------

    def log_access(self, t: int, cached_id: bytes, event: str, detail: str) -> None:
        self.access_log.append((t, cached_id.hex()[:8], event, detail))

    def dump_caches(self, now: int) -> list[str]:
        lines = []
        for name, cache in (("decision", self.decision_cache),
                            ("state", self.state_cache)):
            if cache is not None:
                lines.extend(f"{name} {line}" for line in cache.dump(now))
        return lines


def audit_type_for_root_secret(tp: type, _seen: set | None = None) -> list[str]:
    """Structural audit: dataclass field paths reaching RootSecret, if any."""
    seen = _seen if _seen is not None else set()
    if tp in seen:
        return []
    seen.add(tp)
    hits: list[str] = []
    if tp is RootSecret:
        return ["<self>"]
    if not dataclasses.is_dataclass(tp):
        return []
    try:
        hints = typing.get_type_hints(tp)
    except Exception:
        hints = {f.name: f.type for f in dataclasses.fields(tp)}
    for f in dataclasses.fields(tp):
        ftype = hints.get(f.name, f.type)
        for sub in _walk_types(ftype):
            if sub is RootSecret:
                hits.append(f.name)
            elif dataclasses.is_dataclass(sub):
                hits.extend(f"{f.name}.{h}" for h in
                            audit_type_for_root_secret(sub, seen))
    return hits


def _walk_types(tp) -> list[type]:
    args = typing.get_args(tp)
    if args:
        out = []
        for a in args:
            out.extend(_walk_types(a))
        return out
    return [tp] if isinstance(tp, type) else []
