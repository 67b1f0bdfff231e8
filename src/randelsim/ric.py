"""RAN-side intelligence: deployed xApps, cache, link assessment, routing."""

from __future__ import annotations

import heapq
import random
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass

from .backhaul import BackhaulLink
from .crypto import SessionKeys

XAPP_DELAY_MIN_MS = 10
XAPP_DELAY_MAX_MS = 1000
# processing delay of each xApp on a request's path, in ms; the routing
# xApp's covers the assessor and the DoS filter, which it reads
DEFAULT_XAPP_DELAYS = {
    "routing": 10,
    "decision-cache": 15,
    "state-auth": 20,
    "session-establish": 20,
    "probationary": 20,
}
# the xApps each design deploys at the RAN; "dos-filter" and "probationary"
# run only where the scenario turns them on
DESIGN_XAPPS = {
    "baseline": (),
    "colocated": (),
    "decision-cache": ("routing", "decision-cache", "backhaul-assessor",
                       "dos-filter"),
    "logic-replication": ("routing", "decision-cache", "backhaul-assessor",
                          "dos-filter", "state-auth", "session-establish",
                          "probationary"),
}


class InvalidBudget(Exception):
    pass


@dataclass(slots=True)
class DecisionCacheEntry:
    """The core's grant to one device, cached at the RAN: the slice and
    services it admitted and the anchor's session keys, never the root.
    Both local paths open exactly this grant."""

    keys: SessionKeys
    slice_grant: str
    ttl: int
    created_at: int
    service_grant: frozenset[str] = frozenset()

    @property
    def cached_id(self) -> bytes:
        return self.keys.cached_id

    def live(self, now: int) -> bool:
        return now < self.created_at + self.ttl


class TtlCache:
    """TTL cache keyed by cached_id; earliest-expiry eviction when full.

    The victim is the entry with the least ``(expiry, cached_id)``. A heap of
    those keys sits beside the dict; only ids go in it, never entries, so a
    replaced or deleted entry is not kept alive. Items whose id is gone or
    was stored again with another expiry are stale and skipped on pop. Every
    live entry has an item with its current key, so the first item that
    matches a live entry is the least live key.
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("capacity must be > 0")
        self.capacity = capacity
        self._entries: dict[bytes, DecisionCacheEntry] = {}
        self._expiries: list[tuple[int, bytes]] = []

    def __len__(self) -> int:
        return len(self._entries)

    def store(self, entry: DecisionCacheEntry) -> None:
        if entry.ttl <= 0:
            raise ValueError("ttl must be > 0")
        entries, heap = self._entries, self._expiries
        entries[entry.cached_id] = entry
        heapq.heappush(heap, (entry.created_at + entry.ttl, entry.cached_id))
        if len(entries) > self.capacity:
            while True:
                expiry, cid = heapq.heappop(heap)
                live = entries.get(cid)
                if live is not None and live.created_at + live.ttl == expiry:
                    break
            del entries[cid]
        self._compact()

    def _compact(self) -> None:
        """Rebuild the heap from the live entries once stale items dominate."""
        if len(self._expiries) > 2 * len(self._entries):
            self._expiries = [(e.created_at + e.ttl, cid)
                              for cid, e in self._entries.items()]
            heapq.heapify(self._expiries)

    def lookup(self, cached_id: bytes, now: int) -> DecisionCacheEntry | None:
        """The entry iff live, else None; evicts an expired entry."""
        entry = self._entries.get(cached_id)
        if entry is not None and not entry.live(now):
            del self._entries[cached_id]
            self._compact()
            return None
        return entry

    def contains(self, cached_id: bytes) -> bool:
        return cached_id in self._entries


@dataclass(frozen=True)
class XAppDescriptor:
    name: str
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


class BackhaulAssessor:
    """Probe-based link assessment: reachability, EWMA RTT, and free bandwidth
    over the link's utilization window. ``last`` is the newest probe: a run
    probes at t=0 and once per interval, so it is at most an interval old."""

    EWMA_WEIGHT = 0.3  # weight on the newest sample

    def __init__(self, link: BackhaulLink, rng: random.Random,
                 probe_timeout_ms: int):
        self.link = link
        self._rng = rng
        self.probe_timeout_ms = probe_timeout_ms
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
        used = self.link.utilization(now)
        used_per_s = used * 1000 // self.link.utilization_window_ms
        available = max(0, capacity - used_per_s)
        rtt = int(round(self._ewma_rtt)) if self._ewma_rtt is not None else self.probe_timeout_ms
        self.last = BackhaulHealth(reachable=answered, measured_rtt=rtt,
                                   available_bandwidth=available)
        return self.last


class DosFilter:
    """Sliding-window triage of registrations before they touch the backhaul."""

    def __init__(self, window_ms: int, unknown_limit: int, retry_limit: int):
        self.window_ms = window_ms
        self.unknown_limit = unknown_limit
        self.retry_limit = retry_limit
        # every check inside the window (``now`` never decreases), flagged if
        # it counts toward the unknown limit, and how many of them each id
        # made; an id is dropped with its last check
        self._recent: deque[tuple[int, bytes, bool]] = deque()
        self._per_id: dict[bytes, int] = {}
        self._unknown = 0  # flagged checks: unknown, within the retry limit
        self.dropped = 0

    def check(self, cached_id: bytes, known: bool, now: int) -> bool:
        """True to pass, False to drop. Drops consume zero backhaul."""
        horizon = now - self.window_ms
        recent, per_id = self._recent, self._per_id
        while recent and recent[0][0] <= horizon:
            _, old, counted = recent.popleft()
            self._unknown -= counted
            left = per_id[old] - 1
            if left:
                per_id[old] = left
            else:
                del per_id[old]
        checks = per_id[cached_id] = per_id.get(cached_id, 0) + 1
        counted = not known and checks <= self.retry_limit
        recent.append((now, cached_id, counted))
        if checks > self.retry_limit:
            self.dropped += 1
            return False
        if counted:
            self._unknown += 1
            if self._unknown > self.unknown_limit:
                self.dropped += 1
                return False
        return True


class Ric:
    """RIC dispatcher: deployed xApps, one cache, filter, routing, audit log."""

    def __init__(self, xapps: Iterable[XAppDescriptor],
                 bandwidth_free_fraction: float,
                 assessor: BackhaulAssessor | None = None,
                 cache: TtlCache | None = None,
                 dos_filter: DosFilter | None = None):
        self.xapps = {x.name: x for x in xapps}
        self.assessor = assessor
        self.cache = cache
        self.dos_filter = dos_filter
        self.bandwidth_free_fraction = bandwidth_free_fraction
        self.known_ids: set[bytes] = set()
        self.blacklist: set[bytes] = set()
        self.access_log: list[tuple[int, str, str, str]] = []  # (t, id hex8, event, detail)
        self._nonce_counter = 0

    # -- routing -----------------------------------------------------------

    def route_registration(
            self, cached_id: bytes, express_eligible: bool, roaming: bool,
            now: int) -> tuple[str, str, DecisionCacheEntry | None]:
        """Total decision procedure: (path, reason tag, cache entry).

        The path is the CSV ``path`` value: standard, express, delegated,
        probationary, or reject (refused where it is routed). ``roaming``:
        the home network is set and not the serving one. Screens by the
        blacklist and the DoS filter, then ``choose_path``. The entry is the
        live cache entry of an express or delegated path, else None.
        """
        if cached_id in self.blacklist:
            return "reject", "blacklisted", None
        if self.dos_filter is not None and not self.dos_filter.check(
                cached_id, cached_id in self.known_ids, now):
            return "reject", "filtered", None
        return self.choose_path(cached_id, express_eligible, roaming, now)

    def choose_path(
            self, cached_id: bytes, express_eligible: bool, roaming: bool,
            now: int) -> tuple[str, str, DecisionCacheEntry | None]:
        """The path of a screened id, as ``route_registration`` returns it.
        The cache is looked up at most once, and only where an express or
        delegated path could follow. Link health is the assessor's last
        probe. Where ``state-auth`` runs, any live entry delegates."""
        entry = self.cache.lookup(cached_id, now) if express_eligible else None
        if entry is not None:
            return "express", "decision-cache-hit", entry
        health = self.assessor.last
        threshold = (self.bandwidth_free_fraction
                     * self.assessor.link.profile.bandwidth_bps)
        if health.reachable and health.available_bandwidth >= threshold:
            return "standard", "backhaul-healthy", None
        if not express_eligible and "state-auth" in self.xapps:
            entry = self.cache.lookup(cached_id, now)
        if entry is not None:
            return "delegated", "state-cache-hit", entry
        if ("probationary" in self.xapps and roaming
                and cached_id not in self.known_ids):
            return "probationary", "unknown-roamer", None
        return "reject", "no-path", None

    # -- express challenge -------------------------------------------------

    def next_nonce(self, rng: random.Random) -> bytes:
        self._nonce_counter += 1
        return self._nonce_counter.to_bytes(8, "big") + rng.randbytes(8)

    # -- audit -------------------------------------------------------------

    def log_access(self, t: int, cached_id: bytes, event: str, detail: str) -> None:
        self.access_log.append((t, cached_id.hex()[:8], event, detail))
