"""RAN-to-core link model: latency, FIFO serialization, loss, outages."""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from operator import itemgetter

_start = itemgetter(0)


@dataclass
class BackhaulProfile:
    base_latency_ms: int
    bandwidth_bps: int
    jitter_ms: int = 0
    loss_probability: float = 0.0
    outages: list[tuple[int, int]] = field(default_factory=list)

    def __post_init__(self):
        if self.bandwidth_bps <= 0:
            raise ValueError("bandwidth_bps must be > 0")
        if self.base_latency_ms < 0:
            raise ValueError("base_latency_ms must be >= 0")
        if self.jitter_ms < 0:
            raise ValueError("jitter_ms must be >= 0")
        if self.jitter_ms > self.base_latency_ms:
            # otherwise a delivery could land before its send
            raise ValueError("jitter_ms must be <= base_latency_ms")
        if not 0.0 <= self.loss_probability <= 1.0:
            raise ValueError("loss_probability must be within [0, 1]")
        prev_end = None
        for iv in self.outages:
            if len(iv) != 2 or iv[0] >= iv[1]:
                raise ValueError("outages: each interval must be [start, end) with start < end")
            if prev_end is not None and iv[0] < prev_end:
                raise ValueError("outages: intervals must be disjoint and sorted")
            prev_end = iv[1]

    def in_outage(self, t: int) -> bool:
        """True iff ``t`` lies in an outage. Outages are sorted and disjoint,
        as ``__post_init__`` checks, so only the last one that starts at or
        before ``t`` can hold it; a bisect over the starts finds it."""
        outages = self.outages
        i = bisect_right(outages, t, key=_start)
        return i > 0 and t < outages[i - 1][1]


class BackhaulLink:
    """Half-duplex FIFO link.

    A link built with a utilization window keeps the sends of the last
    window and their byte total, which is all ``utilization`` reads; one
    built without keeps none.
    """

    def __init__(self, profile: BackhaulProfile, rng: random.Random,
                 utilization_window_ms: int | None = None):
        if utilization_window_ms is not None and utilization_window_ms <= 0:
            raise ValueError("utilization_window_ms must be > 0")
        self.profile = profile
        self._rng = rng
        self._busy_until = 0
        self.utilization_window_ms = utilization_window_ms
        self._send_log: deque[tuple[int, int]] = deque()  # (time, bytes)
        self._logged_bytes = 0  # the sum of the log's bytes

    def serialization_ms(self, size: int) -> int:
        return math.ceil(size * 1000 / self.profile.bandwidth_bps)

    def transmit(self, size: int, at: int) -> int | None:
        """Return the delivery time, or None if the message is lost."""
        window = self.utilization_window_ms
        if window is not None:
            self._trim(at - window)
            self._send_log.append((at, size))
            self._logged_bytes += size
        p = self.profile
        if p.in_outage(at):
            return None
        if p.loss_probability > 0 and self._rng.random() < p.loss_probability:
            return None
        start = max(at, self._busy_until)
        self._busy_until = start + self.serialization_ms(size)
        jitter = self._rng.randint(-p.jitter_ms, p.jitter_ms) if p.jitter_ms else 0
        delivery = self._busy_until + p.base_latency_ms + jitter
        # a message in flight when the link goes down is lost with it
        if p.in_outage(delivery):
            return None
        return delivery

    def utilization(self, now: int) -> int:
        """Bytes sent within [now - window, now]; no send is after ``now``,
        since virtual time never decreases."""
        window = self.utilization_window_ms
        if window is None:
            raise ValueError("link was built without a utilization window")
        self._trim(now - window)
        return self._logged_bytes

    def _trim(self, oldest: int) -> None:
        """Drop the sends made before ``oldest``."""
        log = self._send_log
        while log and log[0][0] < oldest:
            self._logged_bytes -= log.popleft()[1]
