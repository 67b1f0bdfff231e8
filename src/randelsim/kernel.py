"""Deterministic discrete-event kernel with integer-millisecond virtual time."""

from __future__ import annotations

import heapq
import random
from typing import Callable


def seeded_stream(seed: int, label: str) -> random.Random:
    """The RNG of ``label`` under ``seed``; the same pair, the same draws."""
    # str seeding hashes via sha512, stable across platforms
    return random.Random(f"{seed}/{label}")


class Kernel:
    """Single event queue, single virtual clock, seeded random streams.

    The queue is a heap of ``(fire_time, sequence, action)``: ``action`` is a
    zero-argument callable run when the clock reaches ``fire_time``, and the
    sequence number breaks ties in scheduling order. Entities interact only by
    scheduling actions; the kernel is never shared between scenario runs.

    An action may instead ``advance`` the clock and run its next step inline
    when no queued event comes first: that step is the event the queue would
    have popped next, so the order of events is the same either way.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.now = 0
        self._heap: list[tuple[int, int, Callable[[], None]]] = []
        self._seq = 0
        # the bound of the run_until in progress; -1 outside one
        self._until = -1
        self._streams: dict[str, random.Random] = {}

    def schedule(self, delay: int, action: Callable[[], None]) -> int:
        """Run ``action()`` ``delay`` ms from now; returns its sequence number."""
        if delay < 0:
            raise ValueError("delay must be >= 0")
        self._seq += 1
        heapq.heappush(self._heap, (self.now + int(delay), self._seq, action))
        return self._seq

    def reserve(self, count: int = 1) -> int:
        """Take the next ``count`` (>= 0) sequence numbers for later
        ``schedule_at`` calls; returns the first of them."""
        first = self._seq + 1
        self._seq += count
        return first

    def schedule_at(self, when: int, seq: int,
                    action: Callable[[], None]) -> None:
        """Run ``action()`` at time ``when`` in the reserved slot ``seq``."""
        if when < self.now:
            raise ValueError("when must be >= current virtual time")
        heapq.heappush(self._heap, (when, seq, action))

    def advance(self, delay: int) -> bool:
        """Move the clock ``delay`` ms on iff nothing queued fires by then.

        True only inside ``run_until``, when ``now + delay`` is within its
        bound and every queued event fires strictly later. The caller then
        runs in place the action it would have scheduled; no sequence number
        is taken. On False the clock stays where it is.
        """
        if delay < 0:
            raise ValueError("delay must be >= 0")
        when = self.now + delay
        heap = self._heap
        if when > self._until or (heap and heap[0][0] <= when):
            return False
        self.now = when
        return True

    def run_until(self, t_end: int) -> int:
        """Process every event with fire_time <= t_end; clock ends at t_end."""
        if t_end < self.now:
            raise ValueError("t_end must be >= current virtual time")
        heap = self._heap
        processed = 0
        self._until = t_end
        try:
            while heap and heap[0][0] <= t_end:
                self.now, _, action = heapq.heappop(heap)
                action()
                processed += 1
        finally:
            self._until = -1
        self.now = t_end
        return processed

    def discard_pending(self) -> None:
        """Drop every event still queued, releasing what the actions hold."""
        self._heap.clear()

    def stream(self, label: str) -> random.Random:
        """Independent deterministic RNG per label; same seed+label, same draws."""
        if label not in self._streams:
            self._streams[label] = seeded_stream(self.seed, label)
        return self._streams[label]

    def pending(self) -> int:
        return len(self._heap)
