"""Deterministic discrete-event kernel with integer-millisecond virtual time."""

from __future__ import annotations

import heapq
import random
from typing import Callable


class Kernel:
    """Single event queue, single virtual clock, seeded random streams.

    The queue is a heap of ``(fire_time, sequence, action)``: ``action`` is a
    zero-argument callable run when the clock reaches ``fire_time``, and the
    sequence number breaks ties in scheduling order. Entities interact only by
    scheduling actions; the kernel is never shared between scenario runs.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.now = 0
        self._heap: list[tuple[int, int, Callable[[], None]]] = []
        self._seq = 0
        self._streams: dict[str, random.Random] = {}

    def schedule(self, delay: int, action: Callable[[], None]) -> int:
        """Run ``action()`` ``delay`` ms from now; returns its sequence number."""
        if delay < 0:
            raise ValueError("delay must be >= 0")
        self._seq += 1
        heapq.heappush(self._heap, (self.now + int(delay), self._seq, action))
        return self._seq

    def run_until(self, t_end: int) -> int:
        """Process every event with fire_time <= t_end; clock ends at t_end."""
        if t_end < self.now:
            raise ValueError("t_end must be >= current virtual time")
        heap = self._heap
        processed = 0
        while heap and heap[0][0] <= t_end:
            self.now, _, action = heapq.heappop(heap)
            action()
            processed += 1
        self.now = t_end
        return processed

    def discard_pending(self) -> None:
        """Drop every event still queued, releasing what the actions hold."""
        self._heap.clear()

    def stream(self, label: str) -> random.Random:
        """Independent deterministic RNG per label; same seed+label, same draws."""
        if label not in self._streams:
            # str seeding hashes via sha512, stable across platforms
            self._streams[label] = random.Random(f"{self.seed}/{label}")
        return self._streams[label]

    def pending(self) -> int:
        return len(self._heap)
