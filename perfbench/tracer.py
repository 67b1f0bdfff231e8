"""Span tracer that wraps randelsim's public functions from the outside.

Each traced function is replaced, for the duration of ``Tracer.installed()``,
by a wrapper that opens a span on entry and closes it on exit. The name is
patched where callers look it up: methods on their class, module functions
in their module (``randelsim.crypto.prf`` is what every crypto helper and
``simulation.py`` call through ``crypto.prf``).

A closed span is folded at once into per-name totals (calls, total time,
self time) instead of being kept: one iteration opens well over a hundred
thousand spans. The parent of a span is the span below it on the stack; its
self time is its duration minus the durations of its direct children, so the
self times of all spans in one iteration sum to the root span's duration.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass
from typing import Any, Callable

from randelsim import crypto, metrics
from randelsim.backhaul import BackhaulLink, BackhaulProfile
from randelsim.core import CoreNetwork
from randelsim.kernel import Kernel
from randelsim.metrics import MetricsReport
from randelsim.ric import (BackhaulAssessor, DecisionCacheEntry, DosFilter,
                           Ric, TtlCache)
from randelsim.simulation import Simulation

ROOT_SPAN = "bench.iteration"


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        # counts observed at the span boundaries, alongside the spans
        self.counts: dict[str, int] = {}
        self._stack: list[list[float]] = [[0.0]]

    def reset(self) -> None:
        for s in self.stats.values():
            s.calls, s.total_s, s.self_s = 0, 0.0, 0.0
        self.counts.clear()
        self._stack[:] = [[0.0]]

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name: str, fn: Callable,
             before: Callable[..., Any] | None = None,
             after: Callable[..., None] | None = None) -> Callable:
        """``fn`` with a span around it.

        ``before(*args)`` and ``after(token, result, *args)`` run outside the
        timed interval, so the bookkeeping they do is charged to the parent.
        """
        stat = self.stats.setdefault(name, SpanStats())
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            token = before(*args) if before is not None else None
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stack[-1][0] += duration
                stat.calls += 1
                stat.total_s += duration
                stat.self_s += duration - frame[0]
            if after is not None:
                after(token, result, *args)
            return result

        return traced

    def self_time_sum(self) -> float:
        return sum(s.self_s for s in self.stats.values())

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced name; restore the originals on exit."""
        patches = self._patches()
        originals = [(owner, attr, owner.__dict__[attr])
                     for owner, attr, _ in patches]
        try:
            for owner, attr, replacement in patches:
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    def _patches(self) -> list[tuple[Any, str, Callable]]:
        count = self.count

        def run_until_after(_, processed, kernel, *rest):
            count("kernel.events", processed)
            count("kernel.pending_at_end", kernel.pending())

        def lookup_after(_, result, *rest):
            if isinstance(result, DecisionCacheEntry):
                count("ric.cache_hits")

        def store_before(cache, entry):
            return len(cache), cache.contains(entry.cached_id)

        def store_after(token, _, cache, entry):
            size, present = token
            if not present and len(cache) == size:
                count("ric.cache_evictions")

        def dos_after(_, passed, *rest):
            if not passed:
                count("ric.dos_drops")

        def session_after(*_):
            count("core.sessions")

        def transmit_after(_, delivery, *rest):
            if delivery is None:
                count("backhaul.lost")

        w = self.wrap
        return [
            (Kernel, "schedule", w("kernel.schedule", Kernel.schedule)),
            (Kernel, "run_until", w("kernel.run_until", Kernel.run_until,
                                    after=run_until_after)),
            (crypto, "prf", w("crypto.prf", crypto.prf)),
            (crypto, "express_response_mac",
             w("crypto.express_mac", crypto.express_response_mac)),
            (crypto, "build_hierarchy",
             w("crypto.build_hierarchy", crypto.build_hierarchy)),
            (crypto, "generate_av", w("crypto.generate_av", crypto.generate_av)),
            (crypto, "conceal_identity",
             w("crypto.conceal_identity", crypto.conceal_identity)),
            (Simulation, "__init__", w("simulation.setup", Simulation.__init__)),
            (Simulation, "run", w("simulation.run", Simulation.run)),
            (TtlCache, "store", w("ric.cache_store", TtlCache.store,
                                  before=store_before, after=store_after)),
            (TtlCache, "lookup", w("ric.cache_lookup", TtlCache.lookup,
                                   after=lookup_after)),
            (Ric, "route_registration",
             w("ric.route", Ric.route_registration)),
            (DosFilter, "check", w("ric.dos_check", DosFilter.check,
                                   after=dos_after)),
            (BackhaulAssessor, "assess", w("ric.assess", BackhaulAssessor.assess)),
            (BackhaulLink, "utilization",
             w("backhaul.utilization", BackhaulLink.utilization)),
            (BackhaulLink, "transmit", w("backhaul.transmit",
                                         BackhaulLink.transmit,
                                         after=transmit_after)),
            (BackhaulProfile, "in_outage",
             w("backhaul.in_outage", BackhaulProfile.in_outage)),
            (CoreNetwork, "select_nf", w("core.select_nf", CoreNetwork.select_nf)),
            (CoreNetwork, "establish_session",
             w("core.establish_session", CoreNetwork.establish_session,
               after=session_after)),
            (CoreNetwork, "log", w("core.log", CoreNetwork.log)),
            (metrics, "aggregate", w("metrics.aggregate", metrics.aggregate)),
            (MetricsReport, "to_csv", w("metrics.to_csv", MetricsReport.to_csv)),
        ]

    def layer_metrics(self, attempts: int) -> dict[str, float]:
        """Per-layer values of one traced iteration, named as in BENCHMARK.json."""
        def st(name: str) -> SpanStats:
            return self.stats.get(name, SpanStats())

        c = self.counts.get
        lookups = st("ric.cache_lookup").calls
        dos_checks = st("ric.dos_check").calls
        transmits = st("backhaul.transmit").calls
        run_until = st("kernel.run_until")
        return {
            "kernel.events": c("kernel.events", 0),
            "kernel.scheduled": st("kernel.schedule").calls,
            "kernel.pending_at_end": c("kernel.pending_at_end", 0),
            "kernel.events_per_s": (c("kernel.events", 0) / run_until.total_s
                                    if run_until.total_s else 0.0),
            "kernel.self_s": run_until.self_s,
            "kernel.schedule_s": st("kernel.schedule").total_s,
            "crypto.prf_calls": st("crypto.prf").calls,
            "crypto.prf_per_attempt": st("crypto.prf").calls / attempts,
            "crypto.prf_s": st("crypto.prf").total_s,
            "crypto.express_mac_calls": st("crypto.express_mac").calls,
            "crypto.express_mac_self_s": st("crypto.express_mac").self_s,
            "crypto.build_hierarchy_self_s": st("crypto.build_hierarchy").self_s,
            "crypto.generate_av_calls": st("crypto.generate_av").calls,
            "crypto.generate_av_self_s": st("crypto.generate_av").self_s,
            "crypto.conceal_identity_s": st("crypto.conceal_identity").total_s,
            "simulation.setup_self_s": st("simulation.setup").self_s,
            "simulation.run_self_s": st("simulation.run").self_s,
            "ric.cache_stores": st("ric.cache_store").calls,
            "ric.cache_evictions": c("ric.cache_evictions", 0),
            "ric.cache_store_s": st("ric.cache_store").total_s,
            "ric.cache_lookups_per_attempt": lookups / attempts,
            "ric.cache_hit_ratio": (c("ric.cache_hits", 0) / lookups
                                    if lookups else 0.0),
            "ric.cache_lookup_s": st("ric.cache_lookup").total_s,
            "ric.route_calls": st("ric.route").calls,
            "ric.route_self_s": st("ric.route").self_s,
            "ric.dos_checks": dos_checks,
            "ric.dos_drop_ratio": (c("ric.dos_drops", 0) / dos_checks
                                   if dos_checks else 0.0),
            "ric.dos_check_s": st("ric.dos_check").total_s,
            "ric.assess_calls": st("ric.assess").calls,
            "ric.assess_self_s": st("ric.assess").self_s,
            "backhaul.utilization_calls": st("backhaul.utilization").calls,
            "backhaul.utilization_s": st("backhaul.utilization").total_s,
            "backhaul.transmits": transmits,
            "backhaul.loss_ratio": (c("backhaul.lost", 0) / transmits
                                    if transmits else 0.0),
            "backhaul.transmit_self_s": st("backhaul.transmit").self_s,
            "backhaul.in_outage_calls": st("backhaul.in_outage").calls,
            "backhaul.in_outage_s": st("backhaul.in_outage").total_s,
            "core.select_nf_calls": st("core.select_nf").calls,
            "core.select_nf_s": st("core.select_nf").total_s,
            "core.sessions": c("core.sessions", 0),
            "core.log_lines": st("core.log").calls,
            "core.log_s": st("core.log").total_s,
            "metrics.aggregate_s": st("metrics.aggregate").total_s,
            "metrics.to_csv_s": st("metrics.to_csv").total_s,
        }
