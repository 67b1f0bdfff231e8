"""Workload generators and one timed iteration of each workload.

The benchmark generates every scenario dict from the workload name and the
seed; randelsim only ever sees the generated dict, through its public API.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import time
from dataclasses import dataclass

from randelsim import compare_designs, run_scenario
from randelsim.metrics import CSV_COLUMNS, MetricsReport
from randelsim.scenario import DESIGNS, config_from_dict
from randelsim.simulation import Simulation

WORKLOADS = ("flood_filter", "design_sweep")
DEFAULT_SEED = 1

# A standard registration crosses the backhaul 6 times and each crossing
# serializes for at least 1 ms, so the link carries at most ~166
# registrations/s. Clients arrive over 30 s, but never faster than
# 100/s: at every size the scaling report runs, offered load stays at or
# below 60% of link capacity.
EXPRESS_ARRIVAL_WINDOW_S = 30
EXPRESS_MAX_ARRIVALS_PER_S = 100


def express_reauth(seed: int, devices: int) -> dict:
    """zta at scale, for the scaling report only.

    Poisson arrivals, passive caches, re-authentication every 10 s. The
    population stays below the default cache capacity (10,000), so no
    store evicts; the DoS filter is off. The horizon leaves every client at
    least 30 s of re-authentication after the last expected arrival.
    """
    rate = min(devices / EXPRESS_ARRIVAL_WINDOW_S, EXPRESS_MAX_ARRIVALS_PER_S)
    horizon_ms = max(60_000, int(devices / rate * 1000) + 30_000)
    return {
        "name": "express_reauth", "seed": seed, "horizon_ms": horizon_ms,
        "design": "decision-cache",
        "backhaul": {"base_latency_ms": 50, "bandwidth_bps": 1_000_000},
        "reauth_interval_ms": 10_000, "dos_filter": False,
        "ues": [{"cohort": "clients", "count": devices,
                 "behavior": "interactive", "express_eligible": True,
                 "arrival": {"kind": "poisson", "time_ms": 0,
                             "rate_per_s": rate},
                 "slice_id": "default", "service": "data",
                 "allowed_slices": ["default"],
                 "authorized_services": ["data"]}],
    }


def flood_filter(seed: int) -> dict:
    """flash_crowd at scale: distinct flooding identities against the filter."""
    return {
        "name": "flood_filter", "seed": seed, "horizon_ms": 40_000,
        "design": "decision-cache",
        "backhaul": {"base_latency_ms": 40, "bandwidth_bps": 262_144},
        "request_timeout_ms": 3000, "reauth_interval_ms": 60_000,
        "dos_filter": True,
        "thresholds": {"probe_interval_ms": 200},
        "prewarm": [{"cohort": "legit"}],
        "ues": [{"cohort": "legit", "count": 200, "behavior": "interactive",
                 "arrival": {"kind": "poisson", "time_ms": 0,
                             "rate_per_s": 30},
                 "service": "data"},
                {"cohort": "attackers", "count": 10_000,
                 "behavior": "attacker-flood",
                 "arrival": {"kind": "flood", "time_ms": 0,
                             "rate_per_s": 2000}}],
    }


def design_sweep(seed: int) -> dict:
    """ntn-derived mix for compare_designs.

    The cache holds fewer entries than the prewarmed sensors, so stores
    evict; roamers keep arriving through the backhaul outage, so the
    probationary and deferred flows run under logic-replication.
    """
    return {
        "name": "design_sweep", "seed": seed, "horizon_ms": 60_000,
        "design": "decision-cache",
        "backhaul": {"base_latency_ms": 600, "bandwidth_bps": 2_000_000,
                     "outages": [[30_000, 40_000]]},
        "home_backhaul": {"base_latency_ms": 80, "bandwidth_bps": 1_000_000},
        "reauth_interval_ms": 30_000, "cache_capacity": 190,
        "probationary": {"enabled": True},
        "prewarm": [{"cohort": "sensors"}],
        "ues": [{"cohort": "sensors", "count": 250,
                 "behavior": "periodic-sensor", "express_eligible": True,
                 "period_ms": 20_000,
                 "arrival": {"kind": "poisson", "time_ms": 0,
                             "rate_per_s": 25},
                 "slice_id": "edge", "service": "edge-data",
                 "allowed_slices": ["edge", "default"],
                 "authorized_services": ["edge-data", "data"]},
                {"cohort": "users", "count": 50, "behavior": "interactive",
                 "arrival": {"kind": "poisson", "time_ms": 1000,
                             "rate_per_s": 2},
                 "service": "data"},
                {"cohort": "roamers", "count": 15, "behavior": "roamer",
                 "home_network": "net-home",
                 "arrival": {"kind": "poisson", "time_ms": 1000,
                             "rate_per_s": 0.3},
                 "service": "data",
                 "authorized_services": ["data", "messaging"]}],
    }


GENERATORS = {"flood_filter": flood_filter, "design_sweep": design_sweep}


def scenario(workload: str, seed: int) -> dict:
    return GENERATORS[workload](seed)


class SetupClock:
    """Accumulates the host time spent inside ``Simulation(...)``.

    Patching the class catches every construction, including the four that
    ``compare_designs`` makes on its own.
    """

    def __init__(self):
        self.elapsed = 0.0

    def take(self) -> float:
        elapsed, self.elapsed = self.elapsed, 0.0
        return elapsed

    @contextlib.contextmanager
    def installed(self):
        original = Simulation.__dict__["__init__"]

        def timed_init(sim, *args, **kwargs):
            start = time.perf_counter()
            try:
                original(sim, *args, **kwargs)
            finally:
                self.elapsed += time.perf_counter() - start

        Simulation.__init__ = timed_init
        try:
            yield self
        finally:
            Simulation.__init__ = original


@dataclass
class Iteration:
    wall_s: float
    setup_s: float
    reports: list[MetricsReport]
    texts: list[str]  # every CSV the iteration emitted

    @property
    def attempts(self) -> int:
        return sum(len(r.rows) for r in self.reports)

    def digest(self) -> str:
        h = hashlib.sha256()
        for report in self.reports:
            h.update(json.dumps(report.aggregates, sort_keys=True,
                                separators=(",", ":")).encode())
            h.update(b"\x00")
        for text in self.texts:
            h.update(text.encode())
            h.update(b"\x00")
        return h.hexdigest()


def iterate(workload: str, doc: dict, setup_clock: SetupClock) -> Iteration:
    """One pass: scenario dict -> config -> run(s) -> aggregates -> CSV.

    ``doc`` is handed to randelsim as is; pass a fresh copy each time.
    """
    setup_clock.take()
    start = time.perf_counter()
    config = config_from_dict(doc)
    parsed = time.perf_counter()
    if workload == "design_sweep":
        comparison = compare_designs(config)
        reports = [comparison.reports[d] for d in DESIGNS]
        texts = [r.to_csv() for r in reports] + [comparison.to_csv()]
    else:
        reports = [run_scenario(config)]
        texts = [reports[0].to_csv()]
    end = time.perf_counter()
    return Iteration(wall_s=end - start,
                     setup_s=(parsed - start) + setup_clock.take(),
                     reports=reports, texts=texts)


def invariant_errors(it: Iteration) -> list[str]:
    """Checks that hold for any seed; used where no digest is pinned."""
    errors = []
    header = ",".join(CSV_COLUMNS)
    for report, text in zip(it.reports, it.texts):
        lines = text.splitlines()
        where = f"{report.scenario}/{report.design}"
        if not lines or lines[0] != header:
            errors.append(f"{where}: CSV header is not CSV_COLUMNS")
        if len(lines) - 1 != len(report.rows):
            errors.append(f"{where}: {len(lines) - 1} CSV rows for "
                          f"{len(report.rows)} attempts")
        if report.aggregates.get("attempts") != len(report.rows):
            errors.append(f"{where}: aggregates count "
                          f"{report.aggregates.get('attempts')} attempts, "
                          f"rows {len(report.rows)}")
        if report.aggregates != report.recompute_aggregates():
            errors.append(f"{where}: aggregates differ from "
                          "recompute_aggregates()")
    return errors
