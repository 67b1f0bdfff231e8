"""Per-attempt outcome rows and aggregated per-scenario reporting."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

CSV_COLUMNS = ("scenario", "design", "seed", "ue_id", "outcome", "path",
               "latency_ms", "backhaul_msgs", "backhaul_bytes")


@dataclass(slots=True)
class OutcomeRow:
    ue_id: str
    cohort: str
    request_type: str
    outcome: str
    path: str
    latency_ms: int
    backhaul_msgs: int
    backhaul_bytes: int


def percentile(values: list[int], q: float) -> int:
    """Nearest-rank percentile over a nonempty list."""
    if not values:
        raise ValueError("percentile of empty list")
    ordered = sorted(values)
    idx = math.ceil(q * len(ordered)) - 1
    return ordered[min(len(ordered) - 1, max(0, idx))]


def aggregate(rows: list[OutcomeRow], dropped_by_filter: int,
              audit_flags: list[str]) -> dict:
    """A run's aggregates, counted in one pass over its rows."""
    tries: dict[str, list[int]] = {}  # cohort -> [attempts, successes]
    by_path: dict[str, list[int]] = {}  # path -> success latencies
    msgs = size = 0
    for row in rows:
        counts = tries.get(row.cohort)
        if counts is None:
            counts = tries[row.cohort] = [0, 0]
        counts[0] += 1
        if row.outcome == "success":
            counts[1] += 1
            by_path.setdefault(row.path, []).append(row.latency_ms)
        msgs += row.backhaul_msgs
        size += row.backhaul_bytes
    success_rate = {cohort: successes / attempts
                    for cohort, (attempts, successes) in sorted(tries.items())}
    latency = {
        path: {"p50": percentile(vals, 0.50), "p95": percentile(vals, 0.95)}
        for path, vals in sorted(by_path.items())
    }
    return {
        "attempts": len(rows),
        "success_rate_by_cohort": success_rate,
        "latency_by_path": latency,
        "total_backhaul_msgs": msgs,
        "total_backhaul_bytes": size,
        "dropped_by_filter": dropped_by_filter,
        "security_audit_flags": sorted(audit_flags),
    }


@dataclass
class MetricsReport:
    scenario: str
    design: str
    seed: int
    rows: list[OutcomeRow]
    dropped_by_filter: int
    audit_flags: list[str]
    aggregates: dict = field(init=False)

    def __post_init__(self):
        self.aggregates = self.recompute_aggregates()

    def recompute_aggregates(self) -> dict:
        return aggregate(self.rows, self.dropped_by_filter, self.audit_flags)

    def to_csv(self) -> str:
        prefix = f"{self.scenario},{self.design},{self.seed},"
        return "".join([",".join(CSV_COLUMNS) + "\n", *(
            f"{prefix}{r.ue_id},{r.outcome},{r.path},{r.latency_ms},"
            f"{r.backhaul_msgs},{r.backhaul_bytes}\n" for r in self.rows)])

    def success_rate(self, cohort: str | None = None) -> float:
        rows = [r for r in self.rows if cohort is None or r.cohort == cohort]
        if not rows:
            return 0.0
        return sum(1 for r in rows if r.outcome == "success") / len(rows)
