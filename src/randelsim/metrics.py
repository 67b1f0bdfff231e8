"""Per-attempt outcome rows and aggregated per-scenario reporting."""

from __future__ import annotations

import io
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
    by_cohort: dict[str, list[OutcomeRow]] = {}
    by_path: dict[str, list[int]] = {}
    for row in rows:
        by_cohort.setdefault(row.cohort, []).append(row)
        if row.outcome == "success":
            by_path.setdefault(row.path, []).append(row.latency_ms)
    success_rate = {
        cohort: sum(1 for r in rs if r.outcome == "success") / len(rs)
        for cohort, rs in sorted(by_cohort.items())
    }
    latency = {
        path: {"p50": percentile(vals, 0.50), "p95": percentile(vals, 0.95)}
        for path, vals in sorted(by_path.items())
    }
    return {
        "attempts": len(rows),
        "success_rate_by_cohort": success_rate,
        "latency_by_path": latency,
        "total_backhaul_msgs": sum(r.backhaul_msgs for r in rows),
        "total_backhaul_bytes": sum(r.backhaul_bytes for r in rows),
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
        out = io.StringIO()
        out.write(",".join(CSV_COLUMNS) + "\n")
        for r in self.rows:
            out.write(f"{self.scenario},{self.design},{self.seed},{r.ue_id},"
                      f"{r.outcome},{r.path},{r.latency_ms},"
                      f"{r.backhaul_msgs},{r.backhaul_bytes}\n")
        return out.getvalue()

    def success_rate(self, cohort: str | None = None) -> float:
        rows = [r for r in self.rows if cohort is None or r.cohort == cohort]
        if not rows:
            return 0.0
        return sum(1 for r in rows if r.outcome == "success") / len(rows)
