"""Run orchestration: single runs, cross-design comparisons, CSV emission."""

from __future__ import annotations

import io
from dataclasses import dataclass

from .metrics import MetricsReport, percentile
from .scenario import DESIGNS, ScenarioConfig
from .simulation import Population, Simulation

COMPARE_COLUMNS = ("design", "success_rate", "p95_latency_ms",
                   "total_backhaul_bytes", "audit_flags")


def run_scenario(config: ScenarioConfig, seed: int | None = None) -> MetricsReport:
    """Deterministic: the same (config, seed) yields a bit-identical report;
    a ``seed`` given overrides the config's."""
    return Simulation(config.with_overrides(seed=seed)).run()


@dataclass
class DesignComparison:
    scenario: str
    seed: int
    reports: dict[str, MetricsReport]

    def table_rows(self) -> list[dict]:
        rows = []
        for design in DESIGNS:
            report = self.reports[design]
            latencies = [r.latency_ms for r in report.rows
                         if r.outcome == "success"]
            rows.append({
                "design": design,
                "success_rate": round(report.success_rate(), 6),
                "p95_latency_ms": percentile(latencies, 0.95) if latencies else "",
                "total_backhaul_bytes":
                    report.aggregates["total_backhaul_bytes"],
                "audit_flags": ";".join(report.audit_flags),
            })
        return rows

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write(",".join(COMPARE_COLUMNS) + "\n")
        for row in self.table_rows():
            out.write(",".join(str(row[c]) for c in COMPARE_COLUMNS) + "\n")
        return out.getvalue()


def compare_designs(config: ScenarioConfig,
                    seed: int | None = None) -> DesignComparison:
    """Same workload and seed under all four designs, side by side.

    The four runs share one population: identities and root secrets are
    built once, in the first run, since no design changes them.
    """
    config = config.with_overrides(seed=seed)
    # every design's config is checked before the first run starts
    configs = {design: config.with_overrides(design=design)
               for design in DESIGNS}
    population = Population(config.ues, config.seed)
    reports = {design: Simulation(cfg, population=population).run()
               for design, cfg in configs.items()}
    return DesignComparison(scenario=config.name, seed=config.seed,
                            reports=reports)
