import csv
import dataclasses
import io

import pytest
from hypothesis import given, strategies as st

from randelsim.crypto import UeIdentity
from randelsim.harness import compare_designs
from randelsim.metrics import (CSV_COLUMNS, MetricsReport, OutcomeRow,
                               aggregate, percentile)
from randelsim.ric import DecisionCacheEntry
from randelsim.scenario import DESIGNS, load_preset, preset_names
from randelsim.simulation import Attempt
from randelsim.ue import UeDevice


# The simulator builds these records with positional arguments, on its
# per-attempt path or per device, so a reordered field would silently swap
# values.
@pytest.mark.parametrize("record, names", [
    (Attempt, ("device", "request_type", "start", "deadline", "timeout_seq",
               "path", "backhaul_msgs", "backhaul_bytes")),
    (OutcomeRow, ("ue_id", "cohort", "request_type", "outcome", "path",
                  "latency_ms", "backhaul_msgs", "backhaul_bytes")),
    (UeIdentity, ("supi", "cached_id")),
    (UeDevice, ("profile", "identity", "usim", "hierarchy", "session_slice",
                "session_services")),
    (DecisionCacheEntry, ("keys", "slice_grant", "ttl", "created_at",
                          "service_grant")),
], ids=["Attempt", "OutcomeRow", "UeIdentity", "UeDevice",
        "DecisionCacheEntry"])
def test_positionally_built_record_keeps_its_field_order(record, names):
    assert tuple(f.name for f in dataclasses.fields(record)) == names


# References: the earlier aggregate, which walked the rows once per total,
# and the earlier to_csv, which wrote each row through io.StringIO.

def reference_aggregate(rows: list[OutcomeRow], dropped_by_filter: int,
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


def reference_to_csv(self) -> str:
    out = io.StringIO()
    out.write(",".join(CSV_COLUMNS) + "\n")
    for r in self.rows:
        out.write(f"{self.scenario},{self.design},{self.seed},{r.ue_id},"
                  f"{r.outcome},{r.path},{r.latency_ms},"
                  f"{r.backhaul_msgs},{r.backhaul_bytes}\n")
    return out.getvalue()


rows_strategy = st.lists(st.builds(
    OutcomeRow,
    ue_id=st.sampled_from(["a-0001", "b-0002", "c-0003"]),
    cohort=st.sampled_from(["a", "b", "c", "d"]),
    request_type=st.sampled_from(["registration", "reauth", "deferred"]),
    outcome=st.sampled_from(["success", "success", "timeout", "filtered",
                             "rejected", "mac-failure"]),
    path=st.sampled_from(["standard", "express", "delegated",
                          "probationary", "reject"]),
    latency_ms=st.integers(0, 100_000),
    backhaul_msgs=st.integers(0, 8),
    backhaul_bytes=st.integers(0, 10_000)), max_size=60)


@given(rows=rows_strategy, dropped=st.integers(0, 1000),
       flags=st.lists(st.sampled_from(["root-secret-at-edge",
                                       "k-seaf-at-edge"]), max_size=2))
def test_aggregate_matches_the_reference(rows, dropped, flags):
    assert aggregate(rows, dropped, flags) == reference_aggregate(
        rows, dropped, flags)


@given(rows=rows_strategy, seed=st.integers(0, 2**31))
def test_to_csv_matches_the_reference(rows, seed):
    report = MetricsReport("scenario-x", "decision-cache", seed, rows, 0, [])
    assert report.to_csv() == reference_to_csv(report)


@pytest.mark.parametrize("preset", preset_names())
def test_every_csv_parses_into_the_header_and_nine_fields(preset):
    reports = compare_designs(load_preset(preset)).reports
    assert tuple(reports) == DESIGNS
    for report in reports.values():
        header, *rows = csv.reader(io.StringIO(report.to_csv(), newline=""))
        assert tuple(header) == CSV_COLUMNS
        assert len(rows) == len(report.rows) > 0
        assert all(len(row) == len(CSV_COLUMNS) == 9 for row in rows)
