"""Digest gate for the security paths that no pinned preset runs.

One scenario under ``compare_designs`` at seeds 1-3, hashed as the
benchmark hashes a ``design_sweep`` iteration (``Iteration(...).digest()``
in ``perfbench/workloads.py``): each design's aggregates and CSV, then the
comparison CSV. Under a lossy backhaul with an outage, the DoS filter and
probation on, it reaches:

- a session the core rejects (``SESSION_REJECT``) and the prewarm that
  caches nothing for the same devices, whose slice is not allowed;
- a device whose USIM holds another K: it fails the core's challenge, and
  prewarmed, the RAN's local one;
- a prewarmed entry that expires during an express challenge, so the
  attempt is routed again, and one that a lookup finds expired;
- roamers admitted on probation in the outage, whose deferred auth then
  fails, so they are terminated and blacklisted, and refused after;
- sensors dropped by the per-id retry limit, flooders dropped as unknown,
  heap compaction in the RAN cache and messages the link loses.

``AUTH_REJECT`` and a sync failure are not reached. A device answers a
challenge only once it has verified the MAC, which takes the home K, so
its RES always equals XRES; and here no attempt's challenge overtakes a
later one's, so every vector carries a fresher SQN than the device has
seen.
"""

import pytest

from randelsim import compare_designs
from randelsim.scenario import DESIGNS, config_from_dict


def sensors(cohort: str, count: int, **fields) -> dict:
    return {"cohort": cohort, "count": count, "behavior": "periodic-sensor",
            **fields}


SCENARIO = {
    "name": "adversarial", "seed": 1, "horizon_ms": 60_000,
    "design": "logic-replication",
    "backhaul": {"base_latency_ms": 40, "bandwidth_bps": 1_000_000,
                 "jitter_ms": 10, "loss_probability": 0.05,
                 "outages": [[10_000, 25_000]]},
    "home_backhaul": {"base_latency_ms": 60, "bandwidth_bps": 1_000_000},
    "reauth_interval_ms": 15_000, "request_timeout_ms": 4_000,
    "dos_filter": True,
    "thresholds": {"dos_retry_limit": 2, "probe_interval_ms": 500},
    "probationary": {"enabled": True},
    "prewarm": [{"cohort": "sensors", "ttl_ms": 12_010},
                {"cohort": "bad-sensors", "ttl_ms": 12_010},
                {"cohort": "intruders"}],
    "ues": [
        {"cohort": "users", "count": 20, "behavior": "interactive",
         "arrival": {"kind": "fixed", "time_ms": 1_000}, "service": "data"},
        {"cohort": "bad-users", "count": 5, "behavior": "interactive",
         "arrival": {"kind": "fixed", "time_ms": 2_000}, "service": "data",
         "corrupt_key": True},
        {"cohort": "bad-roamers", "count": 4, "behavior": "interactive",
         "home_network": "net-home",
         "arrival": {"kind": "fixed", "time_ms": 12_000}, "service": "data",
         "corrupt_key": True},
        {"cohort": "roamers", "count": 4, "behavior": "interactive",
         "home_network": "net-home",
         "arrival": {"kind": "fixed", "time_ms": 12_000}, "service": "data"},
        # the first one's third attempt starts 10 ms before its entry expires
        sensors("sensors", 30, express_eligible=True, period_ms=6_000,
                arrival={"kind": "flood", "time_ms": 0, "rate_per_s": 5}),
        sensors("bad-sensors", 3, express_eligible=True, period_ms=6_000,
                arrival={"kind": "fixed", "time_ms": 3_000},
                corrupt_key=True),
        sensors("bad-roaming-sensors", 3, home_network="net-home",
                period_ms=6_000, arrival={"kind": "fixed", "time_ms": 11_000},
                corrupt_key=True),
        # four attempts a second against a retry limit of two
        sensors("chatty-sensors", 2, period_ms=300,
                arrival={"kind": "fixed", "time_ms": 500}),
        {"cohort": "intruders", "count": 3, "behavior": "interactive",
         "arrival": {"kind": "fixed", "time_ms": 4_000},
         "slice_id": "secret", "service": "data"},
        {"cohort": "attackers", "count": 300, "behavior": "attacker-flood",
         "arrival": {"kind": "flood", "time_ms": 26_000, "rate_per_s": 100}},
    ],
}

PINNED = {
    1: "d82146d172088d92430b0cba25300fbb381c19d9522a6108175a5e1cb7da6eff",
    2: "3dd75f7bbf4d4088aef8dfa20b1c2c740bda90ffb372d59731c3307e1f2c224f",
    3: "ec299acd98d166b2a8702c125bf8e455d0a5e88ebf480c0a437a3fa07aa9832c",
}

# (outcome, path) pairs each design's run must hold at every seed
EXPECTED = {
    "baseline": {("policy-denied", "standard"), ("mac-failure", "standard")},
    "colocated": {("policy-denied", "standard"), ("mac-failure", "standard")},
    "decision-cache": {("policy-denied", "standard"),
                       ("mac-failure", "standard"), ("filtered", "reject"),
                       ("rejected", "express")},
    "logic-replication": {("policy-denied", "standard"),
                          ("mac-failure", "standard"), ("filtered", "reject"),
                          ("rejected", "express"), ("success", "delegated"),
                          ("success", "probationary")},
}


@pytest.fixture(scope="module")
def comparisons():
    config = config_from_dict(SCENARIO)
    return {seed: compare_designs(config, seed=seed) for seed in PINNED}


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_comparison_matches_its_pinned_digest(workloads, comparisons, seed):
    comparison = comparisons[seed]
    reports = [comparison.reports[d] for d in DESIGNS]
    texts = [r.to_csv() for r in reports] + [comparison.to_csv()]
    it = workloads.Iteration(0.0, 0.0, reports, texts)
    assert it.digest() == PINNED[seed]


@pytest.mark.parametrize("seed", sorted(PINNED))
@pytest.mark.parametrize("design", DESIGNS)
def test_security_outcomes_are_present(comparisons, seed, design):
    rows = comparisons[seed].reports[design].rows
    assert EXPECTED[design] <= {(r.outcome, r.path) for r in rows}
