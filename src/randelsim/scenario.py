"""Scenario configuration: JSON loading, validation, bundled presets."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

from .backhaul import BackhaulProfile
from .ric import InvalidBudget, XAppDescriptor
from .ue import ArrivalSpec

DESIGNS = ("baseline", "colocated", "decision-cache", "logic-replication")

DEFAULT_MESSAGE_BYTES = 512
DEFAULT_TTL_MS = 3_600_000  # Table-style 60:00 m
DEFAULT_CACHE_CAPACITY = 10_000


class ScenarioError(Exception):
    """Validation failure; the message names the offending field."""

    def __init__(self, fieldname: str, message: str):
        self.fieldname = fieldname
        super().__init__(f"{fieldname}: {message}")


@dataclass
class Thresholds:
    dos_window_ms: int = 1000
    dos_unknown_per_window: int = 50
    dos_retry_limit: int = 3
    bandwidth_free_fraction: float = 0.1
    probe_interval_ms: int = 1000
    probe_timeout_ms: int = 2000
    utilization_window_ms: int = 1000


@dataclass
class ProbationaryPolicy:
    enabled: bool = False
    slice_id: str = "probation"
    services: tuple[str, ...] = ("messaging",)


@dataclass
class UeCohortSpec:
    cohort: str
    count: int
    behavior: str
    arrival: ArrivalSpec
    express_eligible: bool = False
    home_network: str | None = None  # None means the serving network
    slice_id: str = "default"
    service: str | None = None
    period_ms: int = 120_000
    allowed_slices: tuple[str, ...] = ("default",)
    authorized_services: tuple[str, ...] = ("data",)
    qos_class: str = "best-effort"
    corrupt_key: bool = False


@dataclass
class PrewarmSpec:
    cohort: str
    ttl_ms: int = DEFAULT_TTL_MS


@dataclass
class ScenarioConfig:
    name: str
    seed: int
    horizon_ms: int
    design: str
    backhaul: BackhaulProfile
    ues: list[UeCohortSpec]
    home_backhaul: BackhaulProfile | None = None
    serving_network: str = "net-serving"
    radio_latency_ms: int = 2
    core_hop_latency_ms: int = 1
    message_bytes: dict[str, int] = field(default_factory=dict)
    request_timeout_ms: int = 10_000
    reauth_interval_ms: int = 60_000
    cache_ttl_ms: int = DEFAULT_TTL_MS
    cache_capacity: int = DEFAULT_CACHE_CAPACITY
    thresholds: Thresholds = field(default_factory=Thresholds)
    dos_filter: bool = False
    probationary: ProbationaryPolicy = field(default_factory=ProbationaryPolicy)
    prewarm: list[PrewarmSpec] = field(default_factory=list)
    xapp_delays_ms: dict[str, int] = field(default_factory=dict)

    def message_size(self, msg_type: str) -> int:
        return self.message_bytes.get(msg_type,
                                      self.message_bytes.get("default",
                                                             DEFAULT_MESSAGE_BYTES))

    def with_overrides(self, design: str | None = None,
                       seed: int | None = None) -> "ScenarioConfig":
        cfg = self
        if design is not None:
            if design not in DESIGNS:
                raise ScenarioError("design", f"must be one of {DESIGNS}")
            cfg = replace(cfg, design=design)
        if seed is not None:
            cfg = replace(cfg, seed=seed)
        return cfg


def _require(d: dict, key: str, typ, where: str):
    if key not in d:
        raise ScenarioError(f"{where}{key}", "missing required field")
    value = d[key]
    if typ is float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ScenarioError(f"{where}{key}", "must be a number")
        return float(value)
    if typ is int and (isinstance(value, bool) or not isinstance(value, int)):
        raise ScenarioError(f"{where}{key}", "must be an integer")
    if typ is not float and not isinstance(value, typ):
        raise ScenarioError(f"{where}{key}", f"must be of type {typ.__name__}")
    return value


def _at_least(value: int, fieldname: str, minimum: int) -> int:
    if value < minimum:
        raise ScenarioError(fieldname, f"must be >= {minimum}")
    return value


def _backhaul_from(d: dict, where: str) -> BackhaulProfile:
    profile = BackhaulProfile(
        base_latency_ms=_require(d, "base_latency_ms", int, where),
        bandwidth_bps=_require(d, "bandwidth_bps", int, where),
        jitter_ms=int(d.get("jitter_ms", 0)),
        loss_probability=float(d.get("loss_probability", 0.0)),
        outages=[tuple(iv) for iv in d.get("outages", [])],
    )
    try:
        profile.validate()
    except ValueError as exc:
        raise ScenarioError(f"{where}{str(exc).split(':')[0]}", str(exc)) from exc
    return profile


def _arrival_from(d: dict, where: str) -> ArrivalSpec:
    kind = _require(d, "kind", str, where)
    try:
        return ArrivalSpec(kind=kind,
                           time_ms=int(d.get("time_ms", 0)),
                           rate_per_s=float(d.get("rate_per_s", 0.0)),
                           tail_rate_per_s=float(d.get("tail_rate_per_s", 0.0)))
    except ValueError as exc:
        raise ScenarioError(f"{where}kind", str(exc)) from exc


def config_from_dict(doc: dict) -> ScenarioConfig:
    name = _require(doc, "name", str, "")
    seed = _require(doc, "seed", int, "")
    horizon = _require(doc, "horizon_ms", int, "")
    if horizon <= 0:
        raise ScenarioError("horizon_ms", "must be > 0")
    design = _require(doc, "design", str, "")
    if design not in DESIGNS:
        raise ScenarioError("design", f"must be one of {DESIGNS}")
    backhaul = _backhaul_from(_require(doc, "backhaul", dict, ""), "backhaul.")
    home = None
    if "home_backhaul" in doc:
        home = _backhaul_from(doc["home_backhaul"], "home_backhaul.")

    ues: list[UeCohortSpec] = []
    raw_ues = _require(doc, "ues", list, "")
    if not raw_ues:
        raise ScenarioError("ues", "at least one cohort is required")
    seen_cohorts = set()
    for i, u in enumerate(raw_ues):
        where = f"ues[{i}]."
        cohort = _require(u, "cohort", str, where)
        if cohort in seen_cohorts:
            raise ScenarioError(f"{where}cohort", f"duplicate cohort {cohort!r}")
        seen_cohorts.add(cohort)
        count = _require(u, "count", int, where)
        if count <= 0:
            raise ScenarioError(f"{where}count", "must be > 0")
        behavior = _require(u, "behavior", str, where)
        spec = UeCohortSpec(
            cohort=cohort,
            count=count,
            behavior=behavior,
            arrival=_arrival_from(_require(u, "arrival", dict, where),
                                  where + "arrival."),
            express_eligible=bool(u.get("express_eligible", False)),
            home_network=u.get("home_network"),
            slice_id=u.get("slice_id", "default"),
            service=u.get("service"),
            period_ms=int(u.get("period_ms", 120_000)),
            allowed_slices=tuple(u.get("allowed_slices", ["default"])),
            authorized_services=tuple(u.get("authorized_services", ["data"])),
            qos_class=u.get("qos_class", "best-effort"),
            corrupt_key=bool(u.get("corrupt_key", False)),
        )
        if spec.behavior not in ("interactive", "periodic-sensor", "roamer",
                                 "attacker-flood"):
            raise ScenarioError(f"{where}behavior",
                                f"unknown behavior {spec.behavior!r}")
        if spec.behavior == "periodic-sensor" and spec.period_ms <= 0:
            raise ScenarioError(f"{where}period_ms", "must be > 0")
        ues.append(spec)

    prewarm: list[PrewarmSpec] = []
    for i, p in enumerate(doc.get("prewarm", [])):
        where = f"prewarm[{i}]."
        cohort = _require(p, "cohort", str, where)
        if cohort not in seen_cohorts:
            raise ScenarioError(f"{where}cohort", f"unknown cohort {cohort!r}")
        ttl = int(p.get("ttl_ms", DEFAULT_TTL_MS))
        if ttl <= 0:
            raise ScenarioError(f"{where}ttl_ms", "ttl must be > 0")
        prewarm.append(PrewarmSpec(cohort=cohort, ttl_ms=ttl))

    th = doc.get("thresholds", {})
    thresholds = Thresholds(
        dos_window_ms=int(th.get("dos_window_ms", 1000)),
        dos_unknown_per_window=int(th.get("dos_unknown_per_window", 50)),
        dos_retry_limit=int(th.get("dos_retry_limit", 3)),
        bandwidth_free_fraction=float(th.get("bandwidth_free_fraction", 0.1)),
        # the probe and the deferred-auth poll reschedule every interval
        probe_interval_ms=_at_least(int(th.get("probe_interval_ms", 1000)),
                                    "thresholds.probe_interval_ms", 1),
        probe_timeout_ms=int(th.get("probe_timeout_ms", 2000)),
        utilization_window_ms=int(th.get("utilization_window_ms", 1000)),
    )

    prob = doc.get("probationary", {})
    probationary = ProbationaryPolicy(
        enabled=bool(prob.get("enabled", False)),
        slice_id=prob.get("slice_id", "probation"),
        services=tuple(prob.get("services", ["messaging"])),
    )

    cache_ttl = int(doc.get("cache_ttl_ms", DEFAULT_TTL_MS))
    if cache_ttl <= 0:
        raise ScenarioError("cache_ttl_ms", "must be > 0")

    xapp_delays = dict(doc.get("xapp_delays_ms", {}))
    for xapp, delay in xapp_delays.items():
        try:
            XAppDescriptor(xapp, frozenset(), delay)
        except InvalidBudget as exc:
            raise ScenarioError(f"xapp_delays_ms.{xapp}", str(exc)) from exc

    return ScenarioConfig(
        name=name,
        seed=seed,
        horizon_ms=horizon,
        design=design,
        backhaul=backhaul,
        home_backhaul=home,
        ues=ues,
        serving_network=doc.get("serving_network", "net-serving"),
        radio_latency_ms=_at_least(int(doc.get("radio_latency_ms", 2)),
                                   "radio_latency_ms", 0),
        core_hop_latency_ms=_at_least(int(doc.get("core_hop_latency_ms", 1)),
                                      "core_hop_latency_ms", 0),
        message_bytes=dict(doc.get("message_bytes", {})),
        request_timeout_ms=_at_least(int(doc.get("request_timeout_ms", 10_000)),
                                     "request_timeout_ms", 1),
        reauth_interval_ms=int(doc.get("reauth_interval_ms", 60_000)),
        cache_ttl_ms=cache_ttl,
        cache_capacity=_at_least(
            int(doc.get("cache_capacity", DEFAULT_CACHE_CAPACITY)),
            "cache_capacity", 1),
        thresholds=thresholds,
        dos_filter=bool(doc.get("dos_filter", False)),
        probationary=probationary,
        prewarm=prewarm,
        xapp_delays_ms=xapp_delays,
    )


def load_scenario(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    text = path.read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError("<file>",
                            f"parse error at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError("<file>", "top-level value must be an object")
    return config_from_dict(doc)


def preset_names() -> list[str]:
    pkg = resources.files("randelsim") / "presets"
    return sorted(p.name.removesuffix(".json") for p in pkg.iterdir()
                  if p.name.endswith(".json"))


def preset_path(name: str) -> Path:
    path = resources.files("randelsim") / "presets" / f"{name}.json"
    if not path.is_file():
        raise ScenarioError("scenario", f"unknown preset {name!r}")
    return Path(str(path))


def load_preset(name: str) -> ScenarioConfig:
    return load_scenario(preset_path(name))
