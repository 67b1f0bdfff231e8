"""Scenario configuration: JSON loading, validation, bundled presets.

A scenario document maps onto ``ScenarioConfig`` field by field: types come
from the dataclass annotations, defaults from the dataclasses, and a field's
``min`` metadata bounds every number it holds. Unknown keys, missing required
fields and bad values raise ``ScenarioError`` naming the field's dotted path.
Checks across fields run in ``ScenarioConfig.__post_init__``, so ``replace``
and ``with_overrides`` make them too.
"""

from __future__ import annotations

import functools
import json
import math
import types
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from importlib import resources
from pathlib import Path

from .backhaul import BackhaulProfile
from .core import SubscriptionPolicy
from .ric import DEFAULT_XAPP_DELAYS, InvalidBudget, XAppDescriptor
from .ue import BEHAVIORS, ArrivalSpec

DESIGNS = ("baseline", "colocated", "decision-cache", "logic-replication")

DEFAULT_MESSAGE_BYTES = 512
DEFAULT_TTL_MS = 3_600_000  # Table-style 60:00 m
# the largest integer JSON readers keep exact (RFC 8259, section 6)
MAX_JSON_INT = 2**53 - 1


class ScenarioError(Exception):
    """Validation failure; the message names the offending field."""

    def __init__(self, fieldname: str, message: str):
        self.fieldname = fieldname
        super().__init__(f"{fieldname}: {message}")


@dataclass
class Thresholds:
    dos_window_ms: int = field(default=1000, metadata={"min": 1})
    dos_unknown_per_window: int = field(default=50, metadata={"min": 0})
    dos_retry_limit: int = field(default=3, metadata={"min": 0})
    bandwidth_free_fraction: float = field(default=0.1, metadata={"min": 0})
    # the probe and the deferred-auth poll reschedule every interval
    probe_interval_ms: int = field(default=1000, metadata={"min": 1})
    probe_timeout_ms: int = field(default=2000, metadata={"min": 0})
    utilization_window_ms: int = field(default=1000, metadata={"min": 1})


@dataclass
class ProbationaryPolicy:
    enabled: bool = False
    slice_id: str = "probation"
    services: tuple[str, ...] = ("messaging",)


@dataclass
class UeCohortSpec:
    cohort: str
    count: int = field(metadata={"min": 1})
    behavior: str
    arrival: ArrivalSpec
    express_eligible: bool = False
    home_network: str | None = None  # None means the serving network
    slice_id: str = "default"
    service: str | None = None
    period_ms: int = field(default=120_000, metadata={"min": 1})
    allowed_slices: tuple[str, ...] = ("default",)
    authorized_services: tuple[str, ...] = ("data",)
    qos_class: str = "best-effort"
    corrupt_key: bool = False


@dataclass
class PrewarmSpec:
    cohort: str
    ttl_ms: int = field(default=DEFAULT_TTL_MS, metadata={"min": 1})


@dataclass
class ScenarioConfig:
    name: str
    seed: int
    horizon_ms: int = field(metadata={"min": 1})
    design: str
    backhaul: BackhaulProfile
    ues: list[UeCohortSpec]
    home_backhaul: BackhaulProfile | None = None
    serving_network: str = "net-serving"
    radio_latency_ms: int = field(default=2, metadata={"min": 0})
    core_hop_latency_ms: int = field(default=1, metadata={"min": 0})
    message_bytes: dict[str, int] = field(default_factory=dict,
                                          metadata={"min": 1})
    request_timeout_ms: int = field(default=10_000, metadata={"min": 1})
    # a successful re-authentication schedules the next one this far ahead
    reauth_interval_ms: int = field(default=60_000, metadata={"min": 1})
    cache_ttl_ms: int = field(default=DEFAULT_TTL_MS, metadata={"min": 1})
    cache_capacity: int = field(default=10_000, metadata={"min": 1})
    thresholds: Thresholds = field(default_factory=Thresholds)
    dos_filter: bool = False
    probationary: ProbationaryPolicy = field(default_factory=ProbationaryPolicy)
    prewarm: list[PrewarmSpec] = field(default_factory=list)
    xapp_delays_ms: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.design not in DESIGNS:
            raise ScenarioError("design", f"must be one of {DESIGNS}")
        if self.request_timeout_ms <= self.radio_latency_ms:
            # otherwise every attempt times out before it reaches the RAN
            raise ScenarioError("request_timeout_ms",
                                "must be > radio_latency_ms")
        for name in ("backhaul", "home_backhaul"):
            profile = getattr(self, name)
            try:
                if profile is not None:
                    profile.validate()
            except ValueError as exc:
                raise _field_error(name, exc, BackhaulProfile) from exc
        if not self.ues:
            raise ScenarioError("ues", "at least one cohort is required")
        cohorts = set()
        for i, spec in enumerate(self.ues):
            where = f"ues[{i}]"
            if spec.cohort in cohorts:
                raise ScenarioError(f"{where}.cohort",
                                    f"duplicate cohort {spec.cohort!r}")
            cohorts.add(spec.cohort)
            if spec.behavior not in BEHAVIORS:
                raise ScenarioError(f"{where}.behavior",
                                    f"unknown behavior {spec.behavior!r}")
            try:
                SubscriptionPolicy(frozenset(spec.allowed_slices),
                                   frozenset(spec.authorized_services),
                                   spec.qos_class)
            except ValueError as exc:
                raise _field_error(where, exc, UeCohortSpec) from exc
        for i, pw in enumerate(self.prewarm):
            if pw.cohort not in cohorts:
                raise ScenarioError(f"prewarm[{i}].cohort",
                                    f"unknown cohort {pw.cohort!r}")
        for xapp, delay in self.xapp_delays_ms.items():
            where = f"xapp_delays_ms.{xapp}"
            if xapp not in DEFAULT_XAPP_DELAYS:
                raise ScenarioError(
                    where, f"unknown xApp; one of {tuple(DEFAULT_XAPP_DELAYS)}")
            try:
                XAppDescriptor(xapp, delay)
            except InvalidBudget as exc:
                raise ScenarioError(where, str(exc)) from exc

    def message_size(self, msg_type: str) -> int:
        return self.message_bytes.get(msg_type,
                                      self.message_bytes.get("default",
                                                             DEFAULT_MESSAGE_BYTES))

    def with_overrides(self, design: str | None = None,
                       seed: int | None = None) -> "ScenarioConfig":
        return replace(self, design=self.design if design is None else design,
                       seed=self.seed if seed is None else seed)


_TYPE_NAMES = {int: "an integer", float: "a number", bool: "true or false",
               str: "a string"}


def _join(where: str, name: str) -> str:
    return f"{where}.{name}" if where else name


def _field_error(where: str, exc: ValueError, cls: type) -> ScenarioError:
    """Name the field of ``cls`` that the message of ``exc`` starts with."""
    name = str(exc).partition(" ")[0].rstrip(":")
    if name in {f.name for f in fields(cls)}:
        where = _join(where, name)
    return ScenarioError(where or "scenario", str(exc))


@functools.cache
def _hints(cls: type) -> dict[str, typing.Any]:
    return typing.get_type_hints(cls)


def _load(tp, value, where: str, minimum: float | None = None):
    """Check ``value`` against the type ``tp`` and build it.

    ``where`` is the dotted path of ``value`` in the document; ``minimum``
    bounds every number ``value`` holds.
    """
    if is_dataclass(tp):
        if not isinstance(value, dict):
            raise ScenarioError(where or "scenario", "must be an object")
        names = {f.name for f in fields(tp)}
        for key in value:
            if key not in names:
                raise ScenarioError(_join(where, key), "unknown field")
        hints = _hints(tp)
        kwargs = {}
        for f in fields(tp):
            if f.name in value:
                kwargs[f.name] = _load(hints[f.name], value[f.name],
                                       _join(where, f.name),
                                       f.metadata.get("min"))
            elif f.default is MISSING and f.default_factory is MISSING:
                raise ScenarioError(_join(where, f.name),
                                    "missing required field")
        try:
            return tp(**kwargs)
        except ValueError as exc:
            raise _field_error(where, exc, tp) from exc
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (types.UnionType, typing.Union):  # X | None
        return None if value is None else _load(args[0], value, where, minimum)
    if origin in (list, tuple):
        if not isinstance(value, list):
            raise ScenarioError(where, "must be a list")
        if origin is tuple and args[-1] is not Ellipsis:
            if len(value) != len(args):
                raise ScenarioError(where, f"must have {len(args)} items")
            item_types = args
        else:
            item_types = args[:1] * len(value)
        return origin(_load(t, v, f"{where}[{i}]", minimum)
                      for i, (t, v) in enumerate(zip(item_types, value)))
    if origin is dict:
        if not isinstance(value, dict):
            raise ScenarioError(where, "must be an object")
        return {_load(args[0], k, where): _load(args[1], v, _join(where, k),
                                                minimum)
                for k, v in value.items()}
    if tp in (int, float) and type(value) is int and abs(value) > MAX_JSON_INT:
        raise ScenarioError(where, f"must be within +-{MAX_JSON_INT}")
    if tp is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if type(value) is not tp or (tp is float and not math.isfinite(value)):
        raise ScenarioError(where, f"must be {_TYPE_NAMES[tp]}")
    if minimum is not None and value < minimum:
        raise ScenarioError(where, f"must be >= {minimum}")
    return value


def config_from_dict(doc: dict) -> ScenarioConfig:
    """Build a validated config from a parsed scenario document."""
    return _load(ScenarioConfig, doc, "")


def load_scenario(path: str | Path) -> ScenarioConfig:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError("<file>",
                            f"parse error at line {exc.lineno}: {exc.msg}") from exc
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
