"""Scenario configuration: JSON loading, validation, bundled presets.

A scenario document maps onto ``ScenarioConfig`` field by field: types come
from the dataclass annotations, defaults from the dataclasses, and a field's
``min`` metadata bounds every number it holds. Unknown keys, keys a file
repeats, missing required fields and bad values raise ``ScenarioError``
naming the field's dotted path.
Checks across fields run in ``ScenarioConfig.__post_init__``, so ``replace``
and ``with_overrides`` make them too.
"""

from __future__ import annotations

import functools
import json
import math
import re
import types
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from importlib import resources
from pathlib import Path

from .backhaul import BackhaulProfile
from .ric import (DEFAULT_XAPP_DELAYS, DESIGN_XAPPS, InvalidBudget,
                  XAppDescriptor)
from .ue import UeCohortSpec

DESIGNS = tuple(DESIGN_XAPPS)

DEFAULT_MESSAGE_BYTES = 512
# the messages a run carries between cores; message_bytes may size each
MESSAGE_TYPES = ("REG_REQUEST", "REG_REJECT", "AV_REQUEST", "AV_RESPONSE",
                 "AUTH_CHALLENGE", "AUTH_FAILURE", "AUTH_RESPONSE",
                 "AUTH_REJECT", "AUTH_RESULT", "SESSION_REQUEST",
                 "SESSION_REJECT", "SESSION_ACCEPT")
DEFAULT_TTL_MS = 3_600_000  # Table-style 60:00 m
# the largest integer JSON readers keep exact (RFC 8259, section 6)
MAX_JSON_INT = 2**53 - 1
# a config whose attempt_bound() exceeds this is rejected, so every valid
# scenario finishes; it also bounds the devices built
MAX_ATTEMPTS = 1_000_000
# a scenario name or cohort goes verbatim into every CSV row, and the name
# into compare's file names, so neither may hold a separator or a path part
_NAME_CHARS = re.compile(r"[A-Za-z0-9_.-]+")
_NAME_RULE = "must be nonempty and use only A-Z, a-z, 0-9, '_', '.' and '-'"


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
        if not _NAME_CHARS.fullmatch(self.name):
            raise ScenarioError("name", _NAME_RULE)
        if self.design not in DESIGNS:
            raise ScenarioError("design", f"must be one of {DESIGNS}")
        if not self.serving_network:
            raise ScenarioError("serving_network", "must be nonempty")
        if self.request_timeout_ms <= self.radio_latency_ms:
            # otherwise every attempt times out before it reaches the RAN
            raise ScenarioError("request_timeout_ms",
                                "must be > radio_latency_ms")
        if not self.ues:
            raise ScenarioError("ues", "at least one cohort is required")
        cohorts = set()
        for i, spec in enumerate(self.ues):
            where = f"ues[{i}]"
            if not _NAME_CHARS.fullmatch(spec.cohort):
                raise ScenarioError(f"{where}.cohort", _NAME_RULE)
            if spec.cohort in cohorts:
                raise ScenarioError(f"{where}.cohort",
                                    f"duplicate cohort {spec.cohort!r}")
            cohorts.add(spec.cohort)
        unwarmed = set(cohorts)
        for i, pw in enumerate(self.prewarm):
            if pw.cohort not in unwarmed:
                why = "duplicate" if pw.cohort in cohorts else "unknown"
                raise ScenarioError(f"prewarm[{i}].cohort",
                                    f"{why} cohort {pw.cohort!r}")
            unwarmed.remove(pw.cohort)
        for msg in self.message_bytes:
            if msg != "default" and msg not in MESSAGE_TYPES:
                raise ScenarioError(
                    f"message_bytes.{msg}",
                    f"unknown message; 'default' or one of {MESSAGE_TYPES}")
        for xapp, delay in self.xapp_delays_ms.items():
            where = f"xapp_delays_ms.{xapp}"
            if xapp not in DEFAULT_XAPP_DELAYS:
                raise ScenarioError(
                    where, f"unknown xApp; one of {tuple(DEFAULT_XAPP_DELAYS)}")
            try:
                XAppDescriptor(xapp, delay)
            except InvalidBudget as exc:
                raise ScenarioError(where, str(exc)) from exc
        terms = self._attempt_terms()
        bound = sum(terms.values())
        if bound > MAX_ATTEMPTS:
            raise ScenarioError(
                max(terms, key=terms.get),
                f"allows up to {bound} attempts within horizon_ms "
                f"{self.horizon_ms}, more than the {MAX_ATTEMPTS} a run "
                f"may make")

    def _attempt_terms(self) -> dict[str, int]:
        """``attempt_bound()`` split by the field that governs each part."""
        horizon = self.horizon_ms
        xapps = self.deployed_xapps()
        polls = horizon // self.thresholds.probe_interval_ms
        probation = "probationary" in xapps
        terms = {"reauth_interval_ms": 0, "thresholds.probe_interval_ms": 0}
        for i, spec in enumerate(self.ues):
            # each device's first attempt
            terms[f"ues[{i}].count"] = spec.count
            if spec.behavior == "periodic-sensor":
                terms[f"ues[{i}].period_ms"] = spec.count * (
                    -(-horizon // spec.period_ms) - 1)
            elif spec.behavior in ("interactive", "roamer"):
                terms["reauth_interval_ms"] += spec.count * (
                    horizon // self.reauth_interval_ms)
            if probation and self.roams(spec):
                terms["thresholds.probe_interval_ms"] += spec.count * polls
        if "backhaul-assessor" in xapps:
            terms["thresholds.probe_interval_ms"] += polls + 1
        return terms

    def roams(self, spec: UeCohortSpec) -> bool:
        """Whether the cohort's home network is set and not the serving one."""
        return spec.home_network not in (None, self.serving_network)

    def deployed_xapps(self) -> tuple[str, ...]:
        """The xApps a run deploys: its design's, less those turned off."""
        turned_on = {"dos-filter": self.dos_filter,
                     "probationary": self.probationary.enabled}
        return tuple(name for name in DESIGN_XAPPS[self.design]
                     if turned_on.get(name, True))

    def attempt_bound(self) -> int:
        """An upper bound on the attempts a run makes, plus its probes.

        A sensor attempts once per period from its arrival to the horizon.
        A user or roamer registers once, then re-authenticates at most once
        per ``reauth_interval_ms``: each re-authentication is scheduled that
        long after the one before ends. An attacker attempts once. Where the
        probationary xApp runs, a device of another home network may be
        admitted on probation, and its poll starts at most one deferred
        attempt per ``probe_interval_ms``. Where the assessor runs, each
        probe wake-up counts as one more, since it is work the run does.
        """
        return sum(self._attempt_terms().values())

    def message_size(self, msg_type: str) -> int:
        return self.message_bytes.get(msg_type,
                                      self.message_bytes.get("default",
                                                             DEFAULT_MESSAGE_BYTES))

    def with_overrides(self, design: str | None = None,
                       seed: int | None = None) -> "ScenarioConfig":
        return replace(self, design=self.design if design is None else design,
                       seed=self.seed if seed is None else seed)


# what a key that a scenario file repeats maps to
_REPEATED = object()

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
    if value is _REPEATED:
        raise ScenarioError(where, "key appears more than once")
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


def _mark_repeated(pairs: list[tuple[str, typing.Any]]) -> dict:
    """A JSON object whose repeated keys map to ``_REPEATED``."""
    obj = {}
    for key, value in pairs:
        obj[key] = _REPEATED if key in obj else value
    return obj


def load_scenario(path: str | Path) -> ScenarioConfig:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"),
                         object_pairs_hook=_mark_repeated)
    except json.JSONDecodeError as exc:
        raise ScenarioError("<file>",
                            f"parse error at line {exc.lineno}: {exc.msg}") from exc
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError: undecodable bytes, or an int past the digit limit
        raise ScenarioError("<file>", str(exc)) from exc
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
