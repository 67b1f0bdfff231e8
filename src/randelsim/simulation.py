"""Scenario execution: wires kernel, links, cores, RIC and UEs together.

Registration attempts run as generator-based protocol flows. Each yield is
the delay in ms until the flow's next step: a radio hop, a core-internal hop,
xApp processing, or a message carried between cores by ``_cross`` (which
yields ``None`` when the link loses the message). ``_route`` picks an
attempt's path and returns its flow, which returns the attempt's outcome. A
refused attempt has no flow: ``_route`` returns its outcome, and the attempt
is finalized where it was routed.

``_resume`` is the one place that decides what comes next: the step, if it
lands before the attempt's deadline, or else the request timeout. It is also
the one place where a flow ends its attempt: when the flow returns, it
finalizes the attempt with the flow's outcome. A step that no queued event
comes before runs inline, on a clock moved on by ``Kernel.advance``; any
other step is queued. Both run the same steps in the same order.

A ``Population`` holds what no design changes: each device's identity and
root secrets. The four runs of ``compare_designs`` share one, and each run
builds its own mutable records and devices from it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from heapq import heapify, heappop, heapreplace
from itertools import count, islice, repeat
from typing import NamedTuple

from . import crypto
from .backhaul import BackhaulLink
from .core import CoreNetwork, SubscriberRecord, SubscriptionPolicy
from .crypto import (MacFailure, RootSecret, SequenceState, SyncFailure,
                     UeIdentity, UsimState)
from .kernel import Kernel, seeded_stream
from .metrics import MetricsReport, OutcomeRow
from .ric import (DEFAULT_XAPP_DELAYS, BackhaulAssessor, DecisionCacheEntry,
                  DosFilter, Ric, TtlCache, XAppDescriptor)
from .scenario import ScenarioConfig
from .ue import UeCohortSpec, UeDevice, cohort_arrival_times


@dataclass(slots=True)
class Attempt:
    device: UeDevice
    request_type: str  # registration | reauth | deferred
    start: int
    deadline: int
    timeout_seq: int  # the kernel slot the request timeout fires in
    path: str = "standard"
    backhaul_msgs: int = 0
    backhaul_bytes: int = 0


class CohortKeys(NamedTuple):
    """One cohort's devices in order: identities and the K each side holds."""

    identities: list[UeIdentity]
    home_keys: list[RootSecret] | None  # None: an attacker holds no K
    device_keys: list[RootSecret] | None  # home_keys itself unless corrupt


@dataclass(frozen=True, eq=False)
class Population:
    """The part of a scenario's devices that no design changes.

    Per cohort: each device's SUPI and cached id, the root secret K its home
    network holds and the one its USIM holds. It is built on first read and
    never changes, so one population serves every run of the same ``ues``
    and seed; each ``Simulation`` builds its own mutable records from it.
    It holds K, so no simulation keeps it after construction.
    """

    ues: tuple[UeCohortSpec, ...]
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "ues", tuple(self.ues))

    @cached_property
    def cohorts(self) -> dict[str, CohortKeys]:
        # every subscriber's K derives from this seed's one master key
        master = crypto.HmacKey(
            hashlib.sha256(f"randelsim/root/{self.seed}".encode()).digest())
        atk_rng = seeded_stream(self.seed, "attacker-keys")
        cohorts = {}
        for spec in self.ues:
            identities = [crypto.conceal_identity(f"{spec.cohort}-{i + 1:04d}")
                          for i in range(spec.count)]
            home_keys = device_keys = None
            # an attacker has no subscription, so it holds no credentials
            if spec.behavior != "attacker-flood":
                home_keys = device_keys = [
                    RootSecret(master.prf("K", identity.supi.encode()))
                    for identity in identities]
                if spec.corrupt_key:
                    device_keys = [RootSecret(atk_rng.randbytes(32))
                                   for _ in identities]
            cohorts[spec.cohort] = CohortKeys(identities, home_keys,
                                              device_keys)
        return cohorts


class Simulation:
    """One deterministic run of a scenario under one design.

    ``population`` may be shared with other runs of the same ``ues`` and
    seed; without one, the run builds its own.
    """

    def __init__(self, config: ScenarioConfig, *,
                 population: Population | None = None):
        self.cfg = config
        if population is None:
            population = Population(config.ues, config.seed)
        elif (population.seed != config.seed
              or population.ues != tuple(config.ues)):
            raise ValueError("population was built for another seed or "
                             "other ues")
        self.kernel = Kernel(config.seed)
        self.colocated = config.design == "colocated"

        # only the assessor reads how busy the link is, so only a link it
        # assesses keeps a window of its sends
        assessed = "backhaul-assessor" in config.deployed_xapps()
        self.link = BackhaulLink(
            config.backhaul, self.kernel.stream("backhaul"),
            config.thresholds.utilization_window_ms if assessed else None)
        home_profile = config.home_backhaul or config.backhaul
        self.home_link = BackhaulLink(home_profile,
                                      self.kernel.stream("home-backhaul"))

        self.serving = CoreNetwork(config.serving_network)
        self.home_cores: dict[str, CoreNetwork] = {}
        # each cohort's devices, in the order of its identities
        self.cohorts: dict[str, list[UeDevice]] = {}
        self._roaming = {spec.cohort for spec in config.ues
                         if config.roams(spec)}
        # a heap of each arrival stream's next (time, slot, device, stream);
        # only the first one is in the kernel queue
        self._arrivals: list[tuple] = []
        # attempts from start to finalize, keyed by their timeout slot; in
        # start order, which the sweep at the horizon keeps
        self._open: dict[int, Attempt] = {}
        self.rows: list[OutcomeRow] = []

        self.ric = self._build_ric()
        self._ric_routes = "routing" in self.ric.xapps
        # the xApp delays each routed path charges; 0 for an xApp not deployed
        delay = {name: x.processing_delay for name, x in self.ric.xapps.items()}
        routing = delay.get("routing", 0)
        self._path_delays = {
            "standard": routing,
            "express": routing + delay.get("decision-cache", 0),
            "delegated": (routing + delay.get("state-auth", 0)
                          + delay.get("session-establish", 0)),
            "probationary": routing + delay.get("probationary", 0),
        }
        self._build_population(population)
        self._prewarm_caches()

    # -- construction ------------------------------------------------------

    def _build_ric(self) -> Ric:
        cfg, th = self.cfg, self.cfg.thresholds
        deployed = cfg.deployed_xapps()
        xapps = [XAppDescriptor(name, cfg.xapp_delays_ms.get(
                     name, DEFAULT_XAPP_DELAYS[name]))
                 for name in deployed if name in DEFAULT_XAPP_DELAYS]
        assessor = cache = dos = None
        if "backhaul-assessor" in deployed:
            assessor = BackhaulAssessor(
                self.link, self.kernel.stream("assessor"), th.probe_timeout_ms)
        if "decision-cache" in deployed:
            cache = TtlCache(cfg.cache_capacity)
        if "dos-filter" in deployed:
            dos = DosFilter(th.dos_window_ms, th.dos_unknown_per_window,
                            th.dos_retry_limit)
        return Ric(xapps, th.bandwidth_free_fraction, assessor=assessor,
                   cache=cache, dos_filter=dos)

    def _build_population(self, population: Population) -> None:
        """This run's subscriber records, counters, USIMs and devices."""
        for spec in self.cfg.ues:
            identities, home_keys, device_keys = \
                population.cohorts[spec.cohort]
            if home_keys is not None:
                policy = SubscriptionPolicy(
                    allowed_slices=frozenset(spec.allowed_slices),
                    authorized_services=frozenset(spec.authorized_services))
                home = spec.home_network
                if spec.cohort not in self._roaming:
                    core = self.serving
                elif (core := self.home_cores.get(home)) is None:
                    core = self.home_cores[home] = CoreNetwork(home)
            members = self.cohorts[spec.cohort] = []
            for i, identity in enumerate(identities):
                usim = None
                if home_keys is not None:
                    core.add_subscriber(SubscriberRecord(
                        identity=identity, root_secret=home_keys[i],
                        sequence=SequenceState(), subscription=policy))
                    usim = UsimState(device_keys[i])
                members.append(UeDevice(spec, identity, usim))

    def _prewarm_caches(self) -> None:
        if self.ric.cache is None:
            return
        sn = self.cfg.serving_network
        for pw in self.cfg.prewarm:
            for device in self.cohorts[pw.cohort]:
                if device.profile.behavior == "attacker-flood":
                    continue
                record = self._find_record(device)
                # the core's own decision, or none to cache
                if not record.subscription.admit(device.profile.slice_id,
                                                 device.profile.service):
                    continue
                # provisioning models a prior successful authentication
                k = record.root_secret.hmac_key
                rand = k.prf("PREWARM", sn.encode())
                k_ausf = crypto.derive_k_ausf(k, sn, rand[:16])
                k_seaf = device.learn_hierarchy(k_ausf, sn).k_seaf
                if device.profile.corrupt_key:  # its USIM holds another K
                    device.derive_hierarchy_from_challenge(rand[:16], sn)
                # the RAN derives its keys apart from the device's
                self._store_cache_entries(device, record, crypto.SessionKeys(
                    k_seaf, device.identity.cached_id), 0, pw.ttl_ms)

    def _find_record(self, device: UeDevice) -> SubscriberRecord | None:
        # the one directory _build_population files the device's record in
        core = self.home_cores.get(device.profile.home_network, self.serving)
        return core.find_by_supi(device.identity.supi)

    def _store_cache_entries(self, device: UeDevice, record: SubscriberRecord,
                             keys: crypto.SessionKeys, now: int,
                             ttl: int) -> None:
        if self.ric.cache is None:
            return
        self.ric.cache.store(DecisionCacheEntry(
            keys, device.profile.slice_id, ttl, now,
            record.subscription.authorized_services))
        self.ric.known_ids.add(keys.cached_id)

    # -- run ---------------------------------------------------------------

    def run(self) -> MetricsReport:
        if self.ric.assessor is not None:
            # queued before any arrival slot: every route finds a probe
            self.kernel.schedule(0, self._probe)
        self._schedule_arrivals()
        self.kernel.run_until(self.cfg.horizon_ms)
        # events past the horizon never fire; dropping them frees the
        # actions that refer back to this simulation
        self.kernel.discard_pending()
        for att in list(self._open.values()):
            self._finalize(att, "timeout")
        return MetricsReport(
            scenario=self.cfg.name, design=self.cfg.design, seed=self.cfg.seed,
            rows=self.rows,
            dropped_by_filter=(self.ric.dos_filter.dropped
                               if self.ric.dos_filter else 0),
            audit_flags=self.audit_flags())

    def _probe(self) -> None:
        self.ric.assessor.assess(self.kernel.now)
        self.kernel.schedule(self.cfg.thresholds.probe_interval_ms, self._probe)

    def _schedule_arrivals(self) -> None:
        """Plan every arrival in a reserved slot; queue only the first.

        Slots are reserved up front as one block per cohort, or per sensor
        device (one slot per period), and numbered in cohort, device and
        period order. Each block is a stream of ``(time, slot, device)`` in
        that order, and the plan holds each stream's next one, so its first
        entry is the earliest arrival left. Each cohort has its own RNG, so
        times drawn as a stream is read are the ones drawn up front.
        """
        reserve = self.kernel.reserve
        horizon = self.cfg.horizon_ms
        streams = []
        for spec in self.cfg.ues:
            rng = self.kernel.stream(f"arrival/{spec.cohort}")
            times = cohort_arrival_times(spec.arrival, spec.count, horizon,
                                         rng)
            devices = self.cohorts[spec.cohort]
            if spec.behavior == "periodic-sensor":
                # a sensor's first time sizes its block, so it is drawn now
                for device, t0 in zip(devices, times):
                    # register, transmit, disconnect: once per period
                    periods = range(t0, horizon, spec.period_ms)
                    streams.append(zip(periods, count(reserve(len(periods))),
                                       repeat(device)))
            else:
                streams.append(zip(times, count(reserve(spec.count)),
                                   devices))
        # slots are unique, so two devices or streams are never compared
        self._arrivals = [(*head, s) for s in streams for head in islice(s, 1)]
        heapify(self._arrivals)
        self._queue_next_arrival()

    def _queue_next_arrival(self) -> None:
        if self._arrivals:
            when, seq, _, _ = self._arrivals[0]
            self.kernel.schedule_at(when, seq, self._arrive)

    def _arrive(self) -> None:
        plan = self._arrivals
        _, _, device, stream = plan[0]
        for t, slot, nxt in stream:  # its next arrival takes its entry
            heapreplace(plan, (t, slot, nxt, stream))
            break
        else:  # the stream has ended
            heappop(plan)
        self._queue_next_arrival()
        self._start_attempt(device, "registration")

    # -- attempt lifecycle -------------------------------------------------

    def _start_attempt(self, device: UeDevice, request_type: str) -> Attempt:
        now = self.kernel.now
        # reserved now, the timeout keeps its place among same-time events
        att = Attempt(device, request_type, now,
                      now + self.cfg.request_timeout_ms, self.kernel.reserve())
        self._open[att.timeout_seq] = att
        # one radio hop carries the request from the device to the RAN
        self.kernel.schedule(self.cfg.radio_latency_ms,
                             lambda: self._at_ran(att))
        return att

    def _at_ran(self, att: Attempt) -> None:
        """Route an attempt that reached the RAN: a refusal ends it here."""
        flow = self._route(att)
        if isinstance(flow, str):
            self._finalize(att, flow)
        else:
            self._resume(att, flow)

    def _route(self, att: Attempt, screened: bool = False):
        """Pick the attempt's path now, as ``att.path``; the flow that runs
        it, or a refused attempt's outcome (``"filtered"`` for a filtered or
        blacklisted id, else ``"rejected"``), which is charged no xApp
        delay. An attempt routed again was ``screened`` already, so only its
        path is chosen."""
        device = att.device
        # a deferred auth settles through the core
        if att.request_type == "deferred" or not self._ric_routes:
            path, reason, entry = "standard", "forced", None
        else:
            profile = device.profile
            decide = (self.ric.choose_path if screened
                      else self.ric.route_registration)
            path, reason, entry = decide(
                device.identity.cached_id, profile.express_eligible,
                profile.cohort in self._roaming, self.kernel.now)
        att.path = path
        if path == "reject":
            return ("filtered" if reason in ("filtered", "blacklisted")
                    else "rejected")
        delay = self._path_delays[path]
        if path == "standard":
            return self._standard_flow(att, device, delay)
        if path in ("express", "delegated"):
            return self._local_flow(att, device, entry, delay)
        return self._probationary_flow(att, device, delay)

    def _finalize(self, att: Attempt, outcome: str) -> None:
        del self._open[att.timeout_seq]
        device = att.device
        now = self.kernel.now
        self.rows.append(OutcomeRow(
            device.identity.supi, device.profile.cohort, att.request_type,
            outcome, att.path, now - att.start, att.backhaul_msgs,
            att.backhaul_bytes))
        if outcome == "success":
            # a probationary admission is renewed by its deferred auth
            if (att.path != "probationary"
                    and device.profile.behavior in ("interactive", "roamer")):
                self.kernel.schedule(
                    self.cfg.reauth_interval_ms,
                    lambda: self._start_attempt(device, "reauth"))
        elif att.request_type == "reauth":
            # failed re-authentication tears the session down
            device.end_session()
        if att.request_type == "deferred" and outcome in (
                "mac-failure", "sync-failure", "subscriber-not-found"):
            self._terminate_probationary(device, outcome)

    # -- flow transport ----------------------------------------------------

    def _resume(self, att: Attempt, flow) -> None:
        # an inlined step may already have moved the clock on, so no caller
        # may do anything after this returns
        kernel = self.kernel
        while True:
            try:
                delay = next(flow)
            except StopIteration as done:
                self._finalize(att, done.value)
                return
            if delay is None or kernel.now + delay >= att.deadline:
                # lost, or the next step would land on or after the deadline
                kernel.schedule_at(att.deadline, att.timeout_seq,
                                   lambda: self._finalize(att, "timeout"))
                return
            if not kernel.advance(delay):
                kernel.schedule(delay, lambda: self._resume(att, flow))
                return
            # nothing queued comes first: run the step now, in place

    def _cross(self, att: Attempt, msg: str, src: str, dst: str,
               home: bool = False) -> int | None:
        """Carry one message between cores; its delay, or None if lost."""
        now = self.kernel.now
        if self.colocated and not home:
            self.serving.log(now, src, dst, msg, 0)
            return self.cfg.core_hop_latency_ms
        size = self.cfg.message_size(msg)
        if not home:
            att.backhaul_msgs += 1
            att.backhaul_bytes += size
        self.serving.log(now, src, dst, msg, size)
        t = (self.home_link if home else self.link).transmit(size, now)
        return None if t is None else t - now

    # -- flows -------------------------------------------------------------

    def _standard_flow(self, att: Attempt, device: UeDevice, routing_delay: int):
        cfg = self.cfg
        sn = cfg.serving_network
        cid = device.identity.cached_id
        full = att.request_type != "reauth"
        radio, hop = cfg.radio_latency_ms, cfg.core_hop_latency_ms
        if routing_delay:
            yield routing_delay
        yield self._cross(att, "REG_REQUEST", "ran", "amf")
        yield hop  # AMF -> AUSF

        record = self._find_record(device)
        if record is None:
            yield self._cross(att, "REG_REJECT", "amf", "ran")
            yield radio
            return "subscriber-not-found"
        if device.profile.cohort not in self._roaming:
            yield hop  # AUSF -> UDM
            av = crypto.generate_av(record.root_secret, record.sequence, sn,
                                    self.kernel.stream("av"))
            yield hop  # UDM -> AUSF
        else:
            udm = f"{device.profile.home_network}-udm"
            yield self._cross(att, "AV_REQUEST", "ausf", udm, home=True)
            av = crypto.generate_av(record.root_secret, record.sequence, sn,
                                    self.kernel.stream("av"))
            yield self._cross(att, "AV_RESPONSE", udm, "ausf", home=True)
        yield hop  # AUSF -> SEAF

        yield self._cross(att, "AUTH_CHALLENGE", "seaf", "ran")
        yield radio
        try:
            response = device.respond_to_challenge(av.rand, av.autn)
        except (MacFailure, SyncFailure) as exc:
            outcome = ("sync-failure" if isinstance(exc, SyncFailure)
                       else "mac-failure")
            yield radio
            yield self._cross(att, "AUTH_FAILURE", "ran", "seaf")
            return outcome
        yield radio
        yield self._cross(att, "AUTH_RESPONSE", "ran", "seaf")
        if response != av.xres:
            yield self._cross(att, "AUTH_REJECT", "seaf", "ran")
            yield radio
            return "mac-failure"

        hierarchy = crypto.build_hierarchy(av.k_derived, sn, cid)
        self.serving.seaf_hierarchies[cid] = hierarchy
        device.derive_hierarchy_from_challenge(av.rand, sn)

        yield self._cross(att, "AUTH_RESULT", "seaf", "ran")
        yield radio
        if not full:
            self._store_cache_entries(device, record, hierarchy,
                                      self.kernel.now, cfg.cache_ttl_ms)
            return "success"

        yield radio
        yield self._cross(att, "SESSION_REQUEST", "ran", "amf")
        yield hop  # AMF -> SMF
        yield hop  # SMF -> PCF (policy hop, no-op)
        yield hop  # SMF -> UPF
        if not self.serving.establish_session(
                record.subscription, device.profile.slice_id,
                device.profile.service):
            yield self._cross(att, "SESSION_REJECT", "smf", "ran")
            yield radio
            return "policy-denied"
        yield self._cross(att, "SESSION_ACCEPT", "smf", "ran")
        yield radio
        # a deferred or an ordinary registration may end probation
        upgraded = (device.session_slice == self.cfg.probationary.slice_id
                    != device.profile.slice_id)
        device.open_session(device.profile.slice_id,
                            record.subscription.authorized_services)
        self._store_cache_entries(device, record, hierarchy, self.kernel.now,
                                  cfg.cache_ttl_ms)
        if upgraded:
            self.ric.log_access(
                self.kernel.now, cid, "upgraded",
                f"{device.session_slice}:"
                f"{','.join(sorted(device.session_services))}")
        return "success"

    def _local_flow(self, att: Attempt, device: UeDevice,
                    entry: DecisionCacheEntry, delay_ms: int):
        """Challenge the device against the cached K_SEAF, then open the
        core's cached grant at the RAN on a live entry, on either path; the
        delegated one logs it. An entry that expired mid-challenge admits no
        one: the attempt's path is chosen again."""
        yield delay_ms
        nonce = self.ric.next_nonce(self.kernel.stream("express-nonce"))
        yield self.cfg.radio_latency_ms  # challenge to the device
        mac = device.express_response(nonce)
        yield self.cfg.radio_latency_ms  # response back
        if mac != crypto.express_mac(entry.keys.k_nas, nonce):
            return "rejected"
        if not entry.live(self.kernel.now):
            flow = self._route(att, screened=True)
            return flow if isinstance(flow, str) else (yield from flow)
        device.open_session(entry.slice_grant, entry.service_grant)
        if att.path == "delegated":
            self.ric.log_access(self.kernel.now, device.identity.cached_id,
                                "delegated-grant", entry.slice_grant)
        yield self.cfg.radio_latency_ms  # grant
        return "success"

    def _probationary_flow(self, att: Attempt, device: UeDevice, delay_ms: int):
        yield delay_ms
        prob = self.cfg.probationary
        cid = device.identity.cached_id
        opened = device.open_session(prob.slice_id, frozenset(prob.services))
        self.ric.log_access(self.kernel.now, cid, "probationary-admit",
                            f"{prob.slice_id}:{','.join(sorted(prob.services))}")
        yield self.cfg.radio_latency_ms
        if opened:
            # a re-admission into an open session keeps its one poll
            self.kernel.schedule(self.cfg.thresholds.probe_interval_ms,
                                 lambda: self._poll_deferred(device))
        return "success"

    # -- probationary lifecycle --------------------------------------------

    def _poll_deferred(self, device: UeDevice,
                       deferred: Attempt | None = None) -> None:
        if device.session_slice != self.cfg.probationary.slice_id:
            return  # torn down, or on its own slice already
        if ((deferred is None or deferred.timeout_seq not in self._open)
                and self.ric.assessor.last.reachable):
            deferred = self._start_attempt(device, "deferred")
        self.kernel.schedule(self.cfg.thresholds.probe_interval_ms,
                             lambda: self._poll_deferred(device, deferred))

    def _terminate_probationary(self, device: UeDevice, reason: str) -> None:
        cid = device.identity.cached_id
        device.end_session()
        self.ric.blacklist.add(cid)
        self.ric.log_access(self.kernel.now, cid, "terminated", reason)

    # -- audit -------------------------------------------------------------

    def audit_flags(self) -> list[str]:
        if self.colocated:
            return ["root-secret-at-edge"]
        if self.ric.known_ids:  # an id is known once its K_SEAF is cached
            return ["k-seaf-at-edge"]
        return []
