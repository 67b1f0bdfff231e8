"""Scenario execution: wires kernel, links, cores, RIC and UEs together.

Registration attempts run as generator-based protocol flows. Each yield is a
transport instruction handled by the conductor:

    ("bh", msg, src, dst)    serving-core backhaul crossing (local when colocated)
    ("home", msg, src, dst)  serving-core to home-network crossing
    ("radio",)               one UE<->RAN radio hop
    ("hop",)                 one core-internal NF hop
    ("delay", ms)            xApp processing time

Frozen flow constants (verified by the instrumented single-UE oracle trace):
a full registration crosses the backhaul 6 times with 7 core-internal hops
and 6 radio hops; a re-authentication uses 4/4/4.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from . import crypto
from .backhaul import BackhaulLink
from .core import (AuthRequired, CoreNetwork, PolicyDenied, SessionRecord,
                   SubscriberRecord, SubscriptionPolicy)
from .crypto import MacFailure, RootSecret, SequenceState, SyncFailure, UsimState
from .kernel import Kernel
from .metrics import MetricsReport, OutcomeRow
from .ric import (BackhaulAssessor, DecisionCacheEntry, DosFilter,
                  RegistrationRequest, Ric, RoutingDecision, StateCacheEntry,
                  TtlCache, XAppDescriptor)
from .scenario import ScenarioConfig
from .ue import UeDevice, UeProfile, cohort_arrival_times, sensor_attempt_times

BACKHAUL_MSGS_FULL_REG = 6
BACKHAUL_MSGS_REAUTH = 4
CORE_HOPS_FULL_REG = 7
CORE_HOPS_REAUTH = 4
RADIO_HOPS_FULL_REG = 6
RADIO_HOPS_REAUTH = 4
HOME_MSGS_REFERRAL = 2

RAN_ADDRESS_BASE = 16_000_000
HOME_ADDRESS_BASE = 500_000

DEFAULT_XAPP_DELAYS = {
    "routing": 10,
    "decision-cache": 15,
    "backhaul-assessor": 10,
    "dos-filter": 10,
    "state-auth": 20,
    "session-establish": 20,
    "probationary": 20,
}


def subscriber_root_secret(seed: int, supi: str) -> RootSecret:
    master = hashlib.sha256(f"randelsim/root/{seed}".encode()).digest()
    return RootSecret(crypto.prf(master, "K", supi.encode()))


@dataclass
class Attempt:
    device: UeDevice
    request_type: str  # registration | reauth | deferred
    start: int
    path: str = "standard"
    outcome: str | None = None
    backhaul_msgs: int = 0
    backhaul_bytes: int = 0
    home_msgs: int = 0
    home_bytes: int = 0
    held_nfs: list = field(default_factory=list)

    @property
    def finalized(self) -> bool:
        return self.outcome is not None


class Simulation:
    """One deterministic run of a scenario under one design."""

    def __init__(self, config: ScenarioConfig, seed: int | None = None):
        self.cfg = config
        self.seed = config.seed if seed is None else seed
        self.kernel = Kernel(self.seed)
        self.colocated = config.design == "colocated"

        self.link = BackhaulLink(config.backhaul, self.kernel.stream("backhaul"))
        home_profile = config.home_backhaul or config.backhaul
        self.home_link = BackhaulLink(home_profile,
                                      self.kernel.stream("home-backhaul"))

        self.serving = CoreNetwork(config.serving_network)
        self.home_cores: dict[str, CoreNetwork] = {}
        self.devices: dict[str, UeDevice] = {}
        self.attempts: list[Attempt] = []
        self.rows: list[OutcomeRow] = []
        self.ran_sessions: dict[bytes, SessionRecord] = {}
        self._ran_next_address = RAN_ADDRESS_BASE
        self._edge_holds_kseaf = False
        self._deferred_inflight: set[str] = set()

        self.ric = self._build_ric()
        self._build_population()
        self._prewarm_caches()

    # -- construction ------------------------------------------------------

    def _xapp_delay(self, name: str) -> int:
        return self.cfg.xapp_delays_ms.get(name, DEFAULT_XAPP_DELAYS[name])

    def _build_ric(self) -> Ric:
        design = self.cfg.design
        th = self.cfg.thresholds
        caches = design in ("decision-cache", "logic-replication")
        assessor = None
        decision_cache = None
        state_cache = None
        dos = None
        probationary = False
        if caches:
            assessor = BackhaulAssessor(
                self.link, self.kernel.stream("assessor"),
                probe_interval_ms=th.probe_interval_ms,
                probe_timeout_ms=th.probe_timeout_ms,
                utilization_window_ms=th.utilization_window_ms)
            decision_cache = TtlCache(self.cfg.cache_capacity)
            if self.cfg.dos_filter:
                dos = DosFilter(window_ms=th.dos_window_ms,
                                unknown_limit=th.dos_unknown_per_window,
                                retry_limit=th.dos_retry_limit)
            if design == "logic-replication":
                state_cache = TtlCache(self.cfg.cache_capacity)
                probationary = self.cfg.probationary.enabled
        ric = Ric(assessor=assessor, decision_cache=decision_cache,
                  state_cache=state_cache, dos_filter=dos,
                  probationary_enabled=probationary,
                  bandwidth_free_fraction=th.bandwidth_free_fraction)
        if caches:
            handled = frozenset({"registration", "reauth"})
            ric.register_xapp(XAppDescriptor("routing", handled,
                                             self._xapp_delay("routing")))
            ric.register_xapp(XAppDescriptor("decision-cache", handled,
                                             self._xapp_delay("decision-cache")))
            ric.register_xapp(XAppDescriptor("backhaul-assessor",
                                             frozenset({"probe"}),
                                             self._xapp_delay("backhaul-assessor")))
            if dos is not None:
                ric.register_xapp(XAppDescriptor("dos-filter", handled,
                                                 self._xapp_delay("dos-filter")))
            if design == "logic-replication":
                ric.register_xapp(XAppDescriptor("state-auth", handled,
                                                 self._xapp_delay("state-auth")))
                ric.register_xapp(XAppDescriptor(
                    "session-establish", handled,
                    self._xapp_delay("session-establish")))
                if probationary:
                    ric.register_xapp(XAppDescriptor(
                        "probationary", handled,
                        self._xapp_delay("probationary")))
        return ric

    def _home_core(self, network_id: str) -> CoreNetwork:
        if network_id not in self.home_cores:
            base = HOME_ADDRESS_BASE * (len(self.home_cores) + 1)
            self.home_cores[network_id] = CoreNetwork(network_id,
                                                      address_base=base)
        return self.home_cores[network_id]

    def _build_population(self) -> None:
        atk_rng = self.kernel.stream("attacker-keys")
        for spec in self.cfg.ues:
            for i in range(spec.count):
                supi = f"{spec.cohort}-{i + 1:04d}"
                identity = crypto.conceal_identity(supi)
                home = spec.home_network or self.cfg.serving_network
                if spec.behavior == "attacker-flood":
                    usim = UsimState(RootSecret(atk_rng.randbytes(32)))
                else:
                    k = subscriber_root_secret(self.seed, supi)
                    policy = SubscriptionPolicy(
                        allowed_slices=frozenset(spec.allowed_slices),
                        authorized_services=frozenset(spec.authorized_services),
                        qos_class=spec.qos_class)
                    record = SubscriberRecord(identity=identity, root_secret=k,
                                              sequence=SequenceState(),
                                              subscription=policy,
                                              home_network=home)
                    core = (self.serving if home == self.cfg.serving_network
                            else self._home_core(home))
                    core.add_subscriber(record)
                    if spec.corrupt_key:
                        usim = UsimState(RootSecret(atk_rng.randbytes(32)))
                    else:
                        usim = UsimState(k)
                profile = UeProfile(
                    ue_id=supi, cohort=spec.cohort, behavior=spec.behavior,
                    identity=identity, usim=usim, home_network=home,
                    express_eligible=spec.express_eligible,
                    slice_id=spec.slice_id, service=spec.service,
                    period_ms=spec.period_ms, corrupt_key=spec.corrupt_key)
                self.devices[supi] = UeDevice(profile)

    def _decision_maps(self, slice_id: str, qos: str):
        cp = {"registration": {"access-control": "allow",
                               "slice-grant": slice_id},
              "reauth": {"access-control": "allow"}}
        dp = {"registration": {"traffic-steering": "local-upf",
                               "resource-grant": qos},
              "reauth": {"resource-grant": qos}}
        return cp, dp

    def _prewarm_caches(self) -> None:
        if self.ric.decision_cache is None:
            return
        sn = self.cfg.serving_network
        for pw in self.cfg.prewarm:
            for device in self.devices.values():
                p = device.profile
                if p.cohort != pw.cohort or p.behavior == "attacker-flood":
                    continue
                record = self._find_record(p)
                if record is None:
                    continue
                # provisioning models a prior successful authentication
                rand = crypto.prf(record.root_secret.value, "PREWARM", sn.encode())
                k_ausf = crypto.derive_key(record.root_secret.value, "AUSF",
                                           sn.encode() + rand[:16])
                device.learn_hierarchy(k_ausf, sn)
                self._store_cache_entries(device, record, device.k_seaf, 0,
                                          ttl=pw.ttl_ms)

    def _find_record(self, profile: UeProfile) -> SubscriberRecord | None:
        record = self.serving.find_by_suci(profile.identity.suci)
        if record is None and profile.home_network in self.home_cores:
            record = self.home_cores[profile.home_network].find_by_suci(
                profile.identity.suci)
        return record

    def _store_cache_entries(self, device: UeDevice, record: SubscriberRecord,
                             k_seaf: bytes, now: int, ttl: int | None = None) -> None:
        if self.ric.decision_cache is None:
            return
        ttl = ttl if ttl is not None else self.cfg.cache_ttl_ms
        cid = device.identity.cached_id
        cp, dp = self._decision_maps(device.profile.slice_id,
                                     record.subscription.qos_class)
        self.ric.decision_cache.store(DecisionCacheEntry(
            cached_id=cid, k_seaf=k_seaf, control_plane_decisions=cp,
            data_plane_decisions=dp, ttl=ttl, created_at=now))
        if self.ric.state_cache is not None:
            self.ric.state_cache.store(StateCacheEntry(
                cached_id=cid, k_seaf=k_seaf, control_plane_decisions=cp,
                data_plane_decisions=dp, ttl=ttl, created_at=now,
                control_plane_state=record.subscription,
                data_plane_state={"resource-allocation": "standard",
                                  "qos": record.subscription.qos_class},
                snapshot_at=now))
        self.ric.known_ids.add(cid)
        self._edge_holds_kseaf = True

    # -- run ---------------------------------------------------------------

    def run(self) -> MetricsReport:
        if self.ric.assessor is not None:
            self.kernel.schedule(0, self._probe)
        self._schedule_arrivals()
        self.kernel.run_until(self.cfg.horizon_ms)
        # events past the horizon never fire; dropping them frees the
        # actions that refer back to this simulation
        self.kernel.discard_pending()
        for att in self.attempts:
            if not att.finalized:
                self._finalize(att, "timeout")
        return MetricsReport(
            scenario=self.cfg.name, design=self.cfg.design, seed=self.seed,
            rows=self.rows,
            dropped_by_filter=(self.ric.dos_filter.dropped
                               if self.ric.dos_filter else 0),
            audit_flags=self.audit_flags(),
            link_bytes_total=self.link.bytes_total,
            link_msgs_total=self.link.msg_total)

    def _probe(self) -> None:
        self.ric.assessor.assess(self.kernel.now)
        interval = self.cfg.thresholds.probe_interval_ms
        if self.kernel.now + interval <= self.cfg.horizon_ms:
            self.kernel.schedule(interval, self._probe)

    def _schedule_arrivals(self) -> None:
        for spec in self.cfg.ues:
            rng = self.kernel.stream(f"arrival/{spec.cohort}")
            times = cohort_arrival_times(spec.arrival, spec.count,
                                         self.cfg.horizon_ms, rng)
            members = [d for d in self.devices.values()
                       if d.profile.cohort == spec.cohort]
            for device, t0 in zip(members, times):
                if spec.behavior == "periodic-sensor":
                    for t in sensor_attempt_times(t0, spec.period_ms,
                                                  self.cfg.horizon_ms):
                        self._schedule_attempt(device, "registration", t)
                else:
                    self._schedule_attempt(device, "registration", t0)

    def _schedule_attempt(self, device: UeDevice, request_type: str,
                          at: int) -> None:
        delay = at - self.kernel.now
        self.kernel.schedule(delay,
                             lambda: self._start_attempt(device, request_type))

    # -- attempt lifecycle -------------------------------------------------

    def _start_attempt(self, device: UeDevice, request_type: str,
                       force_standard: bool = False) -> Attempt:
        att = Attempt(device=device, request_type=request_type,
                      start=self.kernel.now)
        self.attempts.append(att)
        self.kernel.schedule(self.cfg.request_timeout_ms,
                             lambda: self._finalize(att, "timeout"))
        # one radio hop carries the request from the device to the RAN
        self.kernel.schedule(self.cfg.radio_latency_ms,
                             lambda: self._route_attempt(att, force_standard))
        return att

    def _route_attempt(self, att: Attempt, force_standard: bool) -> None:
        device = att.device
        if force_standard or self.cfg.design in ("baseline", "colocated"):
            decision, reason, entry = RoutingDecision.STANDARD, "forced", None
        else:
            request = RegistrationRequest(
                cached_id=device.identity.cached_id,
                suci=device.identity.suci,
                request_type=("reauth" if att.request_type == "reauth"
                              else "registration"),
                home_network=device.profile.home_network,
                serving_network=self.cfg.serving_network,
                express_eligible=device.profile.express_eligible,
                slice_id=device.profile.slice_id,
                service=device.profile.service)
            decision, reason, entry = self.ric.route_registration(
                request, self.kernel.now)
        self._dispatch_decision(att, decision, reason, entry)

    def _dispatch_decision(self, att: Attempt, decision: RoutingDecision,
                           reason: str,
                           entry: DecisionCacheEntry | None) -> None:
        device = att.device
        att.path = decision.value
        routing_delay = self.ric.xapp_delay("routing")
        if decision is RoutingDecision.STANDARD:
            gen = self._standard_flow(att, device, routing_delay)
        elif decision is RoutingDecision.EXPRESS:
            gen = self._express_flow(att, device, entry,
                                     routing_delay
                                     + self.ric.xapp_delay("decision-cache"))
        elif decision is RoutingDecision.DELEGATED:
            gen = self._delegated_flow(att, device, entry,
                                       routing_delay
                                       + self.ric.xapp_delay("state-auth")
                                       + self.ric.xapp_delay("session-establish"))
        elif decision is RoutingDecision.PROBATIONARY:
            gen = self._probationary_flow(att, device,
                                          routing_delay
                                          + self.ric.xapp_delay("probationary"))
        else:
            outcome = "filtered" if reason in ("filtered", "blacklisted") \
                else "rejected"
            self._finalize(att, outcome)
            return
        self._resume(att, gen)

    def _finalize(self, att: Attempt, outcome: str) -> None:
        if att.finalized:
            return
        att.outcome = outcome
        for inst in att.held_nfs:
            self.serving.release_nf(inst)
        att.held_nfs.clear()
        device = att.device
        self.rows.append(OutcomeRow(
            ue_id=device.profile.ue_id, cohort=device.profile.cohort,
            request_type=att.request_type, outcome=outcome, path=att.path,
            latency_ms=self.kernel.now - att.start,
            backhaul_msgs=att.backhaul_msgs,
            backhaul_bytes=att.backhaul_bytes,
            finished_at=self.kernel.now))
        if att.request_type == "reauth" and outcome != "success":
            # failed re-authentication tears the session down
            cid = device.identity.cached_id
            self.serving.teardown(cid)
            session = self.ran_sessions.get(cid)
            if session is not None:
                session.active = False
            device.session_slice = None
            device.session_services = frozenset()

    # -- flow transport ----------------------------------------------------

    def _resume(self, att: Attempt, gen, value=None) -> None:
        if att.finalized:
            gen.close()
            return
        if self.kernel.now - att.start >= self.cfg.request_timeout_ms:
            self._finalize(att, "timeout")
            gen.close()
            return
        try:
            instr = gen.send(value)
        except StopIteration:
            return
        self._transport(att, gen, instr)

    def _transport(self, att: Attempt, gen, instr) -> None:
        kind = instr[0]
        now = self.kernel.now
        if kind == "bh":
            _, msg, src, dst = instr
            size = self.cfg.message_size(msg)
            if self.colocated:
                self.serving.log(now, src, dst, msg, 0)
                self._later(att, gen, self.cfg.core_hop_latency_ms)
                return
            att.backhaul_msgs += 1
            att.backhaul_bytes += size
            self.serving.log(now, src, dst, msg, size)
            t = self.link.transmit(size, now)
            if t is None:
                return  # lost; the request timeout will finalize the attempt
            self._later(att, gen, t - now)
        elif kind == "home":
            _, msg, src, dst = instr
            size = self.cfg.message_size(msg)
            att.home_msgs += 1
            att.home_bytes += size
            self.serving.log(now, src, dst, msg, size)
            t = self.home_link.transmit(size, now)
            if t is None:
                return
            self._later(att, gen, t - now)
        elif kind == "radio":
            self._later(att, gen, self.cfg.radio_latency_ms)
        elif kind == "hop":
            self._later(att, gen, self.cfg.core_hop_latency_ms)
        elif kind == "delay":
            self._later(att, gen, instr[1])
        else:
            raise ValueError(f"unknown flow instruction {instr!r}")

    def _later(self, att: Attempt, gen, delay: int) -> None:
        self.kernel.schedule(delay, lambda: self._resume(att, gen))

    # -- flows -------------------------------------------------------------

    def _standard_flow(self, att: Attempt, device: UeDevice, routing_delay: int):
        cfg = self.cfg
        sn = cfg.serving_network
        cid = device.identity.cached_id
        full = att.request_type != "reauth"
        if routing_delay and cfg.design in ("decision-cache",
                                            "logic-replication"):
            yield ("delay", routing_delay)
        yield ("bh", "REG_REQUEST", "ran", "amf")
        amf = self.serving.select_nf("AMF")
        att.held_nfs.append(amf)
        yield ("hop",)  # AMF -> AUSF
        ausf = self.serving.select_nf("AUSF")
        att.held_nfs.append(ausf)

        record = self.serving.find_by_suci(device.identity.suci)
        if record is None:
            home = self.home_cores.get(device.profile.home_network)
            record = (home.find_by_suci(device.identity.suci)
                      if home is not None else None)
            if record is None:
                yield ("bh", "REG_REJECT", "amf", "ran")
                yield ("radio",)
                self._finalize(att, "subscriber-not-found")
                return
            yield ("home", "AV_REQUEST", "ausf", f"{record.home_network}-udm")
            av = crypto.generate_av(record.root_secret, record.sequence, sn,
                                    self.kernel.stream("av"))
            yield ("home", "AV_RESPONSE", f"{record.home_network}-udm", "ausf")
        else:
            yield ("hop",)  # AUSF -> UDM
            av = crypto.generate_av(record.root_secret, record.sequence, sn,
                                    self.kernel.stream("av"))
            yield ("hop",)  # UDM -> AUSF
        k_seaf = crypto.derive_k_seaf(av.k_derived, sn)
        yield ("hop",)  # AUSF -> SEAF

        yield ("bh", "AUTH_CHALLENGE", "seaf", "ran")
        yield ("radio",)
        try:
            response = device.respond_to_challenge(av.rand, av.autn)
        except MacFailure:
            yield ("radio",)
            yield ("bh", "AUTH_FAILURE", "ran", "seaf")
            self._finalize(att, "mac-failure")
            return
        except SyncFailure:
            yield ("radio",)
            yield ("bh", "AUTH_FAILURE", "ran", "seaf")
            self._finalize(att, "sync-failure")
            return
        yield ("radio",)
        yield ("bh", "AUTH_RESPONSE", "ran", "seaf")
        if response != av.xres:
            yield ("bh", "AUTH_REJECT", "seaf", "ran")
            yield ("radio",)
            self._finalize(att, "mac-failure")
            return

        hierarchy = crypto.build_hierarchy(av.k_derived, sn, cid)
        self.serving.seaf_hierarchies[cid] = hierarchy
        device.derive_hierarchy_from_challenge(av.rand, sn)

        yield ("bh", "AUTH_RESULT", "seaf", "ran")
        yield ("radio",)
        if not full:
            self._store_cache_entries(device, record, k_seaf, self.kernel.now)
            self._finalize(att, "success")
            self._after_success(att, device)
            return

        yield ("radio",)
        yield ("bh", "SESSION_REQUEST", "ran", "amf")
        yield ("hop",)  # AMF -> SMF
        yield ("hop",)  # SMF -> PCF (policy hop, no-op)
        yield ("hop",)  # SMF -> UPF
        try:
            session = self.serving.establish_session(
                cid, record.subscription, device.profile.slice_id,
                device.profile.service, self.kernel.now)
        except (PolicyDenied, AuthRequired):
            yield ("bh", "SESSION_REJECT", "smf", "ran")
            yield ("radio",)
            self._finalize(att, "policy-denied")
            return
        yield ("bh", "SESSION_ACCEPT", "smf", "ran")
        yield ("radio",)
        device.session_slice = session.slice_id
        device.session_services = session.services
        self._store_cache_entries(device, record, k_seaf, self.kernel.now)
        self._finalize(att, "success")
        if att.request_type == "deferred":
            self._complete_probationary_upgrade(device, record, k_seaf)
        self._after_success(att, device)

    def _after_success(self, att: Attempt, device: UeDevice) -> None:
        if device.profile.behavior in ("interactive", "roamer"):
            next_at = self.kernel.now + self.cfg.reauth_interval_ms
            if next_at <= self.cfg.horizon_ms:
                self._schedule_attempt(device, "reauth", next_at)

    def _local_challenge(self, device: UeDevice, entry: DecisionCacheEntry,
                         delay_ms: int):
        """Challenge the device against the cached K_SEAF; True iff it passes."""
        yield ("delay", delay_ms)
        nonce = self.ric.next_nonce(self.kernel.stream("express-nonce"))
        yield ("radio",)  # challenge to the device
        mac = device.express_response(nonce)
        yield ("radio",)  # response back
        expected = crypto.express_response_mac(entry.k_seaf,
                                               device.identity.cached_id, nonce)
        return mac is not None and mac == expected

    def _express_flow(self, att: Attempt, device: UeDevice,
                      entry: DecisionCacheEntry, delay_ms: int):
        if not (yield from self._local_challenge(device, entry, delay_ms)):
            self._finalize(att, "rejected")
            return
        if not entry.live(self.kernel.now):
            # entry expired mid-flow: fall back to the routing procedure
            self._route_attempt(att, force_standard=False)
            return
        slice_id = entry.control_plane_decisions.get(
            "registration", {}).get("slice-grant", device.profile.slice_id)
        self._grant_local_session(device, slice_id,
                                  device.session_services or
                                  frozenset({device.profile.service or "data"}))
        yield ("radio",)  # grant
        self._finalize(att, "success")
        self._after_success(att, device)

    def _delegated_flow(self, att: Attempt, device: UeDevice,
                        entry: StateCacheEntry, delay_ms: int):
        if not (yield from self._local_challenge(device, entry, delay_ms)):
            self._finalize(att, "rejected")
            return
        policy = entry.control_plane_state
        if device.profile.slice_id not in policy.allowed_slices:
            self._finalize(att, "policy-denied")
            return
        service = device.profile.service
        if service is not None and service not in policy.authorized_services:
            self._finalize(att, "policy-denied")
            return
        self._grant_local_session(device, device.profile.slice_id,
                                  policy.authorized_services)
        self.ric.log_access(self.kernel.now, device.identity.cached_id,
                            "delegated-grant",
                            device.profile.slice_id)
        yield ("radio",)
        self._finalize(att, "success")
        self._after_success(att, device)

    def _probationary_flow(self, att: Attempt, device: UeDevice, delay_ms: int):
        yield ("delay", delay_ms)
        prob = self.cfg.probationary
        cid = device.identity.cached_id
        self._grant_local_session(device, prob.slice_id,
                                  frozenset(prob.services))
        self.ric.log_access(self.kernel.now, cid, "probationary-admit",
                            f"{prob.slice_id}:{','.join(sorted(prob.services))}")
        yield ("radio",)
        self._finalize(att, "success")
        self._schedule_deferred_poll(device)

    def _grant_local_session(self, device: UeDevice, slice_id: str,
                             services: frozenset[str]) -> None:
        cid = device.identity.cached_id
        session = self.ran_sessions.get(cid)
        if session is None or not session.active:
            session = SessionRecord(
                cached_id=cid, slice_id=slice_id,
                assigned_address=self._ran_next_address,
                upf_id="ran-local-upf", qos_class="best-effort",
                established_at=self.kernel.now, services=services,
                locally_granted=True)
            self._ran_next_address += 1
            self.ran_sessions[cid] = session
        else:
            session.slice_id = slice_id
            session.services = services
        device.session_slice = slice_id
        device.session_services = services

    # -- probationary lifecycle --------------------------------------------

    def _schedule_deferred_poll(self, device: UeDevice) -> None:
        interval = self.cfg.thresholds.probe_interval_ms
        if self.kernel.now + interval <= self.cfg.horizon_ms:
            self.kernel.schedule(interval, lambda: self._poll_deferred(device))

    def _poll_deferred(self, device: UeDevice) -> None:
        session = self.ran_sessions.get(device.identity.cached_id)
        if session is None or not session.active:
            return
        if session.slice_id != self.cfg.probationary.slice_id:
            return  # already upgraded
        ue_id = device.profile.ue_id
        if ue_id not in self._deferred_inflight \
                and self.ric.assessor is not None:
            health = self.ric.assessor.current(self.kernel.now)
            if health.reachable:
                self._deferred_inflight.add(ue_id)
                att = self._start_attempt(device, "deferred",
                                          force_standard=True)
                self._watch_deferred(att)
        self._schedule_deferred_poll(device)

    def _watch_deferred(self, att: Attempt) -> None:
        """Check every probe interval; settle the session once att ends."""
        if not att.finalized:
            self.kernel.schedule(self.cfg.thresholds.probe_interval_ms,
                                 lambda: self._watch_deferred(att))
            return
        self._deferred_inflight.discard(att.device.profile.ue_id)
        if att.outcome in ("mac-failure", "sync-failure",
                           "subscriber-not-found"):
            self._terminate_probationary(att.device, att.outcome)

    def _complete_probationary_upgrade(self, device: UeDevice,
                                       record: SubscriberRecord,
                                       k_seaf: bytes) -> None:
        cid = device.identity.cached_id
        session = self.ran_sessions.get(cid)
        if session is not None:
            session.slice_id = device.profile.slice_id
            session.services = record.subscription.authorized_services
            session.locally_granted = False
        device.session_slice = device.profile.slice_id
        device.session_services = record.subscription.authorized_services
        self.ric.log_access(
            self.kernel.now, cid, "upgraded",
            f"{device.profile.slice_id}:"
            f"{','.join(sorted(record.subscription.authorized_services))}")

    def _terminate_probationary(self, device: UeDevice, reason: str) -> None:
        cid = device.identity.cached_id
        session = self.ran_sessions.get(cid)
        if session is not None:
            session.active = False
        device.session_slice = None
        device.session_services = frozenset()
        self.ric.blacklist.add(cid)
        self.ric.log_access(self.kernel.now, cid, "terminated", reason)

    # -- audit -------------------------------------------------------------

    def audit_flags(self) -> list[str]:
        if self.colocated:
            return ["root-secret-at-edge"]
        if self._edge_holds_kseaf:
            return ["k-seaf-at-edge"]
        return []
