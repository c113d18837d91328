"""The chaos controller: injection, crash bookkeeping, and the failure
detector.

One controller exists per :class:`~repro.core.cluster.DexCluster` when
``DEX_CHAOS`` (or ``SimParams.chaos``/``chaos_scenario``) enables the
subsystem; when it is off the cluster holds ``None`` and every hook in the
fabric reduces to one ``is None`` check, keeping sim time bit-identical.

Three concerns live here:

* **Injection** — :meth:`ChaosController.on_deliver` is consulted by the
  fabric at delivery time and turns scenario rules into a
  :class:`ChaosVerdict` (drop / extra delay / duplicate / reorder);
  predicate crash rules also fire here.
* **Fail-stop** — :meth:`crash` marks a node dead.  The fabric drops
  everything the dead node sends or would receive; threads executing there
  halt mid-instruction (parked, not failed — the origin has not noticed
  yet).
* **Detection & recovery** — remote workers renew a per-(process, node)
  lease with ``LEASE_RENEW`` keepalives; an origin-side monitor declares a
  node failed after ``lease_timeout_us`` of silence (retry exhaustion in
  the transport is the second detection path).  Declaring failure aborts
  in-flight requests toward the node and runs
  :func:`repro.chaos.recovery.recover_process` on every process.

The keepalive and monitor are self-rescheduling engine callbacks, not
processes: they stop re-arming when the cluster goes idle (so
``engine.run()`` still terminates) and resume on the next ``simulate``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.chaos.scenario import ChaosError, ChaosRule, ChaosScenario
from repro.core.errors import NodeFailedError
from repro.net.messages import Message, MsgType
from repro.obs.metrics import MetricsRegistry


class ChaosVerdict:
    """What the fabric should do with one delivery."""

    __slots__ = ("drop", "duplicate", "reorder", "extra_delay_us")

    def __init__(self) -> None:
        self.drop = False
        self.duplicate = False
        self.reorder = False
        self.extra_delay_us = 0.0


class ThreadHalt:
    """Interrupt cause for threads on a fail-stopped node: the thread
    parks forever on :attr:`parked` (the node ceased to exist) until the
    origin's recovery fails its process event with the diagnostic."""

    halts_thread = True

    def __init__(self, engine: Any, node: int):
        self.node = node
        self.parked = engine.event(name=f"halted@n{node}")


class _Lease:
    __slots__ = ("proc", "node", "last_renew", "ticking")

    def __init__(self, proc: Any, node: int, now: float):
        self.proc = proc
        self.node = node
        self.last_renew = now
        self.ticking = False


class ChaosController:
    """Per-cluster fault injector and failure detector."""

    def __init__(self, engine: Any, params: Any, scenario: ChaosScenario):
        self.engine = engine
        self.params = params
        self.scenario = scenario.validate()
        self.cluster: Optional[Any] = None
        self.net: Optional[Any] = None
        #: ground truth: nodes that fail-stopped
        self.crashed: Set[int] = set()
        #: what the origin has detected (and fenced + reclaimed)
        self.failed: Set[int] = set()
        #: human-readable (sim_time, what) log for harness reports
        self.events: List[Tuple[float, str]] = []
        self._wire_rules = [r for r in scenario.rules if not r.scheduled]
        self._scheduled_rules = [r for r in scenario.rules if r.scheduled]
        self._leases: Dict[Tuple[int, int], _Lease] = {}
        self._services_active = False
        self._monitor_ticking = False
        #: in-flight requests by destination, failed fast on detection
        self._pending_to: Dict[int, Dict[int, Any]] = {}
        self.metrics = MetricsRegistry()
        self.injections = self.metrics.counter(
            "chaos_injections_total", "faults injected by the scenario",
            labelnames=("kind",),
        )
        self.retransmissions = self.metrics.counter(
            "chaos_retransmissions_total", "request retransmissions")
        self.request_acks = self.metrics.counter(
            "chaos_request_acks_total", "duplicate-request acks sent")
        self.replies_resent = self.metrics.counter(
            "chaos_replies_resent_total", "cached replies re-sent")
        self.lease_renewals = self.metrics.counter(
            "chaos_lease_renewals_total", "keepalives posted")
        self.lease_expiries = self.metrics.counter(
            "chaos_lease_expiries_total", "leases that timed out")
        self.node_failures = self.metrics.counter(
            "chaos_node_failures_total", "nodes declared failed")
        self.requests_aborted = self.metrics.counter(
            "chaos_requests_aborted_total",
            "in-flight requests failed by the detector")
        self.suppressed_sends = self.metrics.counter(
            "chaos_suppressed_sends_total", "sends discarded at dead nodes")

    # -- wiring ----------------------------------------------------------

    def attach(self, cluster: Any) -> None:
        self.cluster = cluster
        self.net = cluster.net
        for rule in self._scheduled_rules:
            if rule.fired:
                continue  # consumed by an earlier run of this scenario
            when = max(rule.at_us or 0.0, self.engine.now)
            self.engine._schedule_at(when, self._fire_scheduled_crash, rule)

    def _fire_scheduled_crash(self, rule: ChaosRule) -> None:
        if rule.fired:
            return
        rule.fired += 1
        self.crash(rule.node, f"scenario: {rule.describe()}")

    # -- fail-stop -------------------------------------------------------

    def is_fenced(self, node: int) -> bool:
        """Dead for fabric purposes: fail-stopped, or declared failed and
        fenced off so a wrongly-suspected node cannot disturb reclaimed
        state."""
        return node in self.crashed or node in self.failed

    def crash(self, node: int, reason: str = "") -> None:
        """Fail-stop *node*: from this instant it sends nothing, receives
        nothing, and every thread executing on it halts mid-instruction."""
        if node in self.crashed:
            return
        if node == 0:
            raise ChaosError("cannot crash node 0 (the origin)")
        self.crashed.add(node)
        self.injections.labels(kind="crash").inc()
        self._log(f"node {node} fail-stop ({reason or 'unscheduled'})")
        if self.cluster is None:
            return
        for proc in self.cluster.processes.values():
            for thread in proc.threads:
                if thread.alive and thread.current_node == node:
                    thread.sim_process.interrupt(ThreadHalt(self.engine, node))

    # -- injection (called from the fabric's send path and flights) -------

    def on_send(self, msg: Message) -> bool:
        """True if the send must be suppressed (source is dead/fenced)."""
        if self.is_fenced(msg.src):
            self.suppressed_sends.inc()
            return True
        return False

    def on_deliver(self, msg: Message, wire_bytes: int) -> Optional[ChaosVerdict]:
        """Consult the scenario for one delivery; None means 'untouched'."""
        verdict: Optional[ChaosVerdict] = None
        now = self.engine.now
        for rule in self._wire_rules:
            if not rule.matches(msg, now):
                continue
            rule.matched += 1
            if not rule.should_fire(self.engine.rng):
                continue
            rule.fired += 1
            if rule.kind == "crash":
                self.crash(rule.node, f"scenario: {rule.describe()}")
                continue
            if verdict is None:
                verdict = ChaosVerdict()
            self.injections.labels(kind=rule.kind).inc()
            if rule.kind == "drop":
                verdict.drop = True
            elif rule.kind == "duplicate":
                verdict.duplicate = True
            elif rule.kind == "reorder":
                verdict.reorder = True
            elif rule.kind == "delay":
                verdict.extra_delay_us += rule.delay_us
            elif rule.kind == "degrade":
                # modeled as the extra serialization time of a link running
                # at 1/factor of its bandwidth
                extra = wire_bytes / self.params.link_bandwidth * (rule.factor - 1.0)
                verdict.extra_delay_us += extra
            with self.engine.span(
                f"chaos.{rule.kind}", node=msg.dst,
                msg_type=msg.msg_type.value, src=msg.src, msg_id=msg.msg_id,
            ):
                pass
        # fail-stop fencing is a delivery effect too: nothing is delivered
        # to — or accepted from — a dead node
        if verdict is None or not verdict.drop:
            if self.is_fenced(msg.dst) or self.is_fenced(msg.src):
                if verdict is None:
                    verdict = ChaosVerdict()
                verdict.drop = True
        return verdict

    # -- retry-transport accounting ---------------------------------------

    def track_request(self, msg: Message, reply_event: Any) -> None:
        self._pending_to.setdefault(msg.dst, {})[msg.msg_id] = reply_event

    def untrack_request(self, msg: Message) -> None:
        pending = self._pending_to.get(msg.dst)
        if pending is not None:
            pending.pop(msg.msg_id, None)

    def note_retransmit(self, msg: Message, attempt: int) -> None:
        self.retransmissions.inc()

    def inflight_requests(self) -> int:
        """Reliable requests currently awaiting a reply, across all
        destinations (read-only; the DexScope in-flight gauge)."""
        return sum(len(pending) for pending in self._pending_to.values())

    def note_unreachable(self, node: int, msg: Message) -> None:
        """Retry exhaustion: the second detection path next to the lease."""
        self.declare_failed(
            node,
            f"no reply to {msg.msg_type.value}#{msg.msg_id} after "
            f"{self.params.retry_max_attempts} attempts",
        )

    # -- lease / keepalive failure detector --------------------------------

    def register_lease(self, proc: Any, node: int) -> None:
        """Start (or refresh) the keepalive for a remote worker of *proc*
        at *node*.  Called when migration creates the worker."""
        key = (proc.pid, node)
        lease = self._leases.get(key)
        if lease is None:
            lease = _Lease(proc, node, self.engine.now)
            self._leases[key] = lease
        else:
            lease.last_renew = self.engine.now
        if not self._services_active:
            # between simulate phases (or after the main thread finished):
            # record the lease but do not tick — a self-rescheduling tick
            # with nobody left to suspend it would keep the queue alive
            # forever.  resume_services re-arms it on the next phase.
            return
        self._start_lease(lease)
        if not self._monitor_ticking:
            self._monitor_ticking = True
            self.engine._schedule_at(
                self.engine.now + self.params.lease_check_us, self._monitor_tick
            )

    def _start_lease(self, lease: _Lease) -> None:
        if lease.ticking:
            return
        lease.ticking = True
        self.engine._schedule_at(
            self.engine.now + self.params.lease_interval_us,
            self._keepalive_tick, lease,
        )

    def _keepalive_tick(self, lease: _Lease) -> None:
        if not self._services_active:
            lease.ticking = False
            return
        proc, node = lease.proc, lease.node
        if node not in proc.nodes_with_worker:
            # worker exited cleanly (or was reclaimed); lease is over
            lease.ticking = False
            self._leases.pop((proc.pid, node), None)
            return
        if not self.is_fenced(node):
            # the renewal is a real message: a dead node cannot send it,
            # which is exactly how the origin finds out
            self.lease_renewals.inc()
            self.net.post(Message(
                MsgType.LEASE_RENEW, src=node, dst=proc.origin,
                payload={"pid": proc.pid, "node": node},
            ))
        self.engine._schedule_at(
            self.engine.now + self.params.lease_interval_us,
            self._keepalive_tick, lease,
        )

    def on_lease_renew(self, pid: int, node: int) -> None:
        """Origin-side handler effect for a received LEASE_RENEW."""
        lease = self._leases.get((pid, node))
        if lease is not None:
            lease.last_renew = self.engine.now

    def _monitor_tick(self) -> None:
        if not self._services_active or not self._leases:
            self._monitor_ticking = False
            return
        now = self.engine.now
        for (pid, node), lease in list(self._leases.items()):
            if node in self.failed:
                continue
            silence = now - lease.last_renew
            if silence > self.params.lease_timeout_us:
                self.lease_expiries.inc()
                self.declare_failed(
                    node, f"lease expired ({silence:.1f}us without renewal)"
                )
        self.engine._schedule_at(now + self.params.lease_check_us, self._monitor_tick)

    def suspend_services(self) -> None:
        """Stop re-arming keepalive/monitor ticks (cluster going idle)."""
        self._services_active = False

    def resume_services(self) -> None:
        """Mark a ``simulate`` phase active and re-arm any leases."""
        self._services_active = True
        if not self._leases:
            return
        now = self.engine.now
        for lease in self._leases.values():
            lease.last_renew = now
            self._start_lease(lease)
        if not self._monitor_ticking:
            self._monitor_ticking = True
            self.engine._schedule_at(
                now + self.params.lease_check_us, self._monitor_tick
            )

    # -- detection & recovery ----------------------------------------------

    def declare_failed(self, node: int, reason: str) -> None:
        """The origin gives up on *node*: fence it, abort everything
        waiting on it, and reclaim what it held."""
        if node in self.failed:
            return
        self.failed.add(node)
        self.node_failures.inc()
        self._log(f"node {node} declared failed: {reason}")
        with self.engine.span("chaos.node_failed", node=node, reason=reason):
            pass
        exc = NodeFailedError(node, reason)
        for reply_event in list(self._pending_to.pop(node, {}).values()):
            if not reply_event.triggered:
                self.requests_aborted.inc()
                reply_event.fail(exc)
        if self.cluster is not None:
            from repro.chaos.recovery import recover_process

            for proc in list(self.cluster.processes.values()):
                recover_process(self, proc, node, reason)

    # -- reporting ---------------------------------------------------------

    def _log(self, what: str) -> None:
        self.events.append((self.engine.now, what))

    def report(self) -> Dict[str, Any]:
        injected = self.injections.value_by_label()
        return {
            "injections": injected,
            "retransmissions": self.retransmissions.value,
            "request_acks": self.request_acks.value,
            "replies_resent": self.replies_resent.value,
            "lease_renewals": self.lease_renewals.value,
            "lease_expiries": self.lease_expiries.value,
            "node_failures": self.node_failures.value,
            "requests_aborted": self.requests_aborted.value,
            "suppressed_sends": self.suppressed_sends.value,
            "crashed": sorted(self.crashed),
            "failed": sorted(self.failed),
            "events": [f"t={t:.1f}us {what}" for t, what in self.events],
        }
