"""DexScope: deterministic sim-time utilization sampling.

The scope is the time-series telemetry layer: where DexTrace answers
"what happened on this request" and DexLens "what is hot right now",
the scope answers "how loaded was each part of the rack *over time*" —
the signal the adaptation recipe of §IV (and the planned online
balancer / DexServe SLO reporting) needs.

A :class:`DexScope` registers one sampler on the engine's sampling grid
(:meth:`repro.sim.engine.Engine.add_sampler`): every ``INTERVAL_US``
of simulated time it reads

* per-node CPU busy fraction and run-queue depth (the cores
  :class:`~repro.sim.resources.Resource`), and live thread residency
  (:func:`repro.core.thread.threads_by_node`);
* per-NIC transmit utilization and per-link occupancy / mean queueing
  delay (fed by the engine's ``wire`` probe, :meth:`on_wire`);
* per-shard directory request rates
  (:meth:`repro.core.directory.CoherenceDirectory.requests_by_home`);
* retry/chaos in-flight request counts
  (``ChaosController.inflight_requests``) and retransmissions;
* the engine's own queue length and scheduling rate; and
* a snapshot of every process :class:`MetricsRegistry` counter.

Samples land in bounded :class:`~repro.obs.ring.SeriesRing` time series
(fixed memory, pairwise decay) — the one record of a sample, read by the
manifest's ``series`` section and the Perfetto counter tracks.  The
module constants size them; no ``SimParams`` field does.

Everything here is **read-only** over the model: the sampler fires
between dispatches, schedules nothing, and draws no randomness, so a
sampled run is bit-identical to an unsampled one (asserted by
``tests/test_obs_scope.py``).  When the scope is off
(``SimParams.scope=""`` / ``DEX_SCOPE`` unset) no object exists: the
engine compares one float against ``+inf`` per dispatch and the fabric
tests its empty ``wire`` list.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.obs.ring import SeriesRing

__all__ = ["DexScope"]

#: synthetic Perfetto process id for series not owned by a single node
CLUSTER_PID = 9999
#: sim-time between samples (the grid the sampler fires on)
INTERVAL_US = 500.0
#: stored points per series; on overflow adjacent points merge and the
#: accept stride doubles, so a fixed buffer covers the whole run
SERIES_POINTS = 512
#: hard cap on distinct series keys (per-link series scale O(nodes^2));
#: a refused sample is counted in ``series_dropped``
MAX_SERIES = 4096

class DexScope:
    """Periodic utilization sampler for one cluster (see module doc)."""

    def __init__(self, cluster: Any):
        self.cluster = cluster
        self.interval_us = INTERVAL_US
        self.samples = 0
        #: series not created because the key cap was hit (never silent)
        self.series_dropped = 0
        self.series: Dict[str, SeriesRing] = {}
        self._series_pid: Dict[str, int] = {}
        #: cumulative readings at the previous sample, for rate deltas
        self._last: Dict[str, float] = {}
        self._last_t = 0.0
        #: per-link [msgs, measured wire us, ideal serialization us]
        #: accumulated by the fabric between samples (see on_wire)
        self._wire_wait: Dict[Tuple[int, int], List[float]] = {}
        self._link_bw = float(cluster.params.link_bandwidth)

        #: DexServe feed (a ServeManager), or None when no serving run is
        #: attached — the common case costs one None check per sample
        self._serve: Any = None
        #: Perfetto track names for serve-owned pids (metadata emission)
        self._serve_tracks: Dict[int, str] = {}

        cluster.engine.add_sampler(self.on_sample, self.interval_us)
        cluster.engine.add_hook(self)

    def attach_serve(self, feed: Any) -> None:
        """Register a DexServe manager: its :meth:`scope_series` is read
        on every sample and its tenants get their own Perfetto tracks."""
        self._serve = feed

    def detach(self) -> None:
        """The run is over (``DexCluster.close``): let go of the cluster
        and the serve feed the sampler read; the series stay."""
        self.cluster = self._serve = None

    # -- fabric feed --------------------------------------------------------

    def on_wire(self, conn: Any, wire_bytes: int, wait_us: float) -> None:
        """Called by the fabric (scope on only) after a message serialized
        onto its link: *wait_us* is the measured fair-share service time;
        the ideal (uncontended) serialization time is accumulated alongside
        so the sampler can report the queueing excess."""
        acc = self._wire_wait.get((conn.src, conn.dst))
        if acc is None:
            acc = self._wire_wait[(conn.src, conn.dst)] = [0.0, 0.0, 0.0]
        acc[0] += 1.0
        acc[1] += wait_us
        acc[2] += wire_bytes / self._link_bw

    # -- the sampler ---------------------------------------------------------

    def _push(self, key: str, t: float, value: float, agg: str,
              pid: int = CLUSTER_PID) -> None:
        ring = self.series.get(key)
        if ring is None:
            if len(self.series) >= MAX_SERIES:
                self.series_dropped += 1
                return
            ring = self.series[key] = SeriesRing(SERIES_POINTS, agg=agg)
            self._series_pid[key] = pid
        ring.push(t, value)

    def on_sample(self, t: float) -> None:
        """One grid firing (engine sampler hook).  Strictly read-only."""
        cluster = self.cluster
        push = self._push
        last = self._last
        dt = t - self._last_t if self.samples else self.interval_us
        if dt <= 0.0:
            dt = self.interval_us
        self._last_t = t
        self.samples += 1

        # per-node cores: busy fraction + run-queue depth
        for node in cluster.nodes:
            n = node.node_id
            cores = node.cores
            push(f"node{n}.busy_frac", t, cores.in_use / cores.capacity,
                 "mean", n)
            push(f"node{n}.runq", t, float(cores.queued), "mean", n)

        # live thread residency (compute-follows-data placement signal)
        from repro.core.thread import threads_by_node

        residency: Dict[int, int] = {}
        for proc in cluster.processes.values():
            for n, count in threads_by_node(proc).items():
                residency[n] = residency.get(n, 0) + count
        for n, count in residency.items():
            push(f"node{n}.threads", t, float(count), "mean", n)

        # per-NIC transmit utilization (served-bytes delta over capacity)
        for nic in cluster.net.nics:
            served = nic.tx.total_served
            key = f"nic{nic.node_id}.tx_util"
            if served or key in self.series:
                util = (served - last.get(key, 0.0)) / (nic.tx.capacity * dt)
                last[key] = served
                push(key, t, util, "mean", nic.node_id)

        # per-link occupancy (bytes-on-wire delta over capacity)
        for (src, dst), conn in cluster.net.connections.items():
            key = f"link{src}->{dst}.occupancy"
            if conn.bytes_on_wire or key in self.series:
                occ = (conn.bytes_on_wire - last.get(key, 0.0)) / (
                    self._link_bw * dt)
                last[key] = conn.bytes_on_wire
                push(key, t, occ, "mean", src)

        # per-link queueing delay (measured wire wait minus ideal
        # serialization, per message, over the elapsed interval)
        for (src, dst), acc in self._wire_wait.items():
            msgs, wait_us, ideal_us = acc
            if msgs:
                excess = max(wait_us - ideal_us, 0.0) / msgs
                acc[0] = acc[1] = acc[2] = 0.0
            else:
                excess = 0.0
            push(f"link{src}->{dst}.queue_us", t, excess, "mean", src)

        # per-shard directory request rate
        for proc in cluster.processes.values():
            for home, served in (
                proc.protocol.directory.requests_by_home().items()
            ):
                key = f"dir.home{home}.req_per_ms"
                rate = (served - last.get(key, 0.0)) * 1000.0 / dt
                last[key] = served
                push(key, t, rate, "mean", home)

        # retry/chaos in-flight accounting
        chaos = cluster.chaos
        if chaos is not None:
            push("retry.inflight", t, float(chaos.inflight_requests()), "mean")
            retx = chaos.retransmissions.value
            if retx or "chaos.retransmits" in self.series:
                push("chaos.retransmits", t, float(retx), "last")

        # engine health: queue length + scheduling rate
        engine = cluster.engine
        push("engine.queue_len", t,
             float(len(engine._queue) + len(engine._fastlane)), "mean")
        seq = float(engine._seq)
        push("engine.sched_per_us", t, (seq - last.get("seq", 0.0)) / dt,
             "mean")
        last["seq"] = seq

        # MetricsRegistry snapshot: every nonzero process counter, as a
        # cumulative series (agg="last" keeps the latest total per point)
        totals: Dict[str, float] = {}
        for proc in cluster.processes.values():
            proc.stats.registry.counter_totals(totals)
        for name, value in totals.items():
            if value or f"stats.{name}" in self.series:
                push(f"stats.{name}", t, float(value), "last")
        faults = totals.get("faults_read", 0.0) + totals.get(
            "faults_write", 0.0)
        push("faults.per_ms", t,
             (faults - last.get("faults", 0.0)) * 1000.0 / dt, "mean")
        last["faults"] = faults

        # DexServe feed: per-tenant queue depth / in-flight / admission
        # decisions, one synthetic Perfetto process (track) per tenant
        if self._serve is not None:
            for key, value, agg, pid, track in self._serve.scope_series():
                if pid not in self._serve_tracks:
                    self._serve_tracks[pid] = track
                push(key, t, value, agg, pid)

    # -- export ---------------------------------------------------------------

    def series_dict(self) -> Dict[str, Dict[str, Any]]:
        """Every series as plain JSON data (the manifest's ``series``
        section), keyed by series name, with the grid interval attached."""
        out: Dict[str, Dict[str, Any]] = {}
        for key in sorted(self.series):
            doc = self.series[key].to_dict()
            doc["interval_us"] = self.interval_us
            out[key] = doc
        return out

    def counter_events(self) -> List[Dict[str, Any]]:
        """Perfetto counter-track events (``"ph": "C"``), one track per
        series: per-node series attach to that node's process track, the
        rest to a synthetic ``cluster (DexScope)`` track.  Merge into a
        Chrome trace document via ``chrome_trace(spans, counters=...)``."""
        events: List[Dict[str, Any]] = []
        if any(pid == CLUSTER_PID for pid in self._series_pid.values()):
            events.append({
                "name": "process_name", "ph": "M", "pid": CLUSTER_PID,
                "tid": 0, "args": {"name": "cluster (DexScope)"},
            })
        for pid in sorted(self._serve_tracks):
            events.append({
                "name": "process_name", "ph": "M", "pid": pid,
                "tid": 0, "args": {"name": self._serve_tracks[pid]},
            })
        for key in sorted(self.series):
            pid = self._series_pid[key]
            for ts, value in self.series[key].points():
                events.append({
                    "name": key, "ph": "C", "pid": pid, "ts": ts,
                    "args": {"value": value},
                })
        return events
