"""Scheduler-initiated automatic migration (§III-A / §VII outlook).

"In the current implementation, both forward and backward migration are
initiated by a system call.  We believe that it can be easily extended so
that OS schedulers or user-space libraries automatically initiate the
migration."  This module is that extension: policies that watch the
running process and *ask threads to migrate themselves* at their next
safe point.

Because a thread's context can only be captured at a quiescent point (a
system call boundary in the real kernel), policies do not teleport
threads; they post a *migration hint* that the thread honours by calling
``yield from ctx.checkpoint()`` wherever the application is happy to be
moved (loop heads, typically).  Two policies are provided:

* :class:`LoadBalancer` — even out runnable threads per node, the classic
  SSI load-balancing goal (Kerrighed/MOSIX style, §VI).
* :class:`AffinityBalancer` — move computation near its data (§VII:
  "relocating the computation near data"): each thread is steered toward
  the node whose pages it faults against the most, using the §IV fault
  trace as the signal.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import TYPE_CHECKING, Dict, Generator, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.process import DexProcess
    from repro.core.thread import DexThread


class MigrationHints:
    """Mailbox of pending migration targets, one slot per thread."""

    def __init__(self) -> None:
        self._targets: Dict[int, int] = {}

    def post(self, tid: int, node: int) -> None:
        self._targets[tid] = node

    def take(self, tid: int) -> Optional[int]:
        return self._targets.pop(tid, None)

    def pending(self) -> int:
        return len(self._targets)


class LoadBalancer:
    """Keep the number of live threads per node even.

    ``rebalance()`` inspects current thread placement and posts hints that
    move threads from the most- to the least-loaded nodes.  Threads honour
    hints at their next ``ctx.checkpoint()``.
    """

    def __init__(self, proc: "DexProcess", nodes: Optional[List[int]] = None):
        self.proc = proc
        self.nodes = list(range(proc.cluster.num_nodes)) if nodes is None else list(nodes)
        self.hints = proc.migration_hints
        self.rebalances = 0

    def _placement(self) -> Dict[int, List["DexThread"]]:
        placement: Dict[int, List] = {n: [] for n in self.nodes}
        for thread in self.proc.threads:
            if thread.alive and thread.current_node in placement:
                placement[thread.current_node].append(thread)
        return placement

    def imbalance(self) -> int:
        placement = self._placement()
        counts = [len(v) for v in placement.values()]
        return max(counts) - min(counts) if counts else 0

    def rebalance(self) -> int:
        """Post hints until no node has 2+ more threads than another.
        Returns how many hints were posted."""
        posted = 0
        placement = self._placement()
        while True:
            busiest = max(self.nodes, key=lambda n: len(placement[n]))
            idlest = min(self.nodes, key=lambda n: len(placement[n]))
            if len(placement[busiest]) - len(placement[idlest]) < 2:
                break
            thread = placement[busiest].pop()
            placement[idlest].append(thread)
            self.hints.post(thread.tid, idlest)
            posted += 1
        if posted:
            self.rebalances += 1
        return posted

    def run(self, interval_us: float, until: float) -> Generator:
        """A daemon process: rebalance every *interval_us* until *until*
        (spawn with ``cluster.engine.process(balancer.run(...))``)."""
        engine = self.proc.cluster.engine
        while engine.now < until:
            yield interval_us
            self.rebalance()


class AffinityBalancer:
    """Steer each thread toward the node it exchanges the most pages with.

    Uses the directory's view of page ownership at fault time, recorded by
    the fault tracer: a thread whose faults keep pulling pages owned by
    node *k* would be cheaper to run *on* node *k*.
    """

    def __init__(self, proc: "DexProcess", min_faults: int = 8):
        self.proc = proc
        self.hints = proc.migration_hints
        self.min_faults = min_faults
        #: tid -> Counter of home nodes of faulted pages
        self._affinity: Dict[int, Counter] = defaultdict(Counter)

    def observe_trace(self, tracer) -> None:
        """Digest a §IV fault trace: each fault's current owners vote for
        where the faulting thread should live."""
        page = self.proc.cluster.params.page_size
        for event in tracer:
            if event.fault_type == "invalidate" or event.tid < 0:
                continue
            entry = self.proc.protocol.directory.lookup(event.addr // page)
            if entry is None:
                continue
            for owner in entry.owners:
                if owner != event.node:
                    self._affinity[event.tid][owner] += 1

    def steer(self) -> int:
        """Post hints for threads with a clear affinity elsewhere; returns
        how many hints were posted."""
        posted = 0
        for thread in self.proc.threads:
            if not thread.alive:
                continue
            votes = self._affinity.get(thread.tid)
            if not votes:
                continue
            target, count = votes.most_common(1)[0]
            if count >= self.min_faults and target != thread.current_node:
                self.hints.post(thread.tid, target)
                posted += 1
        return posted
