"""Thread migration across machine boundaries (§III-A).

Forward migration ships the minimal execution context (registers + address
space identifiers — *not* memory contents) to the destination.  The first
migration of a process to a node additionally creates the **remote worker**
and per-process structures there, which dominates the first-migration
latency (the "Remote Worker" component of Figure 3); later migrations just
fork a remote thread from the existing worker.  Backward migration updates
the original thread's context and is far cheaper.

Every migration appends a :class:`MigrationRecord` with the per-side costs
Table II reports and the remote-side component breakdown Figure 3 plots.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Generator

from repro.core.errors import MigrationError, NodeFailedError
from repro.core.stats import MigrationRecord
from repro.net.messages import Message, MsgType

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.process import DexProcess
    from repro.core.thread import DexThread


class MigrationService:
    """Per-process migration machinery."""

    def __init__(self, proc: "DexProcess"):
        self.proc = proc

    def migrate(self, thread: "DexThread", dest: int) -> Generator:
        """Relocate *thread* to node *dest*.  A no-op when already there."""
        proc = self.proc
        cluster = proc.cluster
        if not 0 <= dest < cluster.num_nodes:
            raise MigrationError(f"no such node: {dest}")
        if not thread.alive:
            raise MigrationError(f"thread {thread.tid} is not running")
        proc.check_failed()
        if cluster.chaos is not None and cluster.chaos.is_fenced(dest):
            raise NodeFailedError(
                dest, f"cannot migrate thread {thread.tid} to a failed node"
            )
        src = thread.current_node
        if dest == src:
            return
        if dest == proc.origin:
            yield from self._migrate_back(thread)
        else:
            yield from self._migrate_forward(thread, dest)

    # ------------------------------------------------------------------

    def _migrate_forward(self, thread: "DexThread", dest: int) -> Generator:
        # the span covers exactly the MigrationRecord [start_us, end_us]
        # interval, so per-phase attribution agrees with Table II totals
        with self.proc.cluster.engine.span(
            "migration.forward", node=thread.current_node, tid=thread.tid, dest=dest,
        ):
            yield from self._migrate_forward_impl(thread, dest)

    def _migrate_forward_impl(self, thread: "DexThread", dest: int) -> Generator:
        proc = self.proc
        engine = proc.cluster.engine
        params = proc.cluster.params
        src = thread.current_node
        start = engine.now
        components: Dict[str, float] = {}

        # source side: collect pt_regs / mm identifiers
        source_cost = params.context_collect_cost
        if src == proc.origin and not proc.ever_migrated:
            # first migration out of this process: origin-side per-process
            # bookkeeping (pairing structures, migration state)
            source_cost += params.origin_process_setup_cost
        elif src == proc.origin:
            source_cost += params.origin_resume_cost
        yield source_cost
        components["context_collect"] = params.context_collect_cost
        proc.ever_migrated = True

        reply = yield from proc.cluster.net.request(
            Message(
                MsgType.MIGRATE,
                src=src,
                dst=dest,
                payload={"pid": proc.pid, "tid": thread.tid},
            )
        )
        components.update(reply.payload["components"])
        remote_us = reply.payload["remote_us"]
        first_on_node = "remote_worker" in components
        # the thread now runs at the destination; its paired original
        # thread (conceptually) sleeps awaiting delegation requests
        thread.current_node = dest
        thread.migration_count += 1
        proc.stats.migrations.append(
            MigrationRecord(
                tid=thread.tid,
                src=src,
                dst=dest,
                kind="forward",
                first_on_node=first_on_node,
                start_us=start,
                end_us=engine.now,
                origin_us=source_cost,
                remote_us=remote_us,
                components=components,
            )
        )

    def handle_migrate_msg(self, msg: Message) -> Generator:
        """Destination-side handler: reconstruct the thread from the
        received execution context."""
        proc = self.proc
        engine = proc.cluster.engine
        params = proc.cluster.params
        dest = msg.dst
        arrival = engine.now
        components: Dict[str, float] = {}
        ready = proc.worker_ready.get(dest)
        if ready is None:
            # first thread of this process here: create the remote worker
            # and the per-process address-space skeleton (§III-A: "DeX
            # starts the remote worker with the given address space
            # information"), the dominant cost of a first migration.
            # Concurrent arrivals wait on the setup event below.
            ready = proc.worker_ready[dest] = engine.event(
                name=f"worker_ready@{dest}"
            )
            with engine.span("migration.remote_worker", node=dest):
                yield params.remote_worker_setup_cost
            components["remote_worker"] = params.remote_worker_setup_cost
            proc.nodes_with_worker.add(dest)
            proc.node_state(dest)  # materialize page table / frames / VMA replica
            chaos = proc.cluster.chaos
            if chaos is not None:
                # the new worker starts renewing its lease with the origin;
                # silence beyond lease_timeout_us declares the node failed
                chaos.register_lease(proc, dest)
            ready.succeed()
        else:
            if not ready.triggered:
                # the worker is mid-setup for another migration: wait
                yield ready
            # wake the sleeping remote worker so it can fork for us
            with engine.span("migration.worker_wake", node=dest):
                yield params.worker_wake_cost
            components["worker_wake"] = params.worker_wake_cost
        # fork a remote thread from the remote worker (CLONE_THREAD)
        with engine.span("migration.thread_fork", node=dest):
            yield params.remote_thread_fork_cost
        components["thread_fork"] = params.remote_thread_fork_cost
        with engine.span("migration.context_restore", node=dest):
            yield params.remote_context_restore_cost
        components["context_restore"] = params.remote_context_restore_cost
        with engine.span("migration.schedule", node=dest):
            yield params.remote_sched_cost
        components["schedule"] = params.remote_sched_cost
        yield from proc.cluster.net.send(
            msg.make_reply(
                MsgType.MIGRATE_DONE,
                {"remote_us": engine.now - arrival, "components": components},
            )
        )

    # ------------------------------------------------------------------

    def _migrate_back(self, thread: "DexThread") -> Generator:
        """Backward migration: ship the up-to-date context home and resume
        the original thread (§III-A)."""
        with self.proc.cluster.engine.span(
            "migration.backward", node=thread.current_node, tid=thread.tid,
            dest=self.proc.origin,
        ):
            yield from self._migrate_back_impl(thread)

    def _migrate_back_impl(self, thread: "DexThread") -> Generator:
        proc = self.proc
        engine = proc.cluster.engine
        params = proc.cluster.params
        src = thread.current_node
        start = engine.now
        # remote side: collect the remote thread's context
        yield params.context_collect_cost
        reply = yield from proc.cluster.net.request(
            Message(
                MsgType.MIGRATE_BACK,
                src=src,
                dst=proc.origin,
                payload={"pid": proc.pid, "tid": thread.tid},
            )
        )
        # the remote thread exits; the original thread resumes at the origin
        thread.current_node = proc.origin
        thread.migration_count += 1
        proc.stats.migrations.append(
            MigrationRecord(
                tid=thread.tid,
                src=src,
                dst=proc.origin,
                kind="backward",
                first_on_node=False,
                start_us=start,
                end_us=engine.now,
                origin_us=reply.payload["origin_us"],
                remote_us=params.context_collect_cost,
                components={
                    "context_collect": params.context_collect_cost,
                    "context_update": reply.payload["origin_us"],
                },
            )
        )

    def handle_migrate_back_msg(self, msg: Message) -> Generator:
        """Origin-side handler: update the original thread's context with
        the received state and mark it runnable."""
        proc = self.proc
        params = proc.cluster.params
        yield params.backward_update_cost
        yield from proc.cluster.net.send(
            msg.make_reply(
                MsgType.MIGRATE_DONE, {"origin_us": params.backward_update_cost}
            )
        )
