"""Fail-stop recovery: reclaiming what a dead node held.

Runs at the origin when the failure detector declares a node dead (lease
expiry or retry exhaustion).  For each process the dead node touched:

* **Directory ownership** is reclaimed.  Shared copies at the dead node
  are simply dropped (re-seating the page at its home if the dead node was
  the last reader).  A page held *exclusively* by the dead node lost its
  only current copy: under the ``rollback`` policy it is restored from the
  last downgrade-flushed copy at its home (the lost versions are logged);
  under the default ``fail`` policy — or when no flushed copy exists — the
  process is failed with a precise diagnostic.
* **Threads** that were executing on the dead node are marked dead and
  their sim processes failed, so joiners observe :class:`NodeFailedError`
  instead of hanging.
* **Futex waiters** belonging to dead threads are dequeued; when the
  process is failed, *every* waiter is errored out (a lock whose holder
  died will never be released).
* The dead node's per-process state and worker bookkeeping are dropped, so
  quiescent invariant checks stay meaningful after recovery.

The walk mutates directory entries that may concurrently be mid-operation
(``busy``): that is deliberate — the in-flight operation's request toward
the dead node has already been failed by the controller, and the
revocation path treats an already-reclaimed loser as acknowledged.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.core.errors import NodeFailedError
from repro.memory.page_table import PageState
from repro.obs.tracing import maybe_span

if TYPE_CHECKING:  # pragma: no cover
    from repro.chaos.controller import ChaosController
    from repro.core.process import DexProcess


def recover_process(
    controller: "ChaosController", proc: "DexProcess", node: int, reason: str
) -> None:
    """Reclaim everything *proc* had at the failed *node*."""
    directory = proc.protocol.directory
    policy = controller.scenario.on_exclusive_loss
    hooks = proc.hooks
    fatal: List[str] = []
    recovered: List[str] = []
    shared_dropped = 0
    exclusive_rolled_back = 0

    with maybe_span(
        proc.obs, "chaos.recover", node=proc.origin, failed_node=node,
    ):
        hosted = directory.entries_hosted(node)
        if hosted:
            fatal.append(
                f"{hosted} directory entries were homed at node {node}; "
                "their ownership metadata died with it"
            )

        for vpn, entry in list(directory.entries()):
            home = directory.home(vpn)
            if home == node or node not in entry.owners:
                continue
            home_pte = proc.node_state(home).page_table.lookup(vpn)
            if entry.writer == node:
                lost_versions = entry.data_version - (
                    home_pte.data_version if home_pte is not None else 0
                )
                detail = (
                    f"page {vpn:#x} was exclusive at node {node} at version "
                    f"{entry.data_version}"
                )
                if home_pte is None:
                    fatal.append(
                        detail + "; no downgrade-flushed copy exists at its "
                        f"home (node {home}) — contents unrecoverable"
                    )
                    directory.drop_entry(vpn)
                    continue
                # restore the last downgrade-flushed copy at the home
                entry.data_version = home_pte.data_version
                entry.owners = {home}
                entry.writer = None
                home_pte.state = PageState.SHARED
                for revoked in hooks["revoke"]:
                    revoked(vpn, node, False, home)
                for granted in hooks["grant"]:
                    granted(vpn, home, False)
                exclusive_rolled_back += 1
                note = (
                    detail + f"; restored version {home_pte.data_version} from "
                    f"the last flush at node {home} ({lost_versions} "
                    "version(s) of writes lost)"
                )
                if policy == "rollback":
                    recovered.append(note)
                else:
                    fatal.append(note + " [on_exclusive_loss=fail]")
            else:
                entry.owners.discard(node)
                shared_dropped += 1
                for revoked in hooks["revoke"]:
                    revoked(vpn, node, False, home)
                if not entry.owners:
                    if home_pte is not None and home_pte.data_version == entry.data_version:
                        entry.owners = {home}
                        entry.writer = None
                        home_pte.state = PageState.SHARED
                        for granted in hooks["grant"]:
                            granted(vpn, home, False)
                    else:
                        fatal.append(
                            f"page {vpn:#x}: node {node} held the only reader "
                            f"copy and the home copy is stale — contents "
                            "unrecoverable"
                        )
                        directory.drop_entry(vpn)

        # threads that were executing on the dead node
        dead_threads = [
            t for t in proc.threads if t.alive and t.current_node == node
        ]
        for thread in dead_threads:
            diag = (
                f"thread {thread.name} (tid {thread.tid}) was running on "
                f"node {node} when it failed ({reason})"
            )
            thread.failed = diag
            thread.sim_process.fail(NodeFailedError(node, diag))
            for died in hooks["thread_dead"]:
                died(thread.tid)

        exc = NodeFailedError(node, reason)
        proc.futex.drop_waiters({t.tid for t in dead_threads}, exc)
        if dead_threads:
            # the thread set is broken: a wake a surviving waiter counts on
            # (a barrier arrival, a mutex release) may never come, so every
            # pending waiter errors out and future waits raise — the run
            # fails with the diagnostic rather than hanging (the harness
            # restart policy then re-runs it on a fresh cluster)
            proc.futex.fail_all(exc)

        # worker + per-node state bookkeeping (after the walk: dropping the
        # state also drops any directory shard the dead node hosted)
        proc.nodes_with_worker.discard(node)
        proc.worker_ready.pop(node, None)
        proc.drop_node_state(node)
        for died in hooks["node_dead"]:
            died(node)

        if dead_threads:
            # thread death is surfaced to joiners (sim_process.fail above),
            # not escalated to process failure: surviving threads continue
            controller._log(
                f"{proc.name}: {len(dead_threads)} migrated thread(s) died "
                f"with node {node}: " + ", ".join(t.name for t in dead_threads)
            )

        summary = (
            f"reclaimed from node {node}: {shared_dropped} shared cop(ies) "
            f"dropped, {exclusive_rolled_back} exclusive page(s) rolled back"
        )
        controller._log(f"{proc.name}: {summary}")
        for note in recovered:
            controller._log(f"{proc.name}: recovered: {note}")

        if fatal:
            diagnostic = f"{reason}; " + "; ".join(fatal)
            proc.failed = NodeFailedError(node, diagnostic)
            controller._log(f"{proc.name}: FAILED: {diagnostic}")
            # every remaining waiter errors out rather than hanging on a
            # wake that can no longer come
            proc.futex.fail_all(proc.failed)
