"""On-demand VMA synchronization (§III-D).

No VMA information is shipped at migration time.  When a remote access
falls outside every VMA the node knows about, the node asks the origin
whether the access is legitimate; the origin replies with the authoritative
VMA (which the remote installs) or an error (which becomes a
:class:`SegmentationFault`).  Only *shrinking* operations (munmap) and
*downgrades* (mprotect removing permissions) are broadcast eagerly, because
a stale permissive VMA at a remote would otherwise allow illegal accesses;
permissive changes propagate lazily through the on-demand path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, List

from repro.core.errors import NodeFailedError, SegmentationFault
from repro.memory.vma import VMA, Protection
from repro.net.messages import Message, MsgType

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.process import DexProcess


class VmaSync:
    """Keeps remote VMA replicas consistent with the origin's map."""

    def __init__(self, proc: "DexProcess"):
        self.proc = proc

    # -- remote side --------------------------------------------------------

    def ensure_vma(self, node: int, addr: int, write: bool) -> Generator:
        """Validate that *addr* is mapped with sufficient protection at
        *node*, querying the origin on a replica miss.  Raises
        :class:`SegmentationFault` for illegal accesses."""
        proc = self.proc
        local_map = proc.node_state(node).vma_map
        vma = local_map.find(addr)
        if vma is None and node != proc.origin:
            vma = yield from self._query_origin(node, addr)
        if vma is None:
            raise SegmentationFault(node, addr, write)
        needed = Protection.WRITE if write else Protection.READ
        if not vma.prot & needed:
            raise SegmentationFault(node, addr, write)
        return vma

    def _query_origin(self, node: int, addr: int) -> Generator:
        proc = self.proc
        params = proc.cluster.params
        proc.stats.vma_queries += 1
        yield params.vma_op_cost
        reply = yield from proc.cluster.net.request(
            Message(
                MsgType.VMA_QUERY,
                src=node,
                dst=proc.origin,
                payload={"pid": proc.pid, "addr": addr},
            )
        )
        info = reply.payload
        if not info["valid"]:
            return None
        vma = VMA(
            start=info["start"],
            end=info["end"],
            prot=Protection(info["prot"]),
            tag=info["tag"],
            version=info["version"],
        )
        proc.node_state(node).vma_map.replace(vma)
        return vma

    # -- origin side ----------------------------------------------------------

    def handle_query(self, msg: Message) -> Generator:
        """Origin handler for :data:`MsgType.VMA_QUERY`."""
        proc = self.proc
        params = proc.cluster.params
        yield params.vma_op_cost
        vma = proc.node_state(proc.origin).vma_map.find(msg.payload["addr"])
        if vma is None:
            payload = {"valid": False}
        else:
            payload = {
                "valid": True,
                "start": vma.start,
                "end": vma.end,
                "prot": int(vma.prot),
                "tag": vma.tag,
                "version": vma.version,
            }
        yield from proc.cluster.net.send(msg.make_reply(MsgType.VMA_REPLY, payload))

    def broadcast_shrink(
        self, start: int, end: int, new_prot: int = -1
    ) -> Generator:
        """Eagerly push a shrink/downgrade to every node running this
        process; waits for all acknowledgements (the update "should be
        applied to all remote threads in order to prevent illegal memory
        access operations")."""
        proc = self.proc
        engine = proc.cluster.engine
        chaos = proc.cluster.chaos
        targets = [n for n in proc.active_nodes() if n != proc.origin]
        if chaos is not None:
            # no point updating (or waiting on) the replica of a dead node
            targets = [n for n in targets if not chaos.is_fenced(n)]
        if not targets:
            return
        proc.stats.vma_shrink_broadcasts += 1
        pending = []
        for node in targets:
            msg = Message(
                MsgType.VMA_SHRINK,
                src=proc.origin,
                dst=node,
                payload={
                    "pid": proc.pid,
                    "start": start,
                    "end": end,
                    "prot": new_prot,
                },
            )
            pending.append(
                engine.process(
                    proc.cluster.net.request(msg), name=f"vma_shrink->{node}"
                )
            )
        if chaos is None:
            yield engine.all_of(pending)
            return
        # reliable mode: a target may fail-stop mid-broadcast; its replica
        # died with it, so a detector-aborted ack counts as applied
        for node, shrink_proc in zip(targets, pending):
            try:
                yield shrink_proc
            except NodeFailedError:
                if not chaos.is_fenced(node):
                    raise

    def handle_shrink(self, msg: Message) -> Generator:
        """Remote-worker handler for an eager shrink/downgrade broadcast
        (node-wide operations "are delivered to the remote worker and
        processed in the context of the remote worker", §III-A)."""
        proc = self.proc
        params = proc.cluster.params
        node = msg.dst
        start, end = msg.payload["start"], msg.payload["end"]
        new_prot = msg.payload["prot"]
        yield params.vma_op_cost
        state = proc.node_state(node)
        page = params.page_size
        vpn_start, vpn_end = start // page, (end + page - 1) // page
        if new_prot < 0:
            state.vma_map.remove_range(start, end)
            state.page_table.drop_range(vpn_start, vpn_end)
            state.frames.drop_range(vpn_start, vpn_end)
        else:
            # protection downgrade: update the replica's view only; the
            # origin separately revokes page ownership in the range via the
            # consistency protocol (ConsistencyProtocol.revoke_range,
            # resolved at each page's home under the configured directory
            # backend), so the next write here faults and the VMA check
            # rejects it
            covering = state.vma_map.find_overlapping(start, end)
            if covering:
                state.vma_map.mprotect(
                    max(start, min(v.start for v in covering)),
                    min(end, max(v.end for v in covering))
                    - max(start, min(v.start for v in covering)),
                    Protection(new_prot),
                )
        yield from proc.cluster.net.send(
            msg.make_reply(MsgType.VMA_REPLY, {"ok": True})
        )
