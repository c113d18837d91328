"""Work delegation to the origin (§III-A).

"Remote threads can ask their corresponding original threads to work at the
origin on their behalf. [...] When a remote thread requires a stateful
kernel feature, the request is handed to the original thread, performed at
the origin, and only its result is transferred back to the remote thread."

A delegated operation runs as a generator *at the origin* against the
origin's authoritative state (futex queues, VMA map).  When the calling
thread is already at the origin the dispatch is a direct call — the
"identical to handling the request from a local thread" case.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Generator

from repro.core.errors import DexError
from repro.net.messages import Message, MsgType

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.process import DexProcess


class OriginExecContext:
    """Execution context of the sleeping original thread: delegated
    operations that touch memory (e.g. the futex value check) fault pages
    in at the origin through this."""

    def __init__(self, proc: "DexProcess", tid: int):
        self.proc = proc
        self.tid = tid

    def fault_in(self, addr: int, nbytes: int, write: bool) -> Generator:
        yield from self.proc.faults.ensure_range(
            self.proc.origin, self.tid, addr, nbytes, write, site="delegation"
        )


class DelegationService:
    """Registry + transport for delegated operations."""

    def __init__(self, proc: "DexProcess"):
        self.proc = proc
        self._ops: Dict[str, Callable[..., Generator]] = {}
        self._register_builtin_ops()

    def register(self, name: str, op: Callable[..., Generator]) -> None:
        """Register *op(origin_ctx, **kwargs) -> result* as a delegated
        operation.  The result must be message-serializable."""
        if name in self._ops:
            raise DexError(f"delegated op {name!r} already registered")
        self._ops[name] = op

    def _register_builtin_ops(self) -> None:
        proc = self.proc

        def futex_wait(ctx, addr: int, expected: int) -> Generator:
            result = yield from proc.futex.wait(ctx, addr, expected)
            return result

        def futex_wake(ctx, addr: int, count: int) -> Generator:
            result = yield from proc.futex.wake(ctx, addr, count)
            return result

        def mmap(ctx, length: int, prot: int, tag: str) -> Generator:
            start = yield from proc.do_mmap(length, prot, tag)
            return start

        def munmap(ctx, start: int, length: int) -> Generator:
            yield from proc.do_munmap(start, length)
            return 0

        def mprotect(ctx, start: int, length: int, prot: int) -> Generator:
            yield from proc.do_mprotect(start, length, prot)
            return 0

        def noop(ctx) -> Generator:
            # used by the delegation microbenchmark
            yield 0.0
            return "ok"

        for name, op in (
            ("futex_wait", futex_wait),
            ("futex_wake", futex_wake),
            ("mmap", mmap),
            ("munmap", munmap),
            ("mprotect", mprotect),
            ("noop", noop),
        ):
            self.register(name, op)

    # -- calling side --------------------------------------------------------

    def call(self, node: int, tid: int, op: str, **kwargs: Any) -> Generator:
        """Invoke *op* at the origin on behalf of thread *tid* currently at
        *node*; returns the op's result."""
        proc = self.proc
        proc.check_failed()
        if op not in self._ops:
            raise DexError(f"unknown delegated op {op!r}")
        ctx = OriginExecContext(proc, tid)
        if node == proc.origin:
            result = yield from self._ops[op](ctx, **kwargs)
            return result
        proc.stats.delegations += 1
        for called in proc.hooks["delegation_call"]:
            called(tid, op, node)
        try:
            with proc.cluster.engine.span(
                "delegation.call", node=node, tid=tid, op=op
            ):
                reply = yield from proc.cluster.net.request(
                    Message(
                        MsgType.DELEGATE,
                        src=node,
                        dst=proc.origin,
                        payload={"pid": proc.pid, "tid": tid, "op": op, "kwargs": kwargs},
                    )
                )
        finally:
            for returned in proc.hooks["delegation_return"]:
                returned(tid)
        if "error" in reply.payload:
            kind = reply.payload.get("error_kind")
            if kind == "DeadlockError":
                # re-raise detector findings with their own type so the
                # caller can tell a wait-for cycle from an errno
                from repro.check import DeadlockError

                raise DeadlockError(reply.payload["error"])
            if kind == "NodeFailedError":
                # fail-stop recovery verdicts keep their type across the
                # delegation round-trip
                from repro.core.errors import NodeFailedError

                raise NodeFailedError(
                    reply.payload.get("error_node", -1), reply.payload["error"]
                )
            raise DexError(reply.payload["error"])
        return reply.payload["result"]

    # -- origin side -----------------------------------------------------------

    def handle_delegate(self, msg: Message) -> Generator:
        """Origin handler for :data:`MsgType.DELEGATE`: wake the sleeping
        original thread, run the op in its context, reply with the result."""
        proc = self.proc
        params = proc.cluster.params
        yield params.delegation_dispatch_cost
        ctx = OriginExecContext(proc, msg.payload["tid"])
        op = self._ops.get(msg.payload["op"])
        if op is None:
            payload = {"error": f"unknown delegated op {msg.payload['op']!r}"}
        else:
            try:
                result = yield from op(ctx, **msg.payload["kwargs"])
                payload = {"result": result}
            except DexError as err:
                # the op failed at the origin: ship the errno back, the
                # way a failed syscall returns to a local caller (the
                # error kind lets checker findings keep their type)
                payload = {"error": str(err), "error_kind": type(err).__name__}
                node = getattr(err, "node", None)
                if node is not None:
                    payload["error_node"] = node
        yield from proc.cluster.net.send(
            msg.make_reply(MsgType.DELEGATE_REPLY, payload)
        )
