"""Exceptions raised by the DeX core."""

from __future__ import annotations


class DexError(Exception):
    """Base class for DeX runtime errors."""


class SegmentationFault(DexError):
    """An access fell outside every VMA — the distributed equivalent of a
    SIGSEGV.  §III-D: "If the access is invalid, the origin sends an error
    code to the remote which terminates the remote threads as if it
    performed an illegal memory access."""

    def __init__(self, node: int, addr: int, write: bool):
        super().__init__(
            f"segmentation fault: node {node}, addr {addr:#x}, "
            f"{'write' if write else 'read'}"
        )
        self.node = node
        self.addr = addr
        self.write = write


class MigrationError(DexError):
    """Illegal migration request (unknown node, migrating a dead thread...)."""


class ProtocolError(DexError):
    """Internal consistency-protocol invariant violation.  Raising this is
    always a bug in the protocol, never expected behaviour."""


class NodeFailedError(DexError):
    """A remote node fail-stopped (or became unreachable) and the affected
    operation cannot be completed.  Carries the failed node and a precise
    diagnostic of what was lost; raised by the retry transport on
    exhaustion, by the failure detector into pending waiters, and by
    recovery when a dead node held unrecoverable state."""

    def __init__(self, node: int, diagnostic: str):
        super().__init__(f"node {node} failed: {diagnostic}")
        self.node = node
        self.diagnostic = diagnostic
        #: the controller report of the cluster the run died on, set by
        #: ``chaos.harness.run_under_chaos`` before it re-raises
        self.chaos_report = None
