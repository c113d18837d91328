"""Admission-control policies for DexServe.

Every request passes through exactly one :meth:`AdmissionPolicy.decide`
call at its arrival node (and one more if a failure reroutes it).  The
verdict is the request's own status — QUEUED (admitted), REJECTED or
THROTTLED, with any evicted request SHED — and the policy itself
performs any queue mutation through the sanctioned ``commit_admit`` /
``evict_oldest`` surface.  Nothing else in the serving layer may drop or
enqueue work or refuse a request — the DexVet ``serve-discipline`` rule
pins both to this module and :mod:`repro.serve.queueing` statically.

Three policies, matching the load-leveling patterns the ROADMAP names:

* ``reject``   — bounded queue, reject-with-503 once full (the classic
  load shedder: latency of admitted work stays bounded, overflow is
  pushed back to the client);
* ``shed-oldest`` — admit the newcomer, evict the head of the queue
  (freshness-biased: under overload, old queued work is the least
  likely to still matter);
* ``token-bucket`` — throttle to a sustained rate with a burst
  allowance, before the queue is even consulted (smooths bursts at the
  cost of refusing work the queue could briefly absorb).
"""

from __future__ import annotations

from typing import Dict, Tuple

from .queueing import QUEUED, REJECTED, THROTTLED, Request, ServeQueue

Shed = Tuple[Request, ...]


def _refuse(request: Request, status: str, now_us: float) -> Shed:
    """*request* ends *status* at *now_us*; nothing was shed for it."""
    request.status = status
    request.finish_us = now_us
    return ()


def _admit(queue: ServeQueue, request: Request) -> None:
    """*request* waits in *queue*."""
    request.status = QUEUED
    queue.commit_admit(request)


class AdmissionPolicy:
    """Bounded queue with reject-with-503 overflow: admit when the queue
    has room, reject otherwise.  The base policy is the ``reject`` one."""

    name = "reject"

    def __init__(self, rate_per_s: float = 0.0):
        """A policy for a tenant offered *rate_per_s* per node (only
        token-bucket reads it)."""

    def decide(self, queue: ServeQueue, request: Request,
               now_us: float) -> Shed:
        """Leave *request* QUEUED (admitted), REJECTED or THROTTLED and
        return the queued requests SHED to make room for it."""
        if queue.full:
            return _refuse(request, REJECTED, now_us)
        _admit(queue, request)
        return ()


RejectPolicy = AdmissionPolicy


class ShedOldestPolicy(AdmissionPolicy):
    """Always admit the newest request; evict the oldest queued one when
    the backlog is full."""

    name = "shed-oldest"

    def decide(self, queue: ServeQueue, request: Request,
               now_us: float) -> Shed:
        shed: Shed = ()
        if queue.full:
            victim = queue.evict_oldest()
            if victim is not None:
                victim.finish_us = now_us
                shed = (victim,)
        _admit(queue, request)
        return shed


class TokenBucketPolicy(AdmissionPolicy):
    """Throttle to ``rate_per_s`` sustained with ``burst`` tokens of
    headroom; requests arriving with the bucket dry are throttled before
    the queue is consulted.  One bucket per node (admission is
    per-node)."""

    name = "token-bucket"

    def __init__(self, rate_per_s: float, burst: float = 16.0):
        if rate_per_s <= 0.0:
            raise ValueError("token-bucket rate must be positive")
        self.rate_per_s = rate_per_s
        self.burst = burst
        self._tokens: Dict[int, float] = {}
        self._refilled_us: Dict[int, float] = {}

    def _refill(self, node: int, now_us: float) -> float:
        tokens = self._tokens.get(node, self.burst)
        last = self._refilled_us.get(node, now_us)
        tokens = min(self.burst, tokens + (now_us - last) * self.rate_per_s / 1e6)
        self._refilled_us[node] = now_us
        return tokens

    def decide(self, queue: ServeQueue, request: Request,
               now_us: float) -> Shed:
        node = queue.node
        tokens = self._tokens[node] = self._refill(node, now_us)
        if tokens < 1.0:
            return _refuse(request, THROTTLED, now_us)
        if queue.full:
            return _refuse(request, REJECTED, now_us)
        self._tokens[node] = tokens - 1.0
        _admit(queue, request)
        return ()


#: CLI name -> policy class, called with the tenant's per-node rate
POLICIES = {cls.name: cls
            for cls in (RejectPolicy, ShedOldestPolicy, TokenBucketPolicy)}
